// Package synth maps codelets one-to-one to atoms (paper §4.3), replacing
// the SKETCH program synthesizer with a syntax-guided search: each codelet
// is symbolically executed into guarded-update expression trees, normalized,
// classified against the atom capability grammar, and the resulting
// configuration is verified against the codelet by exhaustive small-domain
// and randomized wide-domain evaluation.
//
// The search space is the same one the paper gives SKETCH — template holes
// over packet operands and constants of at most atoms.ConstBits bits — so
// acceptances and rejections (x = x*x, CoDel's sqrt) fall out identically.
package synth

import (
	"fmt"
	"sort"
	"strings"

	"domino/internal/interp"
	"domino/internal/token"
)

// expr is a symbolic expression over state variables and packet inputs.
type expr interface {
	String() string
	expr()
}

type eConst struct{ v int32 }

type eField struct{ name string } // packet field read from a previous stage

type eState struct{ name string } // old value of a state variable

type eBin struct {
	op   token.Kind
	a, b expr
}

type eCond struct{ c, a, b expr }

func (eConst) expr() {}
func (eField) expr() {}
func (eState) expr() {}
func (*eBin) expr()  {}
func (*eCond) expr() {}

func (e eConst) String() string { return fmt.Sprintf("%d", e.v) }
func (e eField) String() string { return "pkt." + e.name }
func (e eState) String() string { return e.name }
func (e *eBin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.a, e.op, e.b)
}
func (e *eCond) String() string {
	return fmt.Sprintf("(%s ? %s : %s)", e.c, e.a, e.b)
}

// equalExpr is structural equality.
func equalExpr(a, b expr) bool {
	switch x := a.(type) {
	case eConst:
		y, ok := b.(eConst)
		return ok && x.v == y.v
	case eField:
		y, ok := b.(eField)
		return ok && x.name == y.name
	case eState:
		y, ok := b.(eState)
		return ok && x.name == y.name
	case *eBin:
		y, ok := b.(*eBin)
		return ok && x.op == y.op && equalExpr(x.a, y.a) && equalExpr(x.b, y.b)
	case *eCond:
		y, ok := b.(*eCond)
		return ok && equalExpr(x.c, y.c) && equalExpr(x.a, y.a) && equalExpr(x.b, y.b)
	}
	return false
}

// simplify applies normalization rewrites bottom-up until fixpoint (with an
// iteration cap as a safety net):
//
//	const ⊕ const            → folded constant
//	x + 0, 0 + x, x - 0      → x
//	a relop a                → 0 or 1
//	op(cond(c,a,b), t)       → cond(c, op(a,t), op(b,t))      (t simple)
//	op(cond(c,a,b), cond(c,x,y)) → cond(c, op(a,x), op(b,y))
//	cond(k, a, b)            → a or b for constant k
//	cond(c, a, a)            → a
//	cond(cond(c,p,q), a, b)  → cond(c, cond(p,a,b), cond(q,a,b))
//	cond(!c, a, b)           → cond(c, b, a)    (!c as (c == 0))
//	cond(a&&b, u, e)         → cond(a, cond(b, u, e), e)
//	cond(a||b, u, e)         → cond(a, u, cond(b, u, e))
//
// followed by contextual pruning: inside a conditional's arms, the
// condition's truth value is known, so repeated predicates collapse at any
// nesting depth.
func simplify(e expr) expr {
	for i := 0; i < 64; i++ {
		next := prune(simplifyOnce(e), map[string]bool{})
		if equalExpr(next, e) {
			return next
		}
		e = next
	}
	return e
}

func simplifyOnce(e expr) expr {
	switch x := e.(type) {
	case *eBin:
		a, b := simplifyOnce(x.a), simplifyOnce(x.b)
		if ac, ok := a.(eConst); ok {
			if bc, ok := b.(eConst); ok {
				if v, err := interp.EvalBinary(x.op, ac.v, bc.v); err == nil {
					return eConst{v}
				}
			}
		}
		if bc, ok := b.(eConst); ok && bc.v == 0 && (x.op == token.Plus || x.op == token.Minus) {
			return a
		}
		if ac, ok := a.(eConst); ok && ac.v == 0 && x.op == token.Plus {
			return b
		}
		// Relational operators on identical operands fold.
		if equalExpr(a, b) {
			switch x.op {
			case token.Eq, token.Leq, token.Geq:
				return eConst{1}
			case token.Neq, token.Lt, token.Gt:
				return eConst{0}
			}
		}
		// Boolean-valued expressions compared against 0/1 reduce to the
		// expression itself (or its negation-free form): (p && q) == 1 is
		// p && q. This keeps compound conditions rewritable into nesting.
		if x.op == token.Eq || x.op == token.Neq {
			if bc, ok := b.(eConst); ok && isBooleanExpr(a) {
				if (x.op == token.Eq && bc.v == 1) || (x.op == token.Neq && bc.v == 0) {
					return a
				}
			}
			if ac, ok := a.(eConst); ok && isBooleanExpr(b) {
				if (x.op == token.Eq && ac.v == 1) || (x.op == token.Neq && ac.v == 0) {
					return b
				}
			}
		}
		// Distribute over conditionals so guarded updates surface as
		// decision trees with operation leaves.
		if ca, ok := a.(*eCond); ok {
			if cb, ok := b.(*eCond); ok && equalExpr(ca.c, cb.c) {
				return &eCond{c: ca.c,
					a: &eBin{op: x.op, a: ca.a, b: cb.a},
					b: &eBin{op: x.op, a: ca.b, b: cb.b}}
			}
			if isSimpleTerm(b) {
				return &eCond{c: ca.c,
					a: &eBin{op: x.op, a: ca.a, b: b},
					b: &eBin{op: x.op, a: ca.b, b: b}}
			}
		}
		if cb, ok := b.(*eCond); ok && isSimpleTerm(a) {
			return &eCond{c: cb.c,
				a: &eBin{op: x.op, a: a, b: cb.a},
				b: &eBin{op: x.op, a: a, b: cb.b}}
		}
		return &eBin{op: x.op, a: a, b: b}
	case *eCond:
		c, a, b := simplifyOnce(x.c), simplifyOnce(x.a), simplifyOnce(x.b)
		if k, ok := c.(eConst); ok {
			if k.v != 0 {
				return a
			}
			return b
		}
		if equalExpr(a, b) {
			return a
		}
		// A conditional condition distributes outward.
		if cc, ok := c.(*eCond); ok {
			return &eCond{c: cc.c,
				a: &eCond{c: cc.a, a: a, b: b},
				b: &eCond{c: cc.b, a: a, b: b}}
		}
		// cond(c==0, a, b) → cond(c, b, a) for compound c.
		if neg, ok := c.(*eBin); ok && neg.op == token.Eq {
			if z, ok := neg.b.(eConst); ok && z.v == 0 {
				if !isSimpleTerm(neg.a) {
					c, a, b = neg.a, b, a
				}
			}
		}
		// Conjunction/disjunction expansion into nesting.
		if cb, ok := c.(*eBin); ok {
			switch cb.op {
			case token.LAnd:
				return &eCond{c: cb.a, a: &eCond{c: cb.b, a: a, b: b}, b: b}
			case token.LOr:
				return &eCond{c: cb.a, a: a, b: &eCond{c: cb.b, a: a, b: b}}
			}
		}
		if equalExpr(a, b) {
			return a
		}
		return &eCond{c: c, a: a, b: b}
	}
	return e
}

// prune removes conditionals whose predicate's truth value is implied by an
// enclosing conditional (keyed syntactically).
func prune(e expr, assume map[string]bool) expr {
	switch x := e.(type) {
	case *eBin:
		return &eBin{op: x.op, a: prune(x.a, assume), b: prune(x.b, assume)}
	case *eCond:
		key := x.c.String()
		if v, ok := assume[key]; ok {
			if v {
				return prune(x.a, assume)
			}
			return prune(x.b, assume)
		}
		c := prune(x.c, assume)
		assume[key] = true
		a := prune(x.a, assume)
		assume[key] = false
		b := prune(x.b, assume)
		delete(assume, key)
		if equalExpr(a, b) {
			return a
		}
		return &eCond{c: c, a: a, b: b}
	}
	return e
}

// isSimpleTerm reports whether e is a leaf operand: constant, packet field,
// or state variable.
func isSimpleTerm(e expr) bool {
	switch e.(type) {
	case eConst, eField, eState:
		return true
	}
	return false
}

// isBooleanExpr reports whether e always evaluates to 0 or 1.
func isBooleanExpr(e expr) bool {
	b, ok := e.(*eBin)
	if !ok {
		return false
	}
	switch b.op {
	case token.Eq, token.Neq, token.Lt, token.Gt, token.Leq, token.Geq,
		token.LAnd, token.LOr:
		return true
	}
	return false
}

// subexprs collects every subexpression of e (including e itself).
func subexprs(e expr, out []expr) []expr {
	out = append(out, e)
	switch x := e.(type) {
	case *eBin:
		out = subexprs(x.a, out)
		out = subexprs(x.b, out)
	case *eCond:
		out = subexprs(x.c, out)
		out = subexprs(x.a, out)
		out = subexprs(x.b, out)
	}
	return out
}

// freeVars returns the packet fields and state variables referenced by e.
func freeVars(e expr) (fields, states []string) {
	fs, ss := map[string]bool{}, map[string]bool{}
	var walk func(expr)
	walk = func(e expr) {
		switch x := e.(type) {
		case eField:
			fs[x.name] = true
		case eState:
			ss[x.name] = true
		case *eBin:
			walk(x.a)
			walk(x.b)
		case *eCond:
			walk(x.c)
			walk(x.a)
			walk(x.b)
		}
	}
	walk(e)
	for f := range fs {
		fields = append(fields, f)
	}
	for s := range ss {
		states = append(states, s)
	}
	sort.Strings(fields)
	sort.Strings(states)
	return fields, states
}

// joinNames formats a name list for diagnostics.
func joinNames(names []string) string { return strings.Join(names, ", ") }
