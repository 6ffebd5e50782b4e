package synth

import (
	"fmt"

	"domino/internal/atoms"
	"domino/internal/intrinsics"
	"domino/internal/ir"
	"domino/internal/pvsm"
	"domino/internal/token"
)

// Config is a verified atom configuration for a codelet: the guarded-update
// expression for each state variable and the tap expression for each packet
// field the codelet defines. The expressions are within the template grammar
// of the reported atom kind, i.e. they are a concrete assignment of the
// template's parameter holes.
type Config struct {
	// Atom is the least expressive atom kind that implements the codelet.
	Atom atoms.Kind
	// StateUpdate maps each owned state variable to its new-value
	// expression, rendered in the paper's notation.
	StateUpdate map[string]string
	// Outputs maps each defined packet field to its tap expression.
	Outputs map[string]string
}

// Result reports a codelet→atom mapping.
type Result struct {
	Config *Config
	// Verified is the number of input vectors the configuration was checked
	// against.
	Verified int
}

// Options tunes the synthesizer.
type Options struct {
	// Escaping reports whether a packet field defined by the codelet is
	// consumed outside it (by a later stage or as a packet output). Nil
	// means every defined field escapes, the conservative default.
	Escaping func(field string) bool
	// VerifyVectors is the number of randomized wide-domain vectors to test
	// beyond the exhaustive small-domain grid (default 2000).
	VerifyVectors int
	// Seed makes verification deterministic.
	Seed int64
	// AllowLUT accepts sqrt intrinsics and general division in stateless
	// codelets, implemented by the target's lookup-table unit (the paper's
	// §5.3 future-work extension).
	AllowLUT bool
}

// statelessOps are the operations the stateless atom provides (paper §5.2:
// "simple arithmetic (add, subtract, left shift, right shift), logical
// (and, or, xor), relational, or conditional operations").
var statelessOps = map[token.Kind]bool{
	token.Plus: true, token.Minus: true,
	token.Shl: true, token.Shr: true,
	token.And: true, token.Or: true, token.Xor: true,
	token.LAnd: true, token.LOr: true,
	token.Eq: true, token.Neq: true,
	token.Lt: true, token.Gt: true, token.Leq: true, token.Geq: true,
}

// MapCodelet determines the least expressive atom that implements the
// codelet and returns its verified configuration, or an error explaining why
// no atom at any level can run the codelet at line rate.
func MapCodelet(c *pvsm.Codelet, opts Options) (*Result, error) {
	if opts.VerifyVectors == 0 {
		opts.VerifyVectors = 2000
	}
	if !c.Stateful() {
		return mapStateless(c, opts)
	}
	if len(c.StateVars) > 2 {
		return nil, fmt.Errorf("codelet updates %d state variables (%s); no atom updates more than a pair",
			len(c.StateVars), joinNames(c.StateVars))
	}

	sum, err := symexec(c)
	if err != nil {
		return nil, err
	}

	cls := &classification{}
	cls.need.StateVars = len(c.StateVars)
	for _, sv := range sum.order {
		if err := classifyState(sv, sum.states[sv], cls); err != nil {
			return nil, fmt.Errorf("state %s: %w", sv, err)
		}
	}

	// Taps available for packet outputs: old state values and every
	// subexpression of the update trees.
	var taps []expr
	for _, sv := range sum.order {
		taps = append(taps, eState{sv})
		taps = subexprs(sum.states[sv], taps)
	}
	escapes := opts.Escaping
	for f, e := range sum.defs {
		if escapes != nil && !escapes(f) {
			continue
		}
		if err := outputOK(e, taps, cls); err != nil {
			return nil, fmt.Errorf("field %s: %w", f, err)
		}
	}

	kind, ok := atoms.LeastStateful(cls.need)
	if !ok {
		return nil, fmt.Errorf("codelet requirements %+v exceed every stateful atom", cls.need)
	}

	cfg := &Config{
		Atom:        kind,
		StateUpdate: map[string]string{},
		Outputs:     map[string]string{},
	}
	for _, sv := range sum.order {
		cfg.StateUpdate[sv] = sum.states[sv].String()
	}
	for f, e := range sum.defs {
		cfg.Outputs[f] = e.String()
	}

	n, err := verify(c, sum, opts)
	if err != nil {
		return nil, fmt.Errorf("synthesized %s configuration failed verification: %w", kind, err)
	}
	return &Result{Config: cfg, Verified: n}, nil
}

// mapStateless checks a stateless codelet against the stateless atom's
// operation set (plus the lookup-table unit when the target provides one).
func mapStateless(c *pvsm.Codelet, opts Options) (*Result, error) {
	cfg := &Config{Atom: atoms.Stateless, StateUpdate: map[string]string{}, Outputs: map[string]string{}}
	for _, s := range c.Stmts {
		switch x := s.(type) {
		case *ir.Move, *ir.CondMove:
			// Always supported.
		case *ir.BinOp:
			if opts.AllowLUT && x.Op == token.Slash {
				break // reciprocal lookup table
			}
			if !statelessOps[x.Op] && !pow2Rewritable(x.Op, x.A, x.B) {
				return nil, fmt.Errorf("operation %s in %q is not provided by the stateless atom", x.Op, s)
			}
		case *ir.Call:
			if opts.AllowLUT && x.Fun == "sqrt" {
				if x.Op != token.Illegal && !statelessOps[x.Op] {
					return nil, fmt.Errorf("operation %s folded into a sqrt lookup is not supported", x.Op)
				}
				break
			}
			if !intrinsics.IsHash(x.Fun) {
				return nil, fmt.Errorf("intrinsic %s in %q is not provided by any compiler target (paper §5.3: e.g. CoDel's square root)", x.Fun, s)
			}
			if x.Op != token.Illegal && x.Op != token.Percent && !statelessOps[x.Op] {
				return nil, fmt.Errorf("operation %s folded into a hash call is not supported", x.Op)
			}
			if x.Op == token.Percent && !x.B.IsConst() {
				return nil, fmt.Errorf("hash table size must be a constant, got %s", x.B)
			}
		case *ir.ReadState, *ir.WriteState:
			return nil, fmt.Errorf("internal error: state operation %q in a stateless codelet", s)
		}
		if w := s.Writes(); !ir.IsStateVar(w) {
			cfg.Outputs[w[len("pkt."):]] = s.String()
		}
	}
	return &Result{Config: cfg}, nil
}

// pow2Rewritable reports whether a multiply/divide/modulo can be strength-
// reduced to a shift or mask the stateless atom does provide: one operand
// must be a non-negative power-of-two constant.
func pow2Rewritable(op token.Kind, a, b ir.Operand) bool {
	isPow2 := func(o ir.Operand) bool {
		return o.IsConst() && o.Value > 0 && o.Value&(o.Value-1) == 0
	}
	switch op {
	case token.Star:
		return isPow2(a) || isPow2(b)
	case token.Slash, token.Percent:
		return isPow2(b)
	}
	return false
}
