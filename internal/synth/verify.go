package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"domino/internal/interp"
	"domino/internal/ir"
	"domino/internal/pvsm"
	"domino/internal/token"
)

// vprog is a codelet and the configuration synthesized for it, lowered once
// into one flat program over one register file: checking a vector is a
// straight run through code and a few register compares, with no
// allocation. Every register but the variables' is written by exactly one
// instruction, so operands, constants and state reads are plain aliases.
type vprog struct {
	code []vinstr
	regs []int32
	// names and vars list the verification variables in draw order (owned
	// state, then input fields, each sorted) with the register each is
	// drawn into. A field named like a state variable shares its register;
	// drawn second, its value is the one both see.
	names []string
	vars  []int
	cmps  []vcmp
}

type vop uint8

const (
	vBin  vop = iota // regs[dst] = fn(regs[a], regs[b])
	vSel             // regs[dst] = regs[c] != 0 ? regs[a] : regs[b]
	vMove            // regs[dst] = regs[a]
	vJz              // if regs[c] == 0 { goto dst }
	vJmp             // goto dst
)

type vinstr struct {
	op           vop
	dst, a, b, c int
	fn           func(a, b int32) int32
}

// vcmp is one compared output: the register the atom's expression lands in
// and the one the codelet's statements leave it in.
type vcmp struct {
	what      string // "state x" or "field f"
	got, want int
}

// check runs the program on the values in the variable registers and
// returns the first output on which atom and codelet disagree, or -1.
func (p *vprog) check() int {
	r := p.regs
	for pc := 0; pc < len(p.code); pc++ {
		switch in := &p.code[pc]; in.op {
		case vBin:
			r[in.dst] = in.fn(r[in.a], r[in.b])
		case vSel:
			if r[in.c] != 0 {
				r[in.dst] = r[in.a]
			} else {
				r[in.dst] = r[in.b]
			}
		case vMove:
			r[in.dst] = r[in.a]
		case vJz:
			if r[in.c] == 0 {
				pc = in.dst - 1
			}
		case vJmp:
			pc = in.dst - 1
		}
	}
	for i, c := range p.cmps {
		if r[c.got] != r[c.want] {
			return i
		}
	}
	return -1
}

// counterexample words the mismatch check found on output i.
func (p *vprog) counterexample(i int) error {
	assign := map[string]int32{}
	for j, name := range p.names {
		assign[name] = p.regs[p.vars[j]]
	}
	c := p.cmps[i]
	return fmt.Errorf("%s: atom=%d codelet=%d under %v", c.what, p.regs[c.got], p.regs[c.want], assign)
}

// lowering builds a vprog. A name that nothing defines reads as zero, as a
// missing map key did.
type lowering struct {
	p      *vprog
	consts map[int32]int
	states map[string]int // state variable → register of its old value
	fields map[string]int // input field → register
	err    error
}

func (l *lowering) reg() int {
	l.p.regs = append(l.p.regs, 0)
	return len(l.p.regs) - 1
}

func (l *lowering) constant(v int32) int {
	r, ok := l.consts[v]
	if !ok {
		r = l.reg()
		l.p.regs[r] = v
		l.consts[v] = r
	}
	return r
}

func (l *lowering) lookup(m map[string]int, name string) int {
	if r, ok := m[name]; ok {
		return r
	}
	return l.constant(0)
}

func (l *lowering) emit(in vinstr) int {
	l.p.code = append(l.p.code, in)
	return len(l.p.code) - 1
}

func (l *lowering) bin(op token.Kind, a, b int) int {
	fn, ok := interp.BinFunc(op)
	if !ok && l.err == nil {
		l.err = fmt.Errorf("interp: invalid binary operator %s", op)
	}
	dst := l.reg()
	l.emit(vinstr{op: vBin, dst: dst, a: a, b: b, fn: fn})
	return dst
}

// expr lowers a synthesized expression and returns the register its value
// lands in. Only the taken arm of a conditional runs.
func (l *lowering) expr(e expr) int {
	switch x := e.(type) {
	case eConst:
		return l.constant(x.v)
	case eField:
		return l.lookup(l.fields, x.name)
	case eState:
		return l.lookup(l.states, x.name)
	case *eBin:
		return l.bin(x.op, l.expr(x.a), l.expr(x.b))
	case *eCond:
		dst := l.reg()
		jz := l.emit(vinstr{op: vJz, c: l.expr(x.c)})
		l.emit(vinstr{op: vMove, dst: dst, a: l.expr(x.a)})
		jmp := l.emit(vinstr{op: vJmp})
		l.p.code[jz].dst = len(l.p.code)
		l.emit(vinstr{op: vMove, dst: dst, a: l.expr(x.b)})
		l.p.code[jmp].dst = len(l.p.code)
		return dst
	}
	if l.err == nil {
		l.err = fmt.Errorf("synth: unknown expr %T", e)
	}
	return l.constant(0)
}

// lower compiles the codelet's statements and the summary's expressions
// into one program whose compares are the new value of every owned state
// variable, then every defined packet field, each in name order.
func lower(c *pvsm.Codelet, sum *summary) (*vprog, error) {
	l := &lowering{p: &vprog{}, consts: map[int32]int{}, states: map[string]int{}, fields: map[string]int{}}
	p := l.p
	p.names = append(p.names, c.StateVars...)
	sort.Strings(p.names)
	// cur and defs follow each state variable's and each packet field's
	// value through the codelet's statements.
	cur, defs := map[string]int{}, map[string]int{}
	for _, s := range p.names {
		l.states[s] = l.reg()
		cur[s] = l.states[s]
		p.vars = append(p.vars, l.states[s])
	}
	for _, f := range c.Reads() {
		r, shared := l.states[f]
		if !shared {
			r = l.reg()
		}
		l.fields[f] = r
		p.names = append(p.names, f)
		p.vars = append(p.vars, r)
	}

	get := func(o ir.Operand) int {
		if o.IsConst() {
			return l.constant(o.Value)
		}
		if r, ok := defs[o.Name]; ok {
			return r
		}
		return l.lookup(l.fields, o.Name)
	}
	for _, s := range c.Stmts {
		switch x := s.(type) {
		case *ir.Move:
			defs[x.Dst] = get(x.Src)
		case *ir.BinOp:
			defs[x.Dst] = l.bin(x.Op, get(x.A), get(x.B))
		case *ir.CondMove:
			dst := l.reg()
			l.emit(vinstr{op: vSel, dst: dst, c: get(x.Cond), a: get(x.A), b: get(x.B)})
			defs[x.Dst] = dst
		case *ir.ReadState:
			defs[x.Dst] = l.lookup(cur, x.State)
		case *ir.WriteState:
			cur[x.State] = get(x.Src)
		default:
			return nil, fmt.Errorf("synth: unexpected statement %T", s)
		}
	}

	for _, sv := range sortedKeys(sum.states) {
		p.cmps = append(p.cmps, vcmp{what: "state " + sv, got: l.expr(sum.states[sv]), want: l.lookup(cur, sv)})
	}
	for _, f := range sortedKeys(sum.defs) {
		p.cmps = append(p.cmps, vcmp{what: "field " + f, got: l.expr(sum.defs[f]), want: l.lookup(defs, f)})
	}
	return p, l.err
}

func sortedKeys(m map[string]expr) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verify replays the codelet and the synthesized expressions on an
// exhaustive small-domain grid plus random wide-domain vectors, comparing
// new state values and every defined packet field. It returns the number of
// vectors checked.
func verify(c *pvsm.Codelet, sum *summary, opts Options) (int, error) {
	p, err := lower(c, sum)
	if err != nil {
		return 0, err
	}
	small := []int32{-31, -2, -1, 0, 1, 2, 5, 31}
	rng := rand.New(rand.NewSource(opts.Seed + 1))

	// Exhaustive grid while it stays small — vector v is v written in base
	// len(small), the first variable the fastest digit — else as many
	// sampled grid points; then the wide draws, all from the one stream.
	grid, exhaustive := 1, len(p.vars) > 0
	for range p.vars {
		if grid > 32768/len(small) {
			exhaustive = false
			break
		}
		grid *= len(small)
	}
	if !exhaustive {
		grid = 32768
	}
	for v := 0; v < grid+opts.VerifyVectors; v++ {
		digits := v
		for _, r := range p.vars {
			switch {
			case v >= grid:
				p.regs[r] = int32(rng.Uint32())
			case exhaustive:
				p.regs[r] = small[digits%len(small)]
				digits /= len(small)
			default:
				p.regs[r] = small[rng.Intn(len(small))]
			}
		}
		if i := p.check(); i >= 0 {
			return v, p.counterexample(i)
		}
	}
	return grid + opts.VerifyVectors, nil
}
