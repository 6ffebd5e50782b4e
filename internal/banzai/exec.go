package banzai

import (
	"fmt"
	"math/bits"

	"domino/internal/interp"
	"domino/internal/intrinsics"
	"domino/internal/token"
)

// This file is the machine-build-time micro-op compiler: it lowers each
// atom's mops to a flat program of specialized closures (threaded code),
// resolving at build time every decision the interpreting executor used to
// make per packet:
//
//   - the op-kind dispatch (one closure per mop, no switch),
//   - the operator dispatch inside interp.EvalBinary (one closure per
//     operator, captured from interp's shared operator table, with the hot
//     operators specialized inline),
//   - the const-vs-slot operand branches (a distinct closure per shape),
//   - intrinsic resolution (function pointers via intrinsics.Resolve, no
//     map lookup or name matching per packet),
//   - division by a power-of-two constant (a bias-corrected arithmetic
//     shift instead of a divide or table lookup), and
//   - state-array index wrapping (an & mask when the array size is a power
//     of two, the general mask() otherwise).
//
// The atoms of one stage are then fused into a single flat op program.
// Fusion is sound because same-stage atoms execute in parallel on disjoint
// state and never write a packet slot another same-stage atom reads (a
// same-stage read-after-write would be a dependency edge, which the
// scheduler resolves by stage separation — or an SCC, which lands both ops
// in one atom); the pre-fusion executor already ran them back-to-back.
//
// Operator semantics have one source: interp.BinFunc's table, which the
// interpreter, the guards, the optimizer's folder and these closures all
// capture, so every path agrees bit for bit
// (TestBinClosureMatchesEvalBinary sweeps every operator, operand shape
// and edge value). Division by a constant that is not a power of two uses
// a multiply-shift reciprocal (TestMagicDivMod); on lookup-table targets
// it goes through intrinsics.LUTDiv instead (TestBinClosureLUTDivision,
// TestCoDelLUTBehaviour, TestLUTSqrtInPipeline). Index wrapping is pinned
// by TestStateArrayIndexWrap and TestConstIndexStateClosures — it is also
// what lets a scrambled state array misroute but never crash. Same-cell
// read-op-write triples fuse into one superinstruction (fuseRMW); like
// stage fusion, that is covered by TestDifferentialExecutionPaths.

// execOp is one specialized micro-operation of the threaded-code engine: a
// closure over pre-resolved slots, immediates, state cells and function
// pointers, mutating the packet in place.
type execOp func(p []int32)

// stageProg is the fused flat op program of one pipeline stage.
type stageProg []execOp

// run executes the stage program on one packet.
func (sp stageProg) run(p []int32) {
	for _, f := range sp {
		f(p)
	}
}

// fuseStage lowers every atom of a stage and concatenates the resulting
// closures into one flat program. Within an atom it peephole-fuses the
// stateful read-modify-write idiom into superinstructions (see fuseRMW),
// so e.g. a ReadAddWrite atom is one closure computing its array index
// once, not three closures masking it three times.
func (m *Machine) fuseStage(row []*atom) (stageProg, error) {
	var prog stageProg
	for _, a := range row {
		for i := 0; i < len(a.ops); {
			if f, n, err := m.fuseRMW(a.ops, i); err != nil {
				return nil, err
			} else if n > 0 {
				prog = append(prog, f)
				i += n
				continue
			}
			f, err := m.compileMop(&a.ops[i])
			if err != nil {
				return nil, err
			}
			prog = append(prog, f)
			i++
		}
	}
	return prog, nil
}

// fuseRMW recognizes the read-modify-write shapes the stateful atoms
// compile to — "read cell; write cell" and "read cell; stateless op; write
// cell" with identical index operands — and fuses each into one
// superinstruction that computes the state index once. n is how many mops
// were consumed (0: no fusion applies at i).
//
// Fusion preserves sequential semantics: the read's destination and the
// middle op's destination must not be the index slot (else the write would
// see a different index), checked by rmwSafe; the middle op touches no
// state by construction (stateless kinds only); and the write's source is
// read after the middle op runs, exactly as in the unfused sequence.
func (m *Machine) fuseRMW(ops []mop, i int) (execOp, int, error) {
	rd := &ops[i]
	if rd.kind != opRead {
		return nil, 0, nil
	}
	if i+1 < len(ops) && ops[i+1].kind == opWrite && fusableRW(rd, &ops[i+1]) && rmwSafe(rd, rd.dst) {
		return fusedRMW(rd, nil, &ops[i+1]), 2, nil
	}
	if i+2 < len(ops) && statelessKind(ops[i+1].kind) && ops[i+2].kind == opWrite &&
		fusableRW(rd, &ops[i+2]) && rmwSafe(rd, rd.dst) && rmwSafe(rd, ops[i+1].dst) {
		if f := fusedRMWValue(rd, &ops[i+1], &ops[i+2]); f != nil {
			return f, 3, nil
		}
		mid, err := m.compileMop(&ops[i+1])
		if err != nil {
			return nil, 0, err
		}
		return fusedRMW(rd, mid, &ops[i+2]), 3, nil
	}
	return nil, 0, nil
}

// fusedRMWValue fuses the read-modify-write triples whose middle op
// consumes the read's value and produces the written value — the stateful
// atom bodies themselves (RAW's v+const / v±slot, PRAW's replace-or-keep
// conditional). The read value then flows through a register: the middle
// never reloads it from the packet and the write never reloads the result.
// Returns nil when the middle doesn't match, falling back to fusedRMW.
func fusedRMWValue(rd, mid, wr *mop) execOp {
	if wr.a.isConst || mid.dst != wr.a.slot {
		return nil
	}
	r := rd.dst
	// midv computes the written value from the read value v; it reads only
	// operands other than v from the packet.
	var midv func(p []int32, v int32) int32
	switch mid.kind {
	case opBin:
		if mid.a.isConst || mid.a.slot != r {
			return nil
		}
		switch {
		case mid.op == token.Plus && mid.b.isConst:
			// Fully inline below: the counter-increment fast path.
		case mid.op == token.Plus:
			bs := mid.b.slot
			midv = func(p []int32, v int32) int32 { return v + p[bs] }
		case mid.op == token.Minus && mid.b.isConst:
			cb := mid.b.imm
			midv = func(p []int32, v int32) int32 { return v - cb }
		case mid.op == token.Minus:
			bs := mid.b.slot
			midv = func(p []int32, v int32) int32 { return v - p[bs] }
		default:
			return nil
		}
	case opCond:
		if mid.c.isConst || mid.a.isConst || mid.b.isConst {
			return nil
		}
		cs := mid.c.slot
		switch {
		case mid.b.slot == r: // w = cond ? x : v
			xs := mid.a.slot
			midv = func(p []int32, v int32) int32 {
				if p[cs] != 0 {
					return p[xs]
				}
				return v
			}
		case mid.a.slot == r: // w = cond ? v : y
			ys := mid.b.slot
			midv = func(p []int32, v int32) int32 {
				if p[cs] != 0 {
					return v
				}
				return p[ys]
			}
		default:
			return nil
		}
	default:
		return nil
	}
	d := mid.dst
	c := rd.cell
	if midv == nil {
		// v + const, the RAW counter increment: one straight-line closure
		// per index mode, no inner call at all.
		cb := mid.b.imm
		if !rd.indexed {
			return func(p []int32) {
				v := c.scalar
				p[r] = v
				w := v + cb
				p[d] = w
				c.scalar = w
			}
		}
		arr := c.arr
		n := len(arr)
		if rd.c.isConst {
			j := mask(rd.c.imm, n)
			return func(p []int32) {
				v := arr[j]
				p[r] = v
				w := v + cb
				p[d] = w
				arr[j] = w
			}
		}
		ci := rd.c.slot
		if n&(n-1) == 0 {
			mk := uint32(n - 1)
			return func(p []int32) {
				j := uint32(p[ci]) & mk
				v := arr[j]
				p[r] = v
				w := v + cb
				p[d] = w
				arr[j] = w
			}
		}
		return func(p []int32) {
			j := mask(p[ci], n)
			v := arr[j]
			p[r] = v
			w := v + cb
			p[d] = w
			arr[j] = w
		}
	}
	if !rd.indexed {
		return func(p []int32) {
			v := c.scalar
			p[r] = v
			w := midv(p, v)
			p[d] = w
			c.scalar = w
		}
	}
	arr := c.arr
	n := len(arr)
	if rd.c.isConst {
		j := mask(rd.c.imm, n)
		return func(p []int32) {
			v := arr[j]
			p[r] = v
			w := midv(p, v)
			p[d] = w
			arr[j] = w
		}
	}
	ci := rd.c.slot
	if n&(n-1) == 0 {
		mk := uint32(n - 1)
		return func(p []int32) {
			j := uint32(p[ci]) & mk
			v := arr[j]
			p[r] = v
			w := midv(p, v)
			p[d] = w
			arr[j] = w
		}
	}
	return func(p []int32) {
		j := mask(p[ci], n)
		v := arr[j]
		p[r] = v
		w := midv(p, v)
		p[d] = w
		arr[j] = w
	}
}

// statelessKind reports whether a mop kind touches only packet slots (and
// private scratch), making it safe to sandwich inside a fused RMW.
func statelessKind(k opKind) bool {
	return k == opMove || k == opBin || k == opCond || k == opCall
}

// fusableRW reports whether a read and a write address the same cell at
// the same index and the write stores a slot (constant stores don't occur
// in RMW shapes and are not worth a variant).
func fusableRW(rd, wr *mop) bool {
	if rd.cell != wr.cell || rd.indexed != wr.indexed || wr.a.isConst {
		return false
	}
	if !rd.indexed {
		return true
	}
	if len(rd.cell.arr) == 0 {
		return false // degenerate; the unfused path reports it
	}
	if rd.c.isConst != wr.c.isConst {
		return false
	}
	if rd.c.isConst {
		return rd.c.imm == wr.c.imm
	}
	return rd.c.slot == wr.c.slot
}

// rmwSafe reports whether writing packet slot dst cannot change the fused
// instruction's state index.
func rmwSafe(rd *mop, dst int) bool {
	return !rd.indexed || rd.c.isConst || dst != rd.c.slot
}

// fusedRMW builds the superinstruction: read the cell into the read's
// destination slot, run the middle op if any, store the write's source
// slot back to the same cell location. The index is computed exactly once.
func fusedRMW(rd *mop, mid execOp, wr *mop) execOp {
	c := rd.cell
	r := rd.dst
	s := wr.a.slot
	if !rd.indexed {
		if mid == nil {
			return func(p []int32) { p[r] = c.scalar; c.scalar = p[s] }
		}
		return func(p []int32) { p[r] = c.scalar; mid(p); c.scalar = p[s] }
	}
	arr := c.arr
	n := len(arr)
	if rd.c.isConst {
		j := mask(rd.c.imm, n)
		if mid == nil {
			return func(p []int32) { p[r] = arr[j]; arr[j] = p[s] }
		}
		return func(p []int32) { p[r] = arr[j]; mid(p); arr[j] = p[s] }
	}
	ci := rd.c.slot
	if n&(n-1) == 0 {
		mk := uint32(n - 1)
		if mid == nil {
			return func(p []int32) {
				j := uint32(p[ci]) & mk
				p[r] = arr[j]
				arr[j] = p[s]
			}
		}
		return func(p []int32) {
			j := uint32(p[ci]) & mk
			p[r] = arr[j]
			mid(p)
			arr[j] = p[s]
		}
	}
	if mid == nil {
		return func(p []int32) {
			j := mask(p[ci], n)
			p[r] = arr[j]
			arr[j] = p[s]
		}
	}
	return func(p []int32) {
		j := mask(p[ci], n)
		p[r] = arr[j]
		mid(p)
		arr[j] = p[s]
	}
}

// compileMop lowers one micro-op to its specialized closure.
func (m *Machine) compileMop(op *mop) (execOp, error) {
	lut := m.prog.Target.LookupTables
	switch op.kind {
	case opMove:
		return moveClosure(op.dst, op.a), nil
	case opBin:
		return binClosure(op.op, op.dst, op.a, op.b, lut)
	case opCond:
		return condClosure(op.dst, op.a, op.b, op.c), nil
	case opCall:
		return callClosure(op, lut)
	case opRead:
		return readClosure(op)
	case opWrite:
		return writeClosure(op)
	}
	return nil, fmt.Errorf("banzai: unknown op kind %d", op.kind)
}

func moveClosure(dst int, a operand) execOp {
	if a.isConst {
		v := a.imm
		return func(p []int32) { p[dst] = v }
	}
	src := a.slot
	return func(p []int32) { p[dst] = p[src] }
}

// binClosure specializes a binary op per operator and operand shape. The
// semantics are exactly interp.EvalBinary's, except that on lookup-table
// targets division by a non-power-of-two runs on intrinsics.LUTDiv — the
// same rule the pre-closure executor applied per packet.
func binClosure(op token.Kind, dst int, a, b operand, lut bool) (execOp, error) {
	if op == token.Slash && isPow2Const(b) {
		return divPow2Closure(dst, a, b.imm), nil
	}
	if op == token.Slash && lut {
		return lutDivClosure(dst, a, b), nil
	}
	if op == token.Percent && isPow2Const(b) {
		return modPow2Closure(dst, a, b.imm), nil
	}
	// Division/modulo by any other positive constant runs on a build-time
	// multiply-shift reciprocal instead of a hardware divide.
	if op == token.Slash && b.isConst && b.imm > 0 {
		return divConstClosure(dst, a, b.imm), nil
	}
	if op == token.Percent && b.isConst && b.imm > 0 {
		return modConstClosure(dst, a, b.imm), nil
	}
	f, ok := interp.BinFunc(op)
	if !ok {
		return nil, fmt.Errorf("banzai: invalid binary operator %s", op)
	}
	if a.isConst && b.isConst {
		// Both operands constant: fold at build time.
		v := f(a.imm, b.imm)
		return func(p []int32) { p[dst] = v }, nil
	}
	as, bs := a.slot, b.slot
	ca, cb := a.imm, b.imm
	switch op {
	case token.Plus:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = ca + p[bs] }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = p[as] + cb }, nil
		default:
			return func(p []int32) { p[dst] = p[as] + p[bs] }, nil
		}
	case token.Minus:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = ca - p[bs] }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = p[as] - cb }, nil
		default:
			return func(p []int32) { p[dst] = p[as] - p[bs] }, nil
		}
	case token.Star:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = ca * p[bs] }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = p[as] * cb }, nil
		default:
			return func(p []int32) { p[dst] = p[as] * p[bs] }, nil
		}
	case token.And:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = ca & p[bs] }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = p[as] & cb }, nil
		default:
			return func(p []int32) { p[dst] = p[as] & p[bs] }, nil
		}
	case token.Or:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = ca | p[bs] }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = p[as] | cb }, nil
		default:
			return func(p []int32) { p[dst] = p[as] | p[bs] }, nil
		}
	case token.Xor:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = ca ^ p[bs] }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = p[as] ^ cb }, nil
		default:
			return func(p []int32) { p[dst] = p[as] ^ p[bs] }, nil
		}
	case token.Shl:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = ca << (uint32(p[bs]) & 31) }, nil
		case b.isConst:
			sh := uint32(cb) & 31
			return func(p []int32) { p[dst] = p[as] << sh }, nil
		default:
			return func(p []int32) { p[dst] = p[as] << (uint32(p[bs]) & 31) }, nil
		}
	case token.Shr:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = ca >> (uint32(p[bs]) & 31) }, nil
		case b.isConst:
			sh := uint32(cb) & 31
			return func(p []int32) { p[dst] = p[as] >> sh }, nil
		default:
			return func(p []int32) { p[dst] = p[as] >> (uint32(p[bs]) & 31) }, nil
		}
	case token.Eq:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = b2i(ca == p[bs]) }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = b2i(p[as] == cb) }, nil
		default:
			return func(p []int32) { p[dst] = b2i(p[as] == p[bs]) }, nil
		}
	case token.Neq:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = b2i(ca != p[bs]) }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = b2i(p[as] != cb) }, nil
		default:
			return func(p []int32) { p[dst] = b2i(p[as] != p[bs]) }, nil
		}
	case token.Lt:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = b2i(ca < p[bs]) }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = b2i(p[as] < cb) }, nil
		default:
			return func(p []int32) { p[dst] = b2i(p[as] < p[bs]) }, nil
		}
	case token.Gt:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = b2i(ca > p[bs]) }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = b2i(p[as] > cb) }, nil
		default:
			return func(p []int32) { p[dst] = b2i(p[as] > p[bs]) }, nil
		}
	case token.Leq:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = b2i(ca <= p[bs]) }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = b2i(p[as] <= cb) }, nil
		default:
			return func(p []int32) { p[dst] = b2i(p[as] <= p[bs]) }, nil
		}
	case token.Geq:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = b2i(ca >= p[bs]) }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = b2i(p[as] >= cb) }, nil
		default:
			return func(p []int32) { p[dst] = b2i(p[as] >= p[bs]) }, nil
		}
	case token.LAnd:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = b2i(ca != 0 && p[bs] != 0) }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = b2i(p[as] != 0 && cb != 0) }, nil
		default:
			return func(p []int32) { p[dst] = b2i(p[as] != 0 && p[bs] != 0) }, nil
		}
	case token.LOr:
		switch {
		case a.isConst:
			return func(p []int32) { p[dst] = b2i(ca != 0 || p[bs] != 0) }, nil
		case b.isConst:
			return func(p []int32) { p[dst] = b2i(p[as] != 0 || cb != 0) }, nil
		default:
			return func(p []int32) { p[dst] = b2i(p[as] != 0 || p[bs] != 0) }, nil
		}
	}
	// Any remaining operator (none today) runs through the shared table
	// closure — still no per-packet switch.
	return func(p []int32) { p[dst] = f(a.value(p), b.value(p)) }, nil
}

// magic is a build-time multiply-shift reciprocal for division by a fixed
// positive constant (Granlund–Montgomery round-up method): with
// l = ceil(log2(d)) and m = floor(2^(31+l)/d)+1, floor(v/d) equals
// (v*m) >> (31+l) for every 0 <= v < 2^31. Signed values divide by
// magnitude with the sign reapplied (C truncation); the one magnitude that
// doesn't fit, -2^31, takes the hardware divide.
type magic struct {
	d int32
	m uint64
	s uint
}

func newMagic(d int32) magic {
	l := uint(bits.Len32(uint32(d - 1)))
	return magic{d: d, m: (1<<(31+l))/uint64(d) + 1, s: 31 + l}
}

func (mg magic) div(v int32) int32 {
	if v == -1<<31 {
		return v / mg.d
	}
	neg := v < 0
	if neg {
		v = -v
	}
	q := int32((uint64(v) * mg.m) >> mg.s)
	if neg {
		return -q
	}
	return q
}

func (mg magic) mod(v int32) int32 { return v - mg.div(v)*mg.d }

// umod is mod for values known to be non-negative (intrinsic results):
// the reciprocal applies directly, no sign handling.
func (mg magic) umod(v int32) int32 {
	q := int32((uint64(v) * mg.m) >> mg.s)
	return v - q*mg.d
}

// divPow2Closure lowers division by a positive power-of-two constant to a
// bias-corrected arithmetic shift: (a + ((a>>31) & (d-1))) >> log2(d),
// which truncates toward zero for every int32 a, exactly like C division.
func divPow2Closure(dst int, a operand, d int32) execOp {
	if a.isConst {
		v, _ := interp.EvalBinary(token.Slash, a.imm, d)
		return func(p []int32) { p[dst] = v }
	}
	as := a.slot
	if d == 1 {
		return func(p []int32) { p[dst] = p[as] }
	}
	shift := uint(bits.TrailingZeros32(uint32(d)))
	bias := d - 1
	return func(p []int32) {
		x := p[as]
		p[dst] = (x + ((x >> 31) & bias)) >> shift
	}
}

// modPow2Closure lowers modulo by a positive power-of-two constant to
// masking with the same sign correction C's truncated %: the bias shifts a
// negative dividend into the mask's range and back out again.
func modPow2Closure(dst int, a operand, d int32) execOp {
	if a.isConst {
		v, _ := interp.EvalBinary(token.Percent, a.imm, d)
		return func(p []int32) { p[dst] = v }
	}
	as := a.slot
	m := d - 1
	return func(p []int32) {
		x := p[as]
		bias := (x >> 31) & m
		p[dst] = ((x + bias) & m) - bias
	}
}

// divConstClosure divides by an arbitrary positive constant via the
// multiply-shift reciprocal; semantics are exactly EvalBinary's.
func divConstClosure(dst int, a operand, d int32) execOp {
	if a.isConst {
		v, _ := interp.EvalBinary(token.Slash, a.imm, d)
		return func(p []int32) { p[dst] = v }
	}
	mg := newMagic(d)
	as := a.slot
	return func(p []int32) { p[dst] = mg.div(p[as]) }
}

// modConstClosure is the companion modulo: v - (v/d)*d, truncated like C.
func modConstClosure(dst int, a operand, d int32) execOp {
	if a.isConst {
		v, _ := interp.EvalBinary(token.Percent, a.imm, d)
		return func(p []int32) { p[dst] = v }
	}
	mg := newMagic(d)
	as := a.slot
	return func(p []int32) { p[dst] = mg.mod(p[as]) }
}

// lutDivClosure is general division on a lookup-table target: the
// reciprocal-table approximation, specialized per operand shape.
func lutDivClosure(dst int, a, b operand) execOp {
	switch {
	case a.isConst && b.isConst:
		v := intrinsics.LUTDiv(a.imm, b.imm)
		return func(p []int32) { p[dst] = v }
	case a.isConst:
		ca, bs := a.imm, b.slot
		return func(p []int32) { p[dst] = intrinsics.LUTDiv(ca, p[bs]) }
	case b.isConst:
		as, cb := a.slot, b.imm
		return func(p []int32) { p[dst] = intrinsics.LUTDiv(p[as], cb) }
	default:
		as, bs := a.slot, b.slot
		return func(p []int32) { p[dst] = intrinsics.LUTDiv(p[as], p[bs]) }
	}
}

func condClosure(dst int, a, b, c operand) execOp {
	if c.isConst {
		// Constant condition: the conditional move is a plain move.
		if c.imm != 0 {
			return moveClosure(dst, a)
		}
		return moveClosure(dst, b)
	}
	cs := c.slot
	switch {
	case a.isConst && b.isConst:
		ca, cb := a.imm, b.imm
		return func(p []int32) {
			if p[cs] != 0 {
				p[dst] = ca
			} else {
				p[dst] = cb
			}
		}
	case a.isConst:
		ca, bs := a.imm, b.slot
		return func(p []int32) {
			if p[cs] != 0 {
				p[dst] = ca
			} else {
				p[dst] = p[bs]
			}
		}
	case b.isConst:
		as, cb := a.slot, b.imm
		return func(p []int32) {
			if p[cs] != 0 {
				p[dst] = p[as]
			} else {
				p[dst] = cb
			}
		}
	default:
		as, bs := a.slot, b.slot
		return func(p []int32) {
			if p[cs] != 0 {
				p[dst] = p[as]
			} else {
				p[dst] = p[bs]
			}
		}
	}
}

// callClosure pre-resolves the intrinsic to a function pointer, pre-fills
// constant arguments into the mop's scratch vector, and specializes the
// folded trailing binary op (e.g. hash2(...) % 8000) per operand shape.
func callClosure(op *mop, lut bool) (execOp, error) {
	var fn func(args []int32) int32
	if lut && op.fun == "sqrt" {
		// The lookup-table unit approximates sqrt (§5.3 extension).
		fn = func(args []int32) int32 { return intrinsics.LUTSqrt(args[0]) }
	} else {
		var err error
		fn, err = intrinsics.Resolve(op.fun)
		if err != nil {
			return nil, fmt.Errorf("banzai: %v", err)
		}
	}

	// Constant arguments are written into the scratch vector once, here;
	// only slot arguments are loaded per packet.
	type slotArg struct{ i, slot int }
	argv := op.argv
	var loads []slotArg
	for i, ar := range op.args {
		if ar.isConst {
			argv[i] = ar.imm
		} else {
			loads = append(loads, slotArg{i, ar.slot})
		}
	}
	var call func(p []int32) int32
	if sig, ok := intrinsics.Lookup(op.fun); ok && intrinsics.IsHash(op.fun) &&
		sig.Args == len(op.args) && len(loads) == len(op.args) && len(loads) <= 3 {
		// Hash of packet fields — the hottest intrinsic shape. Feed the
		// slots straight to the hash unit, skipping the scratch vector,
		// and fold a trailing "% const" modulus into the same closure
		// (hash results are non-negative, so a power-of-two modulus is a
		// plain mask and the reciprocal needs no sign handling).
		salt := uint32(sig.Args)
		dst := op.dst
		if op.op == token.Percent && op.b.isConst && op.b.imm > 0 {
			if isPow2Const(op.b) {
				mk := op.b.imm - 1
				switch len(loads) {
				case 1:
					s0 := loads[0].slot
					return func(p []int32) { p[dst] = intrinsics.Hash1(salt, p[s0]) & mk }, nil
				case 2:
					s0, s1 := loads[0].slot, loads[1].slot
					return func(p []int32) { p[dst] = intrinsics.Hash2(salt, p[s0], p[s1]) & mk }, nil
				case 3:
					s0, s1, s2 := loads[0].slot, loads[1].slot, loads[2].slot
					return func(p []int32) { p[dst] = intrinsics.Hash3(salt, p[s0], p[s1], p[s2]) & mk }, nil
				}
			}
			mg := newMagic(op.b.imm)
			switch len(loads) {
			case 1:
				s0 := loads[0].slot
				return func(p []int32) { p[dst] = mg.umod(intrinsics.Hash1(salt, p[s0])) }, nil
			case 2:
				s0, s1 := loads[0].slot, loads[1].slot
				return func(p []int32) { p[dst] = mg.umod(intrinsics.Hash2(salt, p[s0], p[s1])) }, nil
			case 3:
				s0, s1, s2 := loads[0].slot, loads[1].slot, loads[2].slot
				return func(p []int32) { p[dst] = mg.umod(intrinsics.Hash3(salt, p[s0], p[s1], p[s2])) }, nil
			}
		}
		if op.op == token.Illegal {
			switch len(loads) {
			case 1:
				s0 := loads[0].slot
				return func(p []int32) { p[dst] = intrinsics.Hash1(salt, p[s0]) }, nil
			case 2:
				s0, s1 := loads[0].slot, loads[1].slot
				return func(p []int32) { p[dst] = intrinsics.Hash2(salt, p[s0], p[s1]) }, nil
			case 3:
				s0, s1, s2 := loads[0].slot, loads[1].slot, loads[2].slot
				return func(p []int32) { p[dst] = intrinsics.Hash3(salt, p[s0], p[s1], p[s2]) }, nil
			}
		}
		// Other folded shapes: direct hash feeding the generic finisher.
		switch len(loads) {
		case 1:
			s0 := loads[0].slot
			call = func(p []int32) int32 { return intrinsics.Hash1(salt, p[s0]) }
		case 2:
			s0, s1 := loads[0].slot, loads[1].slot
			call = func(p []int32) int32 { return intrinsics.Hash2(salt, p[s0], p[s1]) }
		case 3:
			s0, s1, s2 := loads[0].slot, loads[1].slot, loads[2].slot
			call = func(p []int32) int32 { return intrinsics.Hash3(salt, p[s0], p[s1], p[s2]) }
		}
		return callFinish(op, call)
	}
	switch {
	case len(loads) == 1:
		i0, s0 := loads[0].i, loads[0].slot
		call = func(p []int32) int32 { argv[i0] = p[s0]; return fn(argv) }
	case len(loads) == 2:
		i0, s0 := loads[0].i, loads[0].slot
		i1, s1 := loads[1].i, loads[1].slot
		call = func(p []int32) int32 { argv[i0] = p[s0]; argv[i1] = p[s1]; return fn(argv) }
	case len(loads) == 3:
		i0, s0 := loads[0].i, loads[0].slot
		i1, s1 := loads[1].i, loads[1].slot
		i2, s2 := loads[2].i, loads[2].slot
		call = func(p []int32) int32 {
			argv[i0] = p[s0]
			argv[i1] = p[s1]
			argv[i2] = p[s2]
			return fn(argv)
		}
	default:
		call = func(p []int32) int32 {
			for _, l := range loads {
				argv[l.i] = p[l.slot]
			}
			return fn(argv)
		}
	}
	return callFinish(op, call)
}

// callFinish appends the folded trailing binary op (e.g. hash2(...) % 8000)
// to a compiled call, specialized per operand shape.
func callFinish(op *mop, call func(p []int32) int32) (execOp, error) {
	dst := op.dst
	if op.op == token.Illegal {
		return func(p []int32) { p[dst] = call(p) }, nil
	}
	// The hottest shape by far is hashN(...) % const: lower a power-of-two
	// modulus like modPow2Closure, any other positive constant to the
	// multiply-shift reciprocal.
	if op.op == token.Percent && isPow2Const(op.b) {
		m := op.b.imm - 1
		return func(p []int32) {
			v := call(p)
			bias := (v >> 31) & m
			p[dst] = ((v + bias) & m) - bias
		}, nil
	}
	if op.op == token.Percent && op.b.isConst && op.b.imm > 0 {
		mg := newMagic(op.b.imm)
		return func(p []int32) { p[dst] = mg.mod(call(p)) }, nil
	}
	g, ok := interp.BinFunc(op.op)
	if !ok {
		return nil, fmt.Errorf("banzai: invalid folded operator %s", op.op)
	}
	if op.b.isConst {
		cb := op.b.imm
		return func(p []int32) { p[dst] = g(call(p), cb) }, nil
	}
	bs := op.b.slot
	return func(p []int32) { p[dst] = g(call(p), p[bs]) }, nil
}

// readClosure specializes a state read: scalar loads are direct, array
// loads use an & mask when the array size is a power of two and the
// general Euclidean mask() otherwise. For power-of-two n the two agree on
// every int32 index, including negatives, because n divides 2^32.
func readClosure(op *mop) (execOp, error) {
	c := op.cell
	dst := op.dst
	if !op.indexed {
		return func(p []int32) { p[dst] = c.scalar }, nil
	}
	arr := c.arr
	n := len(arr)
	if n == 0 {
		return nil, fmt.Errorf("banzai: state array %s has size 0", c.name)
	}
	if op.c.isConst {
		j := mask(op.c.imm, n)
		return func(p []int32) { p[dst] = arr[j] }, nil
	}
	is := op.c.slot
	if n&(n-1) == 0 {
		m := uint32(n - 1)
		return func(p []int32) { p[dst] = arr[uint32(p[is])&m] }, nil
	}
	return func(p []int32) { p[dst] = arr[mask(p[is], n)] }, nil
}

// writeClosure specializes a state write symmetrically to readClosure.
func writeClosure(op *mop) (execOp, error) {
	c := op.cell
	if !op.indexed {
		if op.a.isConst {
			v := op.a.imm
			return func(p []int32) { c.scalar = v }, nil
		}
		src := op.a.slot
		return func(p []int32) { c.scalar = p[src] }, nil
	}
	arr := c.arr
	n := len(arr)
	if n == 0 {
		return nil, fmt.Errorf("banzai: state array %s has size 0", c.name)
	}
	if op.c.isConst {
		j := mask(op.c.imm, n)
		if op.a.isConst {
			v := op.a.imm
			return func(p []int32) { arr[j] = v }, nil
		}
		src := op.a.slot
		return func(p []int32) { arr[j] = p[src] }, nil
	}
	is := op.c.slot
	if n&(n-1) == 0 {
		m := uint32(n - 1)
		if op.a.isConst {
			v := op.a.imm
			return func(p []int32) { arr[uint32(p[is])&m] = v }, nil
		}
		src := op.a.slot
		return func(p []int32) { arr[uint32(p[is])&m] = p[src] }, nil
	}
	if op.a.isConst {
		v := op.a.imm
		return func(p []int32) { arr[mask(p[is], n)] = v }, nil
	}
	src := op.a.slot
	return func(p []int32) { arr[mask(p[is], n)] = p[src] }, nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// slotAnalysis scans the compiled micro-ops in execution order (stage,
// then atom, then op) and reports which header slots the program writes,
// and which of those it reads before first writing — the set a caller
// must zero between runs when reusing one header as scratch. For SSA
// input (definitions before uses) mustZero comes out empty: original
// packet fields are never written, and every temporary is written before
// it is read.
func slotAnalysis(stages [][]*atom, width int) (written, mustZero []int) {
	wr := make([]bool, width)
	early := make([]bool, width) // read before any write
	read := func(o operand) {
		if !o.isConst && !wr[o.slot] {
			early[o.slot] = true
		}
	}
	for _, row := range stages {
		for _, a := range row {
			for i := range a.ops {
				op := &a.ops[i]
				switch op.kind {
				case opMove:
					read(op.a)
				case opBin:
					read(op.a)
					read(op.b)
				case opCond:
					read(op.a)
					read(op.b)
					read(op.c)
				case opCall:
					for _, ar := range op.args {
						read(ar)
					}
					if op.op != token.Illegal {
						read(op.b)
					}
				case opRead:
					if op.indexed {
						read(op.c)
					}
				case opWrite:
					read(op.a)
					if op.indexed {
						read(op.c)
					}
				}
				if op.kind != opWrite {
					wr[op.dst] = true
				}
			}
		}
	}
	for s := 0; s < width; s++ {
		if wr[s] {
			written = append(written, s)
			if early[s] {
				mustZero = append(mustZero, s)
			}
		}
	}
	return written, mustZero
}
