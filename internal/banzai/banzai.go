// Package banzai is a cycle-accurate simulator for the Banzai machine model
// (paper §2): a pipeline of stages executing synchronously, one packet per
// clock cycle per stage, each stage holding a vector of atoms that run in
// parallel, and all state local to the atom that owns it.
//
// The simulator executes compiled Domino programs and is the vehicle for
// the transaction-semantics guarantee: for any input packet sequence, the
// pipeline's outputs and final state are identical to running the original
// transaction serially, one packet at a time (verified by the test suite,
// including the property tests in banzai_test.go).
//
// The data path is allocation-free: packets travel as slot-vector Headers
// (see header.go) drawn from a per-machine free list, and the compiled
// micro-ops carry preallocated scratch, so the steady-state header path
// (TickH/ProcessH/ProcessBatch) performs no heap allocation per packet.
// The map-based Tick/Process API remains as a thin codec wrapper for
// callers that want interp.Packet in and out.
//
// Execution is threaded code: at machine build time every atom is lowered
// to specialized closures and each stage's atoms are fused into one flat
// op program (see exec.go), so the per-packet path makes no dispatch
// decisions at all — no op-kind switch, no operator switch, no const/slot
// branches, no intrinsic name lookups.
//
// Contracts, each with the tests that enforce it (exec.go, opt.go and
// sharded.go state theirs where the code is):
//
//   - One semantics, every path: the interpreter, Process, ProcessH,
//     ProcessBatch, ProcessBatchStageMajor, the unoptimized machine
//     (Options.DisableOptimizer) and a 4-shard ShardedMachine agree bit
//     for bit on outputs and final state (TestDifferentialExecutionPaths,
//     TestTransactionSemantics, TestFuzzCompilerEquivalence); the map
//     wrappers equal the header path (TestTickHMatchesTick,
//     TestProcessMatchesTick).
//   - Pooling: each Machine owns a single-caller free list. AcquireHeader
//     hands out a zeroed header; TickH takes ownership of its input and
//     hands the departing header to its caller, who releases it; ProcessH
//     and both ProcessBatch orders mutate caller-owned headers and take no
//     ownership. Only pool- or NewHeader-allocated headers go back into a
//     pool — a header carved from a trace slab stays with its trace (see
//     ReleaseHeader). A header is valid only for the Layout it was sized
//     by (TestHeaderPoolReuse, TestLiveHeaders; TestHeaderPathsZeroAlloc
//     holds TickH, ProcessH and ProcessBatch to 0 allocations).
//   - Control plane: nothing is looked up by name per step. StateRef
//     resolves a state variable to its cell once; ResetState and
//     ScrambleState mutate cells in place, so a handle lives as long as
//     its machine; PokeState/PeekState are the by-name wrappers over the
//     same code (TestStateRef, TestPokePeekState,
//     TestResetStateRestoresDeclaredInits,
//     TestScrambleStateDeterministicAndSurvivable).
package banzai

import (
	"errors"
	"fmt"

	"domino/internal/codegen"
	"domino/internal/interp"
	"domino/internal/ir"
	"domino/internal/token"
)

// opKind discriminates compiled micro-operations.
type opKind uint8

const (
	opMove opKind = iota
	opBin
	opCond
	opCall
	opRead
	opWrite
)

// operand is a compiled operand: a packet slot or an immediate.
type operand struct {
	slot    int
	imm     int32
	isConst bool
}

func (o operand) value(p []int32) int32 {
	if o.isConst {
		return o.imm
	}
	return p[o.slot]
}

// cell is atom-local state storage: one scalar or one array. init is the
// declared initial value ResetState restores.
type cell struct {
	name    string
	isArray bool
	scalar  int32
	arr     []int32
	init    int32
}

// mop is a compiled micro-operation of an atom.
type mop struct {
	kind    opKind
	dst     int
	op      token.Kind
	a, b, c operand // c is the condition (opCond) or array index (opRead/opWrite)
	fun     string
	args    []operand
	argv    []int32 // preallocated opCall scratch, sized to args at compile time
	cell    *cell
	indexed bool
}

// atom is a configured processing unit: its micro-ops plus local state.
type atom struct {
	ops   []mop
	cells []*cell
}

// Machine is an instantiated Banzai pipeline.
type Machine struct {
	prog   *codegen.Program
	stages [][]*atom
	// progs[i] is stage i's fused threaded-code program — the execution
	// engine behind TickH and the stage-major batch path; stages keeps
	// the mop form for state aggregation and inspection. flat is every
	// stage's program concatenated, which is what ProcessH/ProcessBatch
	// run: whole-pipeline execution applies the stages back-to-back to
	// one header anyway, so one flat closure walk replaces the
	// stage-loop dispatch.
	progs  []stageProg
	flat   stageProg
	layout *Layout
	pool   headerPool

	// optStats records what the build-time optimizer did; written and
	// mustZero are the slot analyses scratch-header reusers (the pifo
	// rank engines) key off (see slotAnalysis in exec.go).
	optStats OptStats
	written  []int
	mustZero []int

	// pipe holds the in-flight packet of each stage (nil bubble) as a ring:
	// the packet resident in stage i lives at pipe[(head+i)%depth], so a
	// pipeline advance is a head rotation, not an O(depth) slice shift.
	// inflight counts the resident packets, so the whole-pipeline paths'
	// busy check is a compare, not a scan.
	pipe     []Header
	head     int
	inflight int

	cycles  int64
	packets int64
}

// New instantiates a machine for a compiled program, allocating atom-local
// state initialized from the program's global declarations. The build-time
// optimizer runs first (see opt.go); use NewWith to disable it or narrow
// its liveness roots.
func New(p *codegen.Program) (*Machine, error) {
	return NewWith(p, Options{})
}

// NewWith instantiates a machine under explicit build options.
func NewWith(p *codegen.Program, opts Options) (*Machine, error) {
	l, err := NewLayoutWith(p, opts)
	if err != nil {
		return nil, err
	}
	return NewWithLayout(p, l)
}

// NewWithLayout instantiates a machine that shares an existing layout —
// the layout must have been built for the same program (ShardedMachine
// uses this so every shard agrees on slot numbering). The machine lowers
// the optimized statements the layout was computed from.
func NewWithLayout(p *codegen.Program, l *Layout) (*Machine, error) {
	oprog := l.opt
	if oprog == nil || oprog.prog != p {
		// A layout built for another program (or by hand): recompute the
		// default optimization so statements and slots agree.
		var err error
		if oprog, err = optimize(p, Options{}); err != nil {
			return nil, err
		}
	}
	m := &Machine{
		prog:     p,
		layout:   l,
		pipe:     make([]Header, len(oprog.stages)),
		optStats: oprog.stats,
	}
	compileOperand := func(o ir.Operand) operand {
		if o.IsConst() {
			return operand{imm: o.Value, isConst: true}
		}
		// Every field a surviving statement touches is live and therefore
		// slotted; a miss would be an optimizer bug, not a user error.
		s, ok := l.Slot(o.Name)
		if !ok {
			panic(fmt.Sprintf("banzai: internal: live field %q has no slot", o.Name))
		}
		return operand{slot: s}
	}
	dstSlot := func(name string) int {
		s, ok := l.Slot(name)
		if !ok {
			panic(fmt.Sprintf("banzai: internal: live field %q has no slot", name))
		}
		return s
	}

	for _, st := range oprog.stages {
		var row []*atom
		for _, catom := range st {
			a := &atom{}
			cells := map[string]*cell{}
			cellOf := func(name string) *cell {
				if c, ok := cells[name]; ok {
					return c
				}
				g, ok := p.Info.StateVar(name)
				if !ok {
					return nil
				}
				c := &cell{name: name, isArray: g.IsArray(), init: g.Init}
				if g.IsArray() {
					c.arr = make([]int32, g.Size)
					for i := range c.arr {
						c.arr[i] = g.Init
					}
				} else {
					c.scalar = g.Init
				}
				cells[name] = c
				a.cells = append(a.cells, c)
				return c
			}
			for _, s := range catom.stmts {
				var op mop
				switch x := s.(type) {
				case *ir.Move:
					op = mop{kind: opMove, dst: dstSlot(x.Dst), a: compileOperand(x.Src)}
				case *ir.BinOp:
					op = mop{kind: opBin, dst: dstSlot(x.Dst), op: x.Op,
						a: compileOperand(x.A), b: compileOperand(x.B)}
				case *ir.CondMove:
					op = mop{kind: opCond, dst: dstSlot(x.Dst),
						a: compileOperand(x.A), b: compileOperand(x.B), c: compileOperand(x.Cond)}
				case *ir.Call:
					op = mop{kind: opCall, dst: dstSlot(x.Dst), fun: x.Fun, op: x.Op}
					for _, arg := range x.Args {
						op.args = append(op.args, compileOperand(arg))
					}
					op.argv = make([]int32, len(op.args))
					if x.Op != token.Illegal {
						op.b = compileOperand(x.B)
					}
				case *ir.ReadState:
					c := cellOf(x.State)
					if c == nil {
						return nil, fmt.Errorf("banzai: unknown state %q", x.State)
					}
					op = mop{kind: opRead, dst: dstSlot(x.Dst), cell: c}
					if x.Index != nil {
						op.indexed = true
						op.c = compileOperand(*x.Index)
					}
				case *ir.WriteState:
					c := cellOf(x.State)
					if c == nil {
						return nil, fmt.Errorf("banzai: unknown state %q", x.State)
					}
					op = mop{kind: opWrite, a: compileOperand(x.Src), cell: c}
					if x.Index != nil {
						op.indexed = true
						op.c = compileOperand(*x.Index)
					}
				default:
					return nil, fmt.Errorf("banzai: unknown statement %T", s)
				}
				a.ops = append(a.ops, op)
			}
			row = append(row, a)
		}
		m.stages = append(m.stages, row)
	}
	for _, row := range m.stages {
		prog, err := m.fuseStage(row)
		if err != nil {
			return nil, err
		}
		m.progs = append(m.progs, prog)
		m.flat = append(m.flat, prog...)
	}
	m.pool.width = l.NumSlots()
	m.written, m.mustZero = slotAnalysis(m.stages, l.NumSlots())
	return m, nil
}

// Layout returns the machine's field↔slot mapping, for building headers.
func (m *Machine) Layout() *Layout { return m.layout }

// OptStats reports what the build-time optimizer did to this machine's
// program (before/after atom, op and slot counts).
func (m *Machine) OptStats() OptStats { return m.optStats }

// WrittenSlots returns the sorted header slots the compiled program
// writes. Every other slot passes through the pipeline untouched.
func (m *Machine) WrittenSlots() []int { return m.written }

// MustZeroSlots returns the written slots the program may read before it
// writes them. A caller reusing one header across runs (the pifo rank
// engines' scratch) must zero exactly these between runs to match a
// freshly zeroed header; for SSA-lowered programs, whose definitions
// precede every use, the set is empty and no per-run clearing is needed.
func (m *Machine) MustZeroSlots() []int { return m.mustZero }

// NumSlots returns the packet header vector width (fields incl. temps).
func (m *Machine) NumSlots() int { return m.layout.NumSlots() }

// Depth returns the pipeline depth.
func (m *Machine) Depth() int { return len(m.stages) }

// Cycles returns the clock cycles ticked so far.
func (m *Machine) Cycles() int64 { return m.cycles }

// Packets returns the packets that have entered the pipeline.
func (m *Machine) Packets() int64 { return m.packets }

// isPow2Const reports whether an operand is a positive power-of-two
// constant: those divisions are exact shifts, not table lookups.
func isPow2Const(o operand) bool {
	return o.isConst && o.imm > 0 && o.imm&(o.imm-1) == 0
}

func mask(idx int32, n int) int {
	// Compiled programs almost always pre-reduce the index (hash % size),
	// so the in-range case is the hot one; out-of-range indices wrap
	// Euclidean-style.
	if uint32(idx) < uint32(n) {
		return int(idx)
	}
	i := int(idx) % n
	if i < 0 {
		i += n
	}
	return i
}

// TickH advances the machine one clock cycle on the header fast path. in is
// the header entering stage 1 this cycle (nil for a bubble); ownership of
// in passes to the machine. The returned header is the one leaving the
// pipeline this cycle, if any; ownership passes to the caller, who should
// hand it back via ReleaseHeader once done with it.
//
// Every stage processes its resident packet in parallel this cycle; the
// atoms of a stage run concurrently on disjoint state, so intra-cycle order
// is immaterial.
func (m *Machine) TickH(in Header) (Header, bool) {
	m.cycles++
	depth := len(m.pipe)
	if depth == 0 {
		if in == nil {
			return nil, false
		}
		m.packets++
		return in, true
	}
	slot := m.head
	for i := 0; i < depth; i++ {
		if h := m.pipe[slot]; h != nil {
			m.progs[i].run(h)
		}
		if slot++; slot == depth {
			slot = 0
		}
	}
	// Rotate: the slot that held the departing stage-(depth-1) packet
	// becomes the new stage-0 slot, so every resident moves down one stage
	// without copying.
	last := m.head - 1
	if last < 0 {
		last = depth - 1
	}
	out := m.pipe[last]
	m.pipe[last] = nil
	m.head = last
	if out != nil {
		m.inflight--
	}
	if in != nil {
		m.packets++
		m.inflight++
		m.pipe[m.head] = in
	}
	return out, out != nil
}

// Tick advances the machine one clock cycle. in is the packet entering
// stage 1 this cycle (nil for a bubble); the returned packet is the one
// leaving the pipeline this cycle, if any. This is the map-based wrapper
// over TickH; the codec runs only at the edges.
func (m *Machine) Tick(in interp.Packet) (interp.Packet, bool) {
	var hin Header
	if in != nil {
		hin = m.EncodeHeader(in)
	}
	hout, ok := m.TickH(hin)
	if !ok {
		return nil, false
	}
	out := m.layout.Output(hout)
	m.pool.put(hout)
	return out, true
}

// busy reports whether any stage holds an in-flight packet.
func (m *Machine) busy() bool { return m.inflight != 0 }

// ProcessH pushes one header through every stage back-to-back, mutating it
// in place (the departing field values land in the final-version slots; use
// Layout.Output or Layout.OutputSlot to read them). It must not be
// interleaved with Tick/TickH while packets are in flight (ErrBusy
// otherwise); state effects are identical to ticking the header through
// with bubbles behind it. ProcessH performs no allocation.
func (m *Machine) ProcessH(h Header) error {
	if m.busy() {
		return ErrBusy
	}
	m.packets++
	m.cycles += int64(len(m.stages))
	m.flat.run(h)
	return nil
}

// ProcessBatch runs every header of a batch through the full pipeline, in
// order, each mutated in place. Semantically it equals calling ProcessH per
// header (serial, one packet at a time), but hoists the busy check and the
// accounting out of the per-packet loop.
func (m *Machine) ProcessBatch(hs []Header) error {
	if m.busy() {
		return ErrBusy
	}
	m.packets += int64(len(hs))
	m.cycles += int64(len(m.stages)) * int64(len(hs))
	for _, h := range hs {
		m.flat.run(h)
	}
	return nil
}

// ProcessBatchStageMajor is ProcessBatch with stage-major execution order:
// every header runs through stage s before any header enters stage s+1, so
// one stage's op program and state stay hot while the batch streams by.
// The results are bit-identical to ProcessBatch: state is stage-local, each
// stage sees the batch's headers in the same order either way, and a
// header's stage-s inputs are fully written by its earlier stages before
// stage s runs on it.
func (m *Machine) ProcessBatchStageMajor(hs []Header) error {
	if m.busy() {
		return ErrBusy
	}
	m.packets += int64(len(hs))
	m.cycles += int64(len(m.stages)) * int64(len(hs))
	for _, prog := range m.progs {
		for _, h := range hs {
			prog.run(h)
		}
	}
	return nil
}

// Process pushes a packet through every stage back-to-back and returns the
// transformed packet. It must not be interleaved with Tick while packets
// are in flight (ErrBusy otherwise); state effects are identical to ticking
// the packet through with bubbles behind it.
func (m *Machine) Process(pkt interp.Packet) (interp.Packet, error) {
	h := m.EncodeHeader(pkt)
	if err := m.ProcessH(h); err != nil {
		m.pool.put(h)
		return nil, err
	}
	out := m.layout.Output(h)
	m.pool.put(h)
	return out, nil
}

// ErrBusy reports Process called with packets in flight.
var ErrBusy = errors.New("banzai: pipeline has packets in flight; use Tick")

// Drain ticks bubbles until every in-flight packet has exited, returning
// them in departure order.
func (m *Machine) Drain() []interp.Packet {
	var out []interp.Packet
	for i := 0; i < len(m.pipe); i++ {
		if p, ok := m.Tick(nil); ok {
			out = append(out, p)
		}
	}
	return out
}

// DrainH ticks bubbles until every in-flight header has exited, returning
// them in departure order. Ownership of the returned headers passes to the
// caller (release them when done).
func (m *Machine) DrainH() []Header {
	var out []Header
	for i := 0; i < len(m.pipe); i++ {
		if h, ok := m.TickH(nil); ok {
			out = append(out, h)
		}
	}
	return out
}

// StateRef is a resolved handle to one state variable's atom-local cell:
// the by-name lookup done once, so a harness that pokes a variable every
// step (a queue-depth feed) pays an index check per access, not a scan
// of the pipeline's atoms. ResetState and ScrambleState mutate cells in
// place, so a handle stays valid as long as its machine. The zero
// StateRef refuses every access.
type StateRef struct{ c *cell }

// StateRef resolves a state variable to its cell. It reports false when
// the compiled program never touches the variable: cells exist only for
// state the surviving statements read or write, so state a program
// declares but never uses has nothing to poke.
func (m *Machine) StateRef(name string) (StateRef, bool) {
	for _, row := range m.stages {
		for _, a := range row {
			for _, c := range a.cells {
				if c.name == name {
					return StateRef{c}, true
				}
			}
		}
	}
	return StateRef{}, false
}

// Set overwrites one element of the variable (for scalars index must be
// 0), reporting false and changing nothing when the index is out of
// range or the handle is the zero StateRef.
func (r StateRef) Set(index int, v int32) bool {
	switch c := r.c; {
	case c == nil:
		return false
	case c.isArray:
		if index < 0 || index >= len(c.arr) {
			return false
		}
		c.arr[index] = v
	default:
		if index != 0 {
			return false
		}
		c.scalar = v
	}
	return true
}

// Get reads one element of the variable, with Set's index rules.
func (r StateRef) Get(index int) (int32, bool) {
	switch c := r.c; {
	case c == nil:
		return 0, false
	case c.isArray:
		if index < 0 || index >= len(c.arr) {
			return 0, false
		}
		return c.arr[index], true
	default:
		if index != 0 {
			return 0, false
		}
		return c.scalar, true
	}
}

// PokeState overwrites one element of a state variable from the control
// plane — how a harness makes an out-of-band condition (a failed link, an
// operator override) visible to the data-plane program between packets.
// It is the by-name convenience over StateRef + Set, with their refusals
// (unknown or untouched state, index out of range, nonzero scalar
// index); a caller that pokes every step resolves a StateRef once.
func (m *Machine) PokeState(name string, index int, v int32) bool {
	r, _ := m.StateRef(name)
	return r.Set(index, v)
}

// PeekState reads one element of a state variable from the control plane
// (PokeState's read half: StateRef + Get).
func (m *Machine) PeekState(name string, index int) (int32, bool) {
	r, _ := m.StateRef(name)
	return r.Get(index)
}

// ResetState returns every atom-local cell — scalar and array — to its
// declared initial value, as if the machine had just been built: a
// switch restart that loses all transaction-owned soft state (flowlet
// tables, CONGA path tables) while the program itself survives in NVRAM.
// Control-plane-poked values (port_up, switch_id, queue_depth) are wiped
// too; the harness that poked them must re-poke after a restart, exactly
// as a real controller re-syncs a rebooted switch.
func (m *Machine) ResetState() {
	for _, row := range m.stages {
		for _, a := range row {
			for _, c := range a.cells {
				if c.isArray {
					for i := range c.arr {
						c.arr[i] = c.init
					}
				} else {
					c.scalar = c.init
				}
			}
		}
	}
}

// ScrambleState overwrites every atom-local cell with deterministic
// seeded garbage (a SplitMix64 walk in stage order) — the adversarial
// restart: not a clean wipe but a corrupted one, e.g. state restored
// from a torn checkpoint. The same seed scrambles identically, so chaos
// runs replay byte-for-byte. Programs must tolerate any int32 in their
// state (the compiled array accesses are index-masked and the harness
// bounds-checks everything it reads back), so a scrambled table can
// misroute packets but never crash the pipeline.
func (m *Machine) ScrambleState(seed int64) {
	x := uint64(seed)
	next := func() int32 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int32(z ^ (z >> 31))
	}
	for _, row := range m.stages {
		for _, a := range row {
			for _, c := range a.cells {
				if c.isArray {
					for i := range c.arr {
						c.arr[i] = next()
					}
				} else {
					c.scalar = next()
				}
			}
		}
	}
}

// State aggregates every atom's local state into one view, for inspection
// and equivalence testing. Declared state variables the program never
// touches appear with their initial values.
func (m *Machine) State() *interp.State {
	st := interp.NewState(m.prog.Info)
	for _, row := range m.stages {
		for _, a := range row {
			for _, c := range a.cells {
				if c.isArray {
					arr := make([]int32, len(c.arr))
					copy(arr, c.arr)
					st.Arrays[c.name] = arr
				} else {
					st.Scalars[c.name] = c.scalar
				}
			}
		}
	}
	return st
}
