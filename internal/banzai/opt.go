package banzai

// The build-time program optimizer. It runs between codegen.Program and
// closure lowering, once per machine build — the per-packet path never
// sees it. Domino's compiler is free to rewrite a transaction arbitrarily
// before pipelining (paper §4), but the lowering keeps every SSA version
// and PHI-style copy codegen emits; this pass removes what nothing can
// observe:
//
//  1. Constant folding and propagation: a binary op whose operands are
//     build-time constants becomes a constant move; the constant then
//     propagates into later operands, turning conditional moves with a
//     constant condition into plain moves, and so on to a fixed point
//     (the single forward pass reaches it because the IR is SSA and in
//     definition-before-use order). Folding follows the target's own
//     arithmetic: on lookup-table targets, non-power-of-two division
//     folds through intrinsics.LUTDiv, exactly as the closure compiler
//     would evaluate it per packet.
//  2. Copy coalescing: an SSA version-to-version move pkt.x = pkt.y only
//     renames a value, so later reads of x are rewritten to read y
//     directly. Rewrites respect the stage-fusion invariant — a read is
//     redirected to y only where y's defining atom is visible (an input,
//     an earlier stage, or the reading atom itself), so the optimizer
//     never manufactures a same-stage cross-atom dependency that the
//     hardware model's parallel atoms could not honor.
//  3. Dead-code elimination: a backward liveness pass whose roots are the
//     observable outputs — the final SSA version of every output field
//     (all declared fields by default; narrowed by Options.OutputFields
//     for single-result programs such as rank transactions) — plus every
//     state write. Statements whose destination nothing live reads are
//     dropped; state reads and intrinsic calls are pure and drop like any
//     other op.
//  4. Layout compaction: the surviving fields are renumbered densely, so
//     Header shrinks and every layout consumer — Encode/Output, the
//     header pool, workload slab carving, the pifo layout bridge —
//     operates on the compacted slot assignment automatically.
//
// Compacted-layout contract: a declared packet field keeps its input slot
// exactly when its input value is observable — the program reads it, or
// the field is never assigned and so departs unchanged as its own final
// version. A declared field the program overwrites without ever reading
// carries no observable input; its input slot is dropped, Layout.Encode
// ignores it, and a Guard.EvalH over it reads zero (the documented
// missing-field behavior). Trace generators and guards therefore keep
// working unchanged on compacted layouts for every field whose value
// could ever matter.
//
// The invariant, enforced by the opt_test.go property tests and the
// differential suite: optimization never changes observable outputs
// (Layout.Output over the retained output fields), final state, or —
// through the pifo rank engines — ranks and departure order
// (TestOptimizerDifferentialFuzz, FuzzOptimizerDifferential and
// TestOptimizerDifferentialCorpus against the interpreter;
// TestDifferentialExecutionPaths against the DisableOptimizer machine;
// pifo's TestSchedulerOptimizerDifferential for departure order). Pipeline
// depth never changes (TestOptimizerPreservesDepth). WrittenSlots and
// MustZeroSlots — what a scratch-header reuser must clear, empty for SSA
// programs — are pinned by TestOptimizerSlotAnalysis.

import (
	"fmt"
	"sort"

	"domino/internal/codegen"
	"domino/internal/interp"
	"domino/internal/intrinsics"
	"domino/internal/ir"
	"domino/internal/token"
)

// Options configures machine (and layout) construction.
type Options struct {
	// DisableOptimizer lowers the codegen program as-is: full layout,
	// every SSA version slotted, every op compiled. The differential
	// tests build one machine each way and require bit-identical
	// behavior; it is also the honest baseline for ablation benchmarks.
	DisableOptimizer bool

	// OutputFields narrows the liveness roots to the departing values of
	// the named declared packet fields. nil (the default) keeps every
	// declared field's final version observable, so Layout.Output is
	// loss-free. A non-nil list makes only those outputs (plus all state
	// effects) observable: everything feeding only other outputs is
	// eliminated and Layout.Output reports the retained fields only —
	// the contract rank engines use, which read exactly one output
	// field. Unknown field names are a build error.
	OutputFields []string
}

// OptStats reports what the optimizer did to one program, for benchmarks
// and the paper-eval report. Before-numbers describe the unoptimized
// lowering (what DisableOptimizer would build).
type OptStats struct {
	// Stages is the pipeline depth; the optimizer never changes it (a
	// shorter pipeline would change Tick-mode departure timing).
	Stages int
	// AtomsBefore/AtomsAfter count configured atoms; an atom whose every
	// op is dead disappears.
	AtomsBefore, AtomsAfter int
	// OpsBefore/OpsAfter count micro-ops across the pipeline.
	OpsBefore, OpsAfter int
	// SlotsBefore/SlotsAfter count header slots (the Header width).
	SlotsBefore, SlotsAfter int
	// Folded counts statements reduced to constant moves, Propagated the
	// operand reads replaced by build-time constants, Coalesced the
	// operand reads redirected past a copy, Dead the statements removed.
	Folded, Propagated, Coalesced, Dead int
}

// optAtom is one atom's surviving statements.
type optAtom struct {
	stmts []ir.Stmt
}

// optProgram is the optimizer's result: the statements to lower, the live
// field set (for layout compaction) and the before/after accounting. A
// Layout carries the optProgram it was built from, so machines sharing
// the layout (shards) compile the same optimized statements.
type optProgram struct {
	prog     *codegen.Program
	identity bool // DisableOptimizer: keep every field and statement
	stages   [][]optAtom
	live     map[string]bool
	stats    OptStats
}

// fieldKept reports whether a packet field keeps a header slot.
func (o *optProgram) fieldKept(f string) bool {
	return o.identity || o.live[f]
}

// site locates a statement for the copy-coalescing visibility rule.
type site struct {
	stage, atom int
}

// optimize runs the passes over a compiled program. It never mutates the
// program (which other machines may share); rewritten statements are
// fresh values.
func optimize(p *codegen.Program, opts Options) (*optProgram, error) {
	o := &optProgram{prog: p, live: map[string]bool{}}
	o.stats.Stages = len(p.Stages)
	for _, st := range p.Stages {
		o.stats.AtomsBefore += len(st)
		for _, a := range st {
			o.stats.OpsBefore += len(a.Codelet.Stmts)
		}
	}
	o.stats.SlotsBefore = fullSlotCount(p)

	roots, err := rootFinals(p, opts)
	if err != nil {
		return nil, err
	}

	if opts.DisableOptimizer {
		o.identity = true
		for _, st := range p.Stages {
			row := make([]optAtom, len(st))
			for i, a := range st {
				row[i] = optAtom{stmts: a.Codelet.Stmts}
			}
			o.stages = append(o.stages, row)
		}
		o.stats.AtomsAfter = o.stats.AtomsBefore
		o.stats.OpsAfter = o.stats.OpsBefore
		return o, nil
	}

	// Flatten to execution order (stage, then atom, then statement),
	// tagging each statement with its site.
	type tagged struct {
		s    ir.Stmt
		at   site
		keep bool
	}
	var flat []tagged
	for si, st := range p.Stages {
		for ai, a := range st {
			for _, s := range a.Codelet.Stmts {
				flat = append(flat, tagged{s: s, at: site{si, ai}})
			}
		}
	}

	// Pass 1+2: forward constant propagation and copy coalescing.
	consts := map[string]int32{}  // fields with a build-time-known value
	copyOf := map[string]string{} // move destinations → their source field
	def := map[string]site{}      // defining site of every written field
	lut := p.Target.LookupTables

	// subst rewrites one operand read at site rd: known constants become
	// immediates; reads through rename chains are redirected to the
	// earliest copy source whose definition is visible at rd.
	subst := func(op ir.Operand, rd site) ir.Operand {
		if op.IsConst() {
			return op
		}
		if v, ok := consts[op.Name]; ok {
			o.stats.Propagated++
			return ir.C(v)
		}
		best := op.Name
		for g, ok := copyOf[best]; ok; g, ok = copyOf[g] {
			d, defined := def[g]
			if defined && d.stage == rd.stage && d.atom != rd.atom {
				// Visible only as a same-stage cross-atom read, which
				// the stage-fusion invariant forbids us to introduce.
				break
			}
			_ = defined // inputs (no def site) are always visible
			best = g
		}
		if best != op.Name {
			o.stats.Coalesced++
			return ir.F(best)
		}
		return op
	}
	substIdx := func(idx *ir.Operand, rd site) *ir.Operand {
		if idx == nil {
			return nil
		}
		v := subst(*idx, rd)
		return &v
	}

	for i := range flat {
		t := &flat[i]
		rd := t.at
		switch x := t.s.(type) {
		case *ir.Move:
			src := subst(x.Src, rd)
			t.s = &ir.Move{Dst: x.Dst, Src: src}
			def[x.Dst] = rd
			if src.IsConst() {
				consts[x.Dst] = src.Value
			} else {
				copyOf[x.Dst] = src.Name
			}
		case *ir.BinOp:
			a, b := subst(x.A, rd), subst(x.B, rd)
			def[x.Dst] = rd
			if a.IsConst() && b.IsConst() {
				if v, ok := foldBin(x.Op, a.Value, b.Value, lut); ok {
					t.s = &ir.Move{Dst: x.Dst, Src: ir.C(v)}
					consts[x.Dst] = v
					o.stats.Folded++
					continue
				}
			}
			t.s = &ir.BinOp{Dst: x.Dst, Op: x.Op, A: a, B: b}
		case *ir.CondMove:
			cond, a, b := subst(x.Cond, rd), subst(x.A, rd), subst(x.B, rd)
			def[x.Dst] = rd
			var src ir.Operand
			folded := true
			switch {
			case cond.IsConst() && cond.Value != 0:
				src = a
			case cond.IsConst():
				src = b
			case a.IsConst() && b.IsConst() && a.Value == b.Value:
				src = a // both arms agree: the condition is irrelevant
			case a.IsField() && b.IsField() && a.Name == b.Name:
				src = a
			default:
				folded = false
			}
			if folded {
				t.s = &ir.Move{Dst: x.Dst, Src: src}
				o.stats.Folded++
				if src.IsConst() {
					consts[x.Dst] = src.Value
				} else {
					copyOf[x.Dst] = src.Name
				}
				continue
			}
			t.s = &ir.CondMove{Dst: x.Dst, Cond: cond, A: a, B: b}
		case *ir.Call:
			args := make([]ir.Operand, len(x.Args))
			for j, a := range x.Args {
				args[j] = subst(a, rd)
			}
			c := &ir.Call{Dst: x.Dst, Fun: x.Fun, Args: args, Op: x.Op}
			if x.Op != token.Illegal {
				c.B = subst(x.B, rd)
			}
			t.s = c
			def[x.Dst] = rd
		case *ir.ReadState:
			t.s = &ir.ReadState{Dst: x.Dst, State: x.State, Index: substIdx(x.Index, rd)}
			def[x.Dst] = rd
		case *ir.WriteState:
			t.s = &ir.WriteState{State: x.State, Index: substIdx(x.Index, rd), Src: subst(x.Src, rd)}
		default:
			return nil, fmt.Errorf("banzai: optimizer: unknown statement %T", t.s)
		}
	}

	// Pass 3: backward liveness. Roots are the output finals and every
	// state write; one backward sweep suffices because definitions
	// precede uses in execution order.
	for _, fv := range roots {
		o.live[fv] = true
	}
	for i := len(flat) - 1; i >= 0; i-- {
		t := &flat[i]
		w := t.s.Writes()
		if !ir.IsStateVar(w) && !o.live[fieldName(w)] {
			o.stats.Dead++
			continue
		}
		t.keep = true
		for _, r := range t.s.Reads() {
			if !ir.IsStateVar(r) {
				o.live[fieldName(r)] = true
			}
		}
	}

	// Rebuild the stage/atom structure from the survivors. Stage count is
	// preserved (Tick-mode timing is observable); empty atoms vanish.
	idx := 0
	for _, st := range p.Stages {
		var row []optAtom
		for _, a := range st {
			var kept []ir.Stmt
			for range a.Codelet.Stmts {
				if flat[idx].keep {
					kept = append(kept, flat[idx].s)
				}
				idx++
			}
			if len(kept) > 0 {
				row = append(row, optAtom{stmts: kept})
				o.stats.AtomsAfter++
				o.stats.OpsAfter += len(kept)
			}
		}
		o.stages = append(o.stages, row)
	}
	return o, nil
}

// rootFinals resolves the liveness roots to final SSA versions: every
// declared field's final by default, or the named subset.
func rootFinals(p *codegen.Program, opts Options) ([]string, error) {
	if opts.OutputFields == nil {
		roots := make([]string, 0, len(p.IR.FinalVersion))
		for _, fv := range p.IR.FinalVersion {
			roots = append(roots, fv)
		}
		return roots, nil
	}
	var roots []string
	for _, f := range opts.OutputFields {
		fv, ok := p.IR.FinalVersion[f]
		if !ok {
			return nil, fmt.Errorf("banzai: output field %q is not a packet field of the program", f)
		}
		roots = append(roots, fv)
	}
	return roots, nil
}

// foldBin evaluates op on two constants with the target's arithmetic: on
// lookup-table targets non-power-of-two division folds through the LUT
// approximation (matching lutDivClosure's build-time fold); everything
// else folds through interp's shared operator table, the same closures
// the compiled ops would run.
func foldBin(op token.Kind, a, b int32, lut bool) (int32, bool) {
	if op == token.Slash && lut && !(b > 0 && b&(b-1) == 0) {
		return intrinsics.LUTDiv(a, b), true
	}
	f, ok := interp.BinFunc(op)
	if !ok {
		return 0, false
	}
	return f(a, b), true
}

// fieldName strips the "pkt." prefix of a Reads/Writes variable ID.
func fieldName(v string) string { return v[len("pkt."):] }

// fullSlotCount reproduces the unoptimized layout's width: declared
// fields, IR temporaries, final versions.
func fullSlotCount(p *codegen.Program) int {
	seen := map[string]bool{}
	for _, f := range p.Info.Fields {
		seen[f] = true
	}
	for _, f := range p.IR.Fields {
		seen[f] = true
	}
	for _, fv := range p.IR.FinalVersion {
		seen[fv] = true
	}
	return len(seen)
}

// newLayoutFromOpt computes the (possibly compacted) slot assignment for
// an optimized program: surviving declared fields first (so inputs keep
// slots), then surviving IR temporaries, then final versions — the same
// deterministic order the unoptimized layout uses, filtered.
func newLayoutFromOpt(o *optProgram) *Layout {
	p := o.prog
	l := &Layout{fieldSlot: map[string]int{}, opt: o}
	for _, f := range p.Info.Fields {
		if o.fieldKept(f) {
			l.slotOf(f)
		}
	}
	for _, f := range p.IR.Fields {
		if o.fieldKept(f) {
			l.slotOf(f)
		}
	}
	origs := make([]string, 0, len(p.IR.FinalVersion))
	for orig := range p.IR.FinalVersion {
		origs = append(origs, orig)
	}
	sort.Strings(origs)
	for _, orig := range origs {
		fv := p.IR.FinalVersion[orig]
		if o.fieldKept(fv) {
			l.finals = append(l.finals, finalPair{field: orig, slot: l.slotOf(fv)})
		}
	}
	o.stats.SlotsAfter = l.NumSlots()
	return l
}
