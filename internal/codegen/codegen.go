// Package codegen is the Domino compiler's back end (paper §4.3): it takes
// the codelet pipeline produced by pvsm and a Banzai target's computational
// and resource limits, and either produces a fully configured atom pipeline
// or rejects the program. The model is all-or-nothing — a compiled program
// is guaranteed to run at the target's line rate; there is no degraded mode.
package codegen

import (
	"fmt"
	"strings"
	"sync"

	"domino/internal/atoms"
	"domino/internal/ir"
	"domino/internal/pvsm"
	"domino/internal/sema"
	"domino/internal/synth"
)

// Target describes a Banzai machine: one stateful atom kind (plus the
// stateless atom) and the pipeline resource limits of paper §5.2.
type Target struct {
	// Name identifies the target; default targets are named after their
	// stateful atom.
	Name string
	// StatefulAtom is the target's stateful atom kind.
	StatefulAtom atoms.Kind
	// PipelineDepth is the number of stages (32 in §5.2).
	PipelineDepth int
	// StatefulPerStage and StatelessPerStage bound the atoms in one stage
	// (10 and 300 in §5.2).
	StatefulPerStage  int
	StatelessPerStage int
	// LookupTables equips each stage with a lookup-table unit that
	// approximates mathematical functions (sqrt, division) the ALU lacks —
	// the extension paper §5.3 sketches as future work. With it, CoDel
	// compiles; its control law then runs on table approximations.
	LookupTables bool
}

func (t Target) String() string { return t.Name }

// DefaultDepth, DefaultStateful and DefaultStateless are the §5.2
// provisioning: 32 stages, 10 stateful and 300 stateless atoms per stage.
const (
	DefaultDepth     = 32
	DefaultStateful  = 10
	DefaultStateless = 300
)

// NewTarget builds a target with the §5.2 resource limits.
func NewTarget(k atoms.Kind) Target {
	return Target{
		Name:              k.String(),
		StatefulAtom:      k,
		PipelineDepth:     DefaultDepth,
		StatefulPerStage:  DefaultStateful,
		StatelessPerStage: DefaultStateless,
	}
}

// Targets returns the seven default compiler targets, one per stateful atom
// in the containment hierarchy (paper Table 3).
func Targets() []Target {
	var ts []Target
	for _, k := range atoms.StatefulHierarchy {
		ts = append(ts, NewTarget(k))
	}
	return ts
}

// Atom is one configured processing unit of the compiled pipeline.
type Atom struct {
	// Codelet is the code block the atom implements.
	Codelet *pvsm.Codelet
	// Kind is the least expressive atom kind that implements the codelet
	// (the target's atom contains it).
	Kind atoms.Kind
	// Config is the verified template configuration.
	Config *synth.Config
}

func (a *Atom) String() string {
	return fmt.Sprintf("[%s] %s", a.Kind, a.Codelet)
}

// Program is a compiled Domino program: an atom pipeline for a specific
// Banzai target.
type Program struct {
	Target Target
	// Stages is the atom pipeline after resource-limit spreading.
	Stages [][]*Atom
	// IR is the normalized three-address code.
	IR *ir.Program
	// Info is the front end's symbol information.
	Info *sema.Info
	// LeastAtom is the most demanding stateful atom kind any codelet needs
	// (Stateless if the program keeps no state).
	LeastAtom atoms.Kind
}

// NumStages returns the pipeline depth in use.
func (p *Program) NumStages() int { return len(p.Stages) }

// MaxAtomsPerStage returns the widest stage's atom count.
func (p *Program) MaxAtomsPerStage() int {
	max := 0
	for _, st := range p.Stages {
		if len(st) > max {
			max = len(st)
		}
	}
	return max
}

// Describe renders the atom pipeline, one stage per block.
func (p *Program) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "target %s: %d stages, max %d atoms/stage, least atom %s\n",
		p.Target, p.NumStages(), p.MaxAtomsPerStage(), p.LeastAtom)
	for i, st := range p.Stages {
		fmt.Fprintf(&b, "Stage %d:\n", i+1)
		for _, a := range st {
			fmt.Fprintf(&b, "  %s\n", a)
		}
	}
	return b.String()
}

// Error is a compilation rejection: the program cannot run at line rate on
// the target.
type Error struct {
	Target Target
	Stage  int // 1-based stage of the offending codelet, 0 if global
	Reason string
}

func (e *Error) Error() string {
	if e.Stage > 0 {
		return fmt.Sprintf("cannot run at line rate on target %s: stage %d: %s", e.Target.Name, e.Stage, e.Reason)
	}
	return fmt.Sprintf("cannot run at line rate on target %s: %s", e.Target.Name, e.Reason)
}

// mapped is what Compile derives from an IR program alone and every target
// the program is compiled for shares: the codelet pipeline, the escaping
// fields, and each codelet's mapping — or the reason it has none — worked
// out when the first target reaches the codelet.
type mapped struct {
	pl       *pvsm.Pipeline
	err      error // pvsm.Build's
	escaping map[string]bool
	codelets map[*pvsm.Codelet]*mapping
}

// mapping is one codelet's synth.MapCodelet outcome, one variant per
// Target.LookupTables value.
type mapping struct {
	once [2]sync.Once
	res  [2]*synth.Result
	err  [2]error
}

func mappedOf(irProg *ir.Program) *mapped {
	return irProg.Derived(func() any {
		m := &mapped{codelets: map[*pvsm.Codelet]*mapping{}}
		if m.pl, m.err = pvsm.Build(irProg); m.err != nil {
			return m
		}
		m.escaping = escapingFields(m.pl, irProg)
		for _, st := range m.pl.Stages {
			for _, c := range st {
				m.codelets[c] = &mapping{}
			}
		}
		return m
	}).(*mapped)
}

func (m *mapped) mapCodelet(c *pvsm.Codelet, lut bool) (*synth.Result, error) {
	mp, v := m.codelets[c], 0
	if lut {
		v = 1
	}
	mp.once[v].Do(func() {
		mp.res[v], mp.err[v] = synth.MapCodelet(c, synth.Options{
			Escaping: func(f string) bool { return m.escaping[f] },
			AllowLUT: lut,
		})
	})
	return mp.res[v], mp.err[v]
}

// Compile maps a codelet pipeline onto a target. It applies the resource-
// limit pass (width spreading, depth rejection) and the computational-limit
// pass (codelet→atom mapping through the synthesizer), returning the
// configured atom pipeline or a rejection. What does not depend on the
// target is computed once per irProg, so compiling one IR object for target
// after target (LeastTarget) maps each codelet once; a target still stops
// at the first codelet it cannot run. irProg must not change after its
// first Compile. Safe for concurrent use on one irProg.
func Compile(info *sema.Info, irProg *ir.Program, target Target) (*Program, error) {
	m := mappedOf(irProg)
	if m.err != nil {
		return nil, m.err
	}

	// Resource limits: spread overfull stages (§4.3).
	stages := spread(m.pl.Stages, target)
	if len(stages) > target.PipelineDepth {
		return nil, &Error{Target: target, Reason: fmt.Sprintf(
			"needs %d pipeline stages; the target provides %d", len(stages), target.PipelineDepth)}
	}

	// Computational limits: every codelet must map to an atom the target
	// provides.
	prog := &Program{Target: target, IR: irProg, Info: info, LeastAtom: atoms.Stateless}
	for si, st := range stages {
		var row []*Atom
		for _, c := range st {
			res, err := m.mapCodelet(c, target.LookupTables)
			if err != nil {
				return nil, &Error{Target: target, Stage: si + 1, Reason: err.Error()}
			}
			k := res.Config.Atom
			if k.IsStateful() {
				if !target.StatefulAtom.Contains(k) {
					return nil, &Error{Target: target, Stage: si + 1, Reason: fmt.Sprintf(
						"codelet {%s} needs the %s atom; target provides %s", c, k, target.StatefulAtom)}
				}
				if !prog.LeastAtom.IsStateful() || prog.LeastAtom < k {
					prog.LeastAtom = k
				}
			}
			row = append(row, &Atom{Codelet: c, Kind: k, Config: res.Config})
		}
		prog.Stages = append(prog.Stages, row)
	}
	return prog, nil
}

// spread enforces per-stage width limits by splitting overfull stages into
// consecutive stages, filling each greedily (paper §4.3: "insert as many new
// stages as required and spread codelets evenly"). Codelets within a stage
// are mutually independent and their consumers sit strictly later, so
// pushing a codelet into a following stage cannot violate a dependency.
func spread(stages [][]*pvsm.Codelet, t Target) [][]*pvsm.Codelet {
	var out [][]*pvsm.Codelet
	for _, st := range stages {
		var cur []*pvsm.Codelet
		stateful, stateless := 0, 0
		flush := func() {
			if len(cur) > 0 {
				out = append(out, cur)
				cur, stateful, stateless = nil, 0, 0
			}
		}
		for _, c := range st {
			if c.Stateful() {
				if stateful == t.StatefulPerStage {
					flush()
				}
				stateful++
			} else {
				if stateless == t.StatelessPerStage {
					flush()
				}
				stateless++
			}
			cur = append(cur, c)
		}
		flush()
	}
	return out
}

// escapingFields computes which packet fields are consumed outside their
// defining codelet: read by another codelet or carried out of the pipeline
// as the final version of a packet field.
func escapingFields(pl *pvsm.Pipeline, irProg *ir.Program) map[string]bool {
	defIn := map[string]*pvsm.Codelet{}
	for _, st := range pl.Stages {
		for _, c := range st {
			for _, s := range c.Stmts {
				if w := s.Writes(); !ir.IsStateVar(w) {
					defIn[w[len("pkt."):]] = c
				}
			}
		}
	}
	esc := map[string]bool{}
	for _, st := range pl.Stages {
		for _, c := range st {
			for _, s := range c.Stmts {
				for _, r := range s.Reads() {
					if ir.IsStateVar(r) {
						continue
					}
					f := r[len("pkt."):]
					if defIn[f] != nil && defIn[f] != c {
						esc[f] = true
					}
				}
			}
		}
	}
	for _, v := range irProg.FinalVersion {
		esc[v] = true
	}
	return esc
}

// LeastTarget compiles the program against the hierarchy bottom-up and
// returns the first (least expressive) target that accepts it, with the
// compiled program. ok is false if no target accepts — the algorithm cannot
// run at line rate on any default Banzai machine (paper Table 4's "Doesn't
// map").
func LeastTarget(info *sema.Info, irProg *ir.Program) (*Program, bool, error) {
	var lastErr error
	for _, t := range Targets() {
		p, err := Compile(info, irProg, t)
		if err == nil {
			return p, true, nil
		}
		lastErr = err
	}
	return nil, false, lastErr
}
