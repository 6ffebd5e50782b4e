// Package domino is a from-scratch Go implementation of "Packet
// Transactions: High-level Programming for Line-Rate Switches" (Sivaraman
// et al., SIGCOMM 2016): the Domino language, its compiler, and a
// cycle-accurate simulator for the Banzai machine model of programmable
// line-rate switches.
//
// A packet transaction is a sequential block of C-like code that executes
// atomically and in isolation per packet. Compile turns a transaction into
// an atom pipeline for a Banzai target, all-or-nothing: the result is
// guaranteed to run at the target's line rate, or compilation fails.
//
//	prog, err := domino.Compile(src, domino.TargetFor("PRAW"))
//	m, err := prog.NewMachine()
//	out, err := m.Process(domino.Packet{"sport": 10, "dport": 20, "arrival": 1})
//
// The package exposes the compiler (Compile, CompileLeast), the simulator
// (Machine), the reference sequential interpreter (NewInterpreter), the P4
// backend (Program.P4) and the Table 4 algorithm catalog (Catalog).
package domino

import (
	"fmt"

	"domino/internal/algorithms"
	"domino/internal/atoms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/interp"
	"domino/internal/p4gen"
	"domino/internal/parser"
	"domino/internal/passes"
	"domino/internal/pvsm"
	"domino/internal/sema"
)

// Packet is a parsed packet: field name → 32-bit value. Fields not declared
// in the transaction's packet struct are ignored.
type Packet = interp.Packet

// Target identifies a Banzai machine configuration: a stateful atom kind
// plus pipeline resource limits (32 stages, 10 stateful + 300 stateless
// atoms per stage by default, the paper's §5.2 provisioning).
type Target = codegen.Target

// AtomKind identifies an atom template (Write … Pairs, or Stateless).
type AtomKind = atoms.Kind

// Targets returns the seven default compiler targets, one per stateful atom
// of the containment hierarchy, least expressive first.
func Targets() []Target { return codegen.Targets() }

// TargetFor returns the default target whose stateful atom has the given
// name ("Write", "ReadAddWrite", "PRAW", "IfElseRAW", "Sub", "Nested",
// "Pairs").
func TargetFor(name string) (Target, error) {
	for _, t := range codegen.Targets() {
		if t.Name == name {
			return t, nil
		}
	}
	return Target{}, fmt.Errorf("domino: unknown target %q", name)
}

// Program is a compiled packet transaction: an atom pipeline for a specific
// Banzai target.
type Program struct {
	inner *codegen.Program
	norm  *passes.NormResult
}

// Compile compiles Domino source for the given target. It returns an error
// if the program is syntactically or semantically invalid, or if it cannot
// run at the target's line rate (all-or-nothing compilation, §4).
func Compile(src string, target Target) (*Program, error) {
	info, norm, err := codegen.Analyze(src)
	if err != nil {
		return nil, err
	}
	p, err := codegen.Compile(info, norm.IR, target)
	if err != nil {
		return nil, err
	}
	return &Program{inner: p, norm: norm}, nil
}

// CompileLeast compiles against the target hierarchy bottom-up and returns
// the program for the least expressive target that accepts it — the
// "least expressive atom" column of paper Table 4.
func CompileLeast(src string) (*Program, error) {
	info, norm, err := codegen.Analyze(src)
	if err != nil {
		return nil, err
	}
	p, ok, lastErr := codegen.LeastTarget(info, norm.IR)
	if !ok {
		return nil, fmt.Errorf("domino: program cannot run at line rate on any target: %w", lastErr)
	}
	return &Program{inner: p, norm: norm}, nil
}

// Target returns the target the program was compiled for.
func (p *Program) Target() Target { return p.inner.Target }

// NumStages returns the pipeline depth in use.
func (p *Program) NumStages() int { return p.inner.NumStages() }

// MaxAtomsPerStage returns the widest stage's atom count.
func (p *Program) MaxAtomsPerStage() int { return p.inner.MaxAtomsPerStage() }

// LeastAtom returns the most demanding stateful atom kind any codelet of
// the program needs (Stateless for pure header rewriting).
func (p *Program) LeastAtom() AtomKind { return p.inner.LeastAtom }

// Describe renders the atom pipeline, one stage per block.
func (p *Program) Describe() string { return p.inner.Describe() }

// ThreeAddressCode renders the normalized three-address code (the §4.1
// output, paper Figure 8).
func (p *Program) ThreeAddressCode() string { return p.norm.IR.String() }

// Dot renders the statement dependency graph with SCC clusters in Graphviz
// format (paper Figure 9).
func (p *Program) Dot() string { return pvsm.Dot(p.norm.IR) }

// P4 generates the equivalent P4_16 program (the paper's §5.1 backend).
func (p *Program) P4() string { return p4gen.Generate(p.inner) }

// DominoLOC and P4LOC count source lines for the Table 4 comparison.
func (p *Program) DominoLOC() int { return p.inner.Info.Prog.LOC() }

// P4LOC counts the generated P4 program's lines.
func (p *Program) P4LOC() int { return p4gen.LOC(p.inner) }

// Fields lists the packet struct's declared fields in order.
func (p *Program) Fields() []string {
	return append([]string(nil), p.inner.Info.Fields...)
}

// NewMachine instantiates a fresh Banzai machine (with zeroed state)
// running this program.
func (p *Program) NewMachine() (*Machine, error) {
	m, err := banzai.New(p.inner)
	if err != nil {
		return nil, err
	}
	return &Machine{m: m}, nil
}

// Header is the allocation-free slot-vector packet representation the
// compiled data path runs on; Layout maps field names to its slots.
type Header = banzai.Header

// Layout maps packet field names to Header slots for one compiled program.
type Layout = banzai.Layout

// Machine is an instantiated Banzai pipeline executing a compiled program,
// one packet per clock cycle.
type Machine struct {
	m *banzai.Machine
}

// Process pushes a packet through the whole pipeline and returns the
// transformed packet (fields under their original names). It must not be
// mixed with Tick while packets are in flight.
func (m *Machine) Process(pkt Packet) (Packet, error) { return m.m.Process(pkt) }

// Tick advances one clock cycle: in enters stage 1 (nil for a bubble); the
// second result reports whether a packet left the pipeline this cycle.
func (m *Machine) Tick(in Packet) (Packet, bool) { return m.m.Tick(in) }

// Drain flushes in-flight packets, returning them in departure order.
func (m *Machine) Drain() []Packet { return m.m.Drain() }

// Layout returns the machine's field↔slot mapping, for building Headers.
func (m *Machine) Layout() *Layout { return m.m.Layout() }

// AcquireHeader draws a zeroed header from the machine's free list;
// ReleaseHeader returns it. The header path never allocates at steady
// state.
func (m *Machine) AcquireHeader() Header  { return m.m.AcquireHeader() }
func (m *Machine) ReleaseHeader(h Header) { m.m.ReleaseHeader(h) }

// ProcessH pushes a header through the whole pipeline in place — the
// allocation-free equivalent of Process (read results via Layout.Output or
// Layout.OutputSlot).
func (m *Machine) ProcessH(h Header) error { return m.m.ProcessH(h) }

// ProcessBatch runs a batch of headers through the pipeline back-to-back,
// each mutated in place.
func (m *Machine) ProcessBatch(hs []Header) error { return m.m.ProcessBatch(hs) }

// TickH is the header-path Tick: ownership of in passes to the machine and
// ownership of the departing header passes to the caller.
func (m *Machine) TickH(in Header) (Header, bool) { return m.m.TickH(in) }

// DrainH flushes in-flight headers, returning them in departure order.
func (m *Machine) DrainH() []Header { return m.m.DrainH() }

// Depth returns the pipeline depth in stages.
func (m *Machine) Depth() int { return m.m.Depth() }

// Cycles returns clock cycles elapsed.
func (m *Machine) Cycles() int64 { return m.m.Cycles() }

// State returns a snapshot of all state variables (scalars and arrays).
func (m *Machine) State() *State { return m.m.State() }

// State is a snapshot of a transaction's persistent switch state.
type State = interp.State

// Interpreter executes a transaction with the specification semantics:
// serially, one packet at a time (paper §3.1). It is the reference against
// which compiled pipelines are bit-exact.
type Interpreter struct {
	ip   *interp.Interp
	info *sema.Info
}

// NewInterpreter builds a reference interpreter with fresh state.
func NewInterpreter(src string) (*Interpreter, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	return &Interpreter{ip: interp.New(info), info: info}, nil
}

// Run executes the transaction once, mutating pkt and the state.
func (i *Interpreter) Run(pkt Packet) error { return i.ip.Run(pkt) }

// State returns the interpreter's live state.
func (i *Interpreter) State() *State { return i.ip.State() }

// Fields lists the declared packet fields.
func (i *Interpreter) Fields() []string { return append([]string(nil), i.info.Fields...) }

// CatalogEntry describes one of the paper's Table 4 data-plane algorithms,
// shipped with the library as ready-to-compile Domino source.
type CatalogEntry struct {
	Name        string
	Title       string
	Description string
	Source      string
	// Maps is false for algorithms no default target can run at line rate
	// (CoDel).
	Maps bool
	// LeastAtom is the least expressive stateful atom that runs the
	// algorithm (valid when Maps).
	LeastAtom AtomKind
	// Pipeline placement per Table 4: "Ingress", "Egress" or "Either".
	Placement string
}

// Catalog returns the Table 4 algorithms in the paper's order.
func Catalog() []CatalogEntry {
	var out []CatalogEntry
	for _, a := range algorithms.All() {
		out = append(out, CatalogEntry{
			Name:        a.Name,
			Title:       a.Title,
			Description: a.Description,
			Source:      a.Source,
			Maps:        a.Maps,
			LeastAtom:   a.LeastAtom,
			Placement:   string(a.Place),
		})
	}
	return out
}

// CatalogSource returns the Domino source of a named catalog algorithm.
func CatalogSource(name string) (string, error) {
	a, err := algorithms.ByName(name)
	if err != nil {
		return "", err
	}
	return a.Source, nil
}
