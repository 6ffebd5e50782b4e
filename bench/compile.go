package main

import (
	"fmt"
	"time"

	"domino/internal/atoms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/ir"
	"domino/internal/lexer"
	"domino/internal/p4gen"
	"domino/internal/parser"
	"domino/internal/passes"
	"domino/internal/pvsm"
	"domino/internal/sema"
	"domino/internal/synth"
)

// source is one program a workload compiles. name is the catalog key the
// compile.prog.<name>_s row is filed under (several fabric positions
// share one key).
type source struct {
	name string
	text string
	// outputs narrows the machine's liveness roots the way the PIFO rank
	// engines build scheduler transactions; nil keeps every field.
	outputs []string
}

// compiled is one compilation's outcome. prog is nil when every target
// rejected the program.
type compiled struct {
	src   source
	prog  *codegen.Program
	info  *sema.Info
	norm  *passes.NormResult
	tried int
}

// compileStats accumulates what the compiler layers did across one
// compile pass. The durations are filled on every pass; the probe fields
// (tokens, codelets, synth, p4gen, machine builds) only on a traced one.
type compileStats struct {
	parse, sema, normalize, least time.Duration
	perProg                       map[string]time.Duration
	irStmts, tried, atoms         int
	rejected                      int

	tokens                     int
	pvsmBuild, synthMap, p4gen time.Duration
	synthInLeast               time.Duration
	codelets, stages, mapped   int
	p4loc                      int
	machineBuild               time.Duration
	opsPre, opsPost, slotsPost int
}

func (s *compileStats) total() time.Duration {
	return s.parse + s.sema + s.normalize + s.least
}

// compileLeast is codegen.CompileLeastSource unrolled — parse, check,
// normalize, then the target hierarchy bottom-up — so that every phase is
// one call from bench/ into one layer and can carry a span. A program no
// target accepts is not an error here: CoDel's rejection on all seven
// targets is part of the measured work.
func compileLeast(tr *tracer, src source, st *compileStats) (*compiled, error) {
	start := time.Now()
	c := &compiled{src: src}

	t := time.Now()
	id := tr.begin("parser.Parse")
	prog, err := parser.Parse(src.text)
	tr.end(id)
	st.parse += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.name, err)
	}

	t = time.Now()
	id = tr.begin("sema.Check")
	c.info, err = sema.Check(prog)
	tr.end(id)
	st.sema += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.name, err)
	}

	t = time.Now()
	id = tr.begin("passes.Normalize")
	c.norm, err = passes.Normalize(c.info)
	tr.end(id)
	st.normalize += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src.name, err)
	}
	st.irStmts += len(c.norm.IR.Stmts)

	t = time.Now()
	for _, target := range codegen.Targets() {
		c.tried++
		id = tr.begin("codegen.Compile")
		p, err := codegen.Compile(c.info, c.norm.IR, target)
		tr.end(id)
		if err == nil {
			c.prog = p
			break
		}
	}
	st.least += time.Since(t)
	st.tried += c.tried
	if c.prog == nil {
		st.rejected++
	} else {
		for _, stage := range c.prog.Stages {
			st.atoms += len(stage)
		}
	}
	if st.perProg == nil {
		st.perProg = map[string]time.Duration{}
	}
	st.perProg[src.name] += time.Since(start)

	if tr != nil {
		if err := probeCompiler(tr, c, st); err != nil {
			return nil, fmt.Errorf("%s: %w", src.name, err)
		}
	}
	return c, nil
}

// probeCompiler times the layers bench/ cannot see inside
// codegen.Compile — the lexer, pvsm and synth — by calling them directly
// on the same inputs, and the P4 backend on the accepted program. Traced
// passes only: it repeats work the compile already did.
func probeCompiler(tr *tracer, c *compiled, st *compileStats) error {
	id := tr.begin("lexer.All")
	st.tokens += len(lexer.New(c.src.text).All())
	tr.end(id)

	t := time.Now()
	id = tr.begin("pvsm.Build")
	pl, err := pvsm.Build(c.norm.IR)
	tr.end(id)
	build := time.Since(t)
	if err != nil {
		return err
	}
	st.pvsmBuild += build
	st.codelets += pl.NumCodelets()
	st.stages += pl.NumStages()

	// Map every codelet once, exactly as codegen.Compile would (same
	// escaping set, no lookup tables), recording what each needs.
	escaping := escapingFields(pl, c.norm.IR)
	type mapping struct {
		dur  time.Duration
		kind atoms.Kind
		ok   bool
	}
	var maps []mapping
	for _, stage := range pl.Stages {
		for _, cl := range stage {
			t := time.Now()
			id := tr.begin("synth.MapCodelet")
			res, err := synth.MapCodelet(cl, synth.Options{
				Escaping: func(f string) bool { return escaping[f] },
			})
			tr.end(id)
			m := mapping{dur: time.Since(t), ok: err == nil}
			if err == nil {
				m.kind = res.Config.Atom
			}
			maps = append(maps, m)
			st.synthMap += m.dur
			st.mapped++
		}
	}
	// Each target codegen tried mapped codelets in pipeline order up to
	// the first one it had to reject; that prefix is synth's share of
	// the codegen.least_s this program cost.
	for _, target := range codegen.Targets()[:c.tried] {
		for _, m := range maps {
			st.synthInLeast += m.dur
			if !m.ok || (m.kind.IsStateful() && !target.StatefulAtom.Contains(m.kind)) {
				break
			}
		}
	}

	if c.prog != nil {
		t := time.Now()
		id := tr.begin("p4gen.Generate")
		text := p4gen.Generate(c.prog)
		tr.end(id)
		st.p4gen += time.Since(t)
		sinkInt += len(text)
		st.p4loc += p4gen.LOC(c.prog)
	}
	return nil
}

// escapingFields mirrors codegen's private helper of the same name: the
// packet fields consumed outside their defining codelet, which is what
// codegen.Compile passes to synth.MapCodelet as Options.Escaping.
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

// compileSet compiles every source of one workload. pass makes the text
// new: a compile cache keyed on source text must miss on every pass, since
// the metric is compiling a new program, not a lookup.
func compileSet(e *env, srcs []source, pass int, st *compileStats) ([]*compiled, error) {
	out := make([]*compiled, len(srcs))
	for i, s := range srcs {
		s.text += fmt.Sprintf("\n// bench seed %d pass %d\n", e.seed, pass)
		c, err := compileLeast(e.tr, s, st)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// buildMachine instantiates the Banzai machine of one compiled program,
// recording the optimizer's accounting.
func buildMachine(tr *tracer, c *compiled, st *compileStats) (*banzai.Machine, error) {
	t := time.Now()
	id := tr.begin("banzai.New")
	m, err := banzai.NewWith(c.prog, banzai.Options{OutputFields: c.src.outputs})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.src.name, err)
	}
	st.machineBuild += time.Since(t)
	os := m.OptStats()
	st.opsPre += os.OpsBefore
	st.opsPost += os.OpsAfter
	st.slotsPost += os.SlotsAfter
	return m, nil
}

// probeMachines builds one throw-away machine per distinct compiled
// program of a workload whose real machines live inside switches, so
// the banzai build metrics exist on every workload.
func probeMachines(tr *tracer, cs []*compiled, st *compileStats) error {
	seen := map[*codegen.Program]bool{}
	for _, c := range cs {
		if c.prog == nil || seen[c.prog] {
			continue
		}
		seen[c.prog] = true
		if _, err := buildMachine(tr, c, st); err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics files the compiler-side per-layer metrics.
func (s *compileStats) layerMetrics(m map[string]float64) {
	m["parser.parse_s"] = s.parse.Seconds()
	m["lexer.tokens"] = float64(s.tokens)
	m["sema.check_s"] = s.sema.Seconds()
	m["passes.normalize_s"] = s.normalize.Seconds()
	m["passes.ir_stmts"] = float64(s.irStmts)
	m["pvsm.build_s"] = s.pvsmBuild.Seconds()
	m["pvsm.codelets"] = float64(s.codelets)
	m["pvsm.stages"] = float64(s.stages)
	m["synth.map_s"] = s.synthMap.Seconds()
	m["synth.codelets_mapped"] = float64(s.mapped)
	if s.total() > 0 {
		m["synth.share_of_compile"] = s.synthInLeast.Seconds() / s.total().Seconds()
	}
	m["codegen.least_s"] = s.least.Seconds()
	m["codegen.targets_tried"] = float64(s.tried)
	m["codegen.atoms"] = float64(s.atoms)
	m["codegen.rejected"] = float64(s.rejected)
	for name, d := range s.perProg {
		m["compile.prog."+name+"_s"] = d.Seconds()
	}
	m["p4gen.generate_s"] = s.p4gen.Seconds()
	m["p4gen.loc"] = float64(s.p4loc)
	m["banzai.build_s"] = s.machineBuild.Seconds()
	m["banzai.ops_pre"] = float64(s.opsPre)
	m["banzai.ops_post"] = float64(s.opsPost)
	m["banzai.slots_post"] = float64(s.slotsPost)
}
