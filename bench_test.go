package domino

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5) as testing.B benchmarks, reporting the figures the paper
// reports via b.ReportMetric:
//
//	BenchmarkTable3AtomAreas            — Table 3 (area µm² per atom)
//	BenchmarkTable4Algorithms           — Table 4 (stages, atoms/stage, LOC)
//	BenchmarkTable5PerfVsProgrammability— Table 5 (delay, #algorithms, Gpps)
//	BenchmarkTable6CircuitDepth         — Table 6 (min delay per circuit)
//	BenchmarkCompileTime                — §5.3 compile times (incl. CoDel rejection)
//	BenchmarkResourceProvisioning       — §5.2 chip budget
//	BenchmarkFigure3FlowletPipeline     — Figure 3b (6-stage flowlet pipeline)
//	BenchmarkFigure9DependencyGraph     — Figure 9 (dep graph + SCC condensation)
//	BenchmarkSynthesis                  — codelet→atom mapping per hierarchy level
//
// Packet rates are not measured here: the compiled pipeline, the
// interpreter, the schedulers and the fabrics are timed, with their
// outputs checked, by the repository benchmark in bench/ (BENCHMARK.json).

import (
	"fmt"
	"testing"

	"domino/internal/algorithms"
	"domino/internal/ast"
	"domino/internal/atoms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/hw"
	"domino/internal/netsim"
	"domino/internal/p4gen"
	"domino/internal/parser"
	"domino/internal/passes"
	"domino/internal/pvsm"
	"domino/internal/sema"
	"domino/internal/synth"
)

func mustFront(b *testing.B, src string) (*sema.Info, *passes.NormResult) {
	b.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	norm, err := passes.Normalize(info)
	if err != nil {
		b.Fatal(err)
	}
	return info, norm
}

// BenchmarkTable3AtomAreas regenerates Table 3: the area of each atom.
func BenchmarkTable3AtomAreas(b *testing.B) {
	kinds := append([]atoms.Kind{atoms.Stateless}, atoms.StatefulHierarchy...)
	for _, k := range kinds {
		b.Run(k.String(), func(b *testing.B) {
			var area float64
			for i := 0; i < b.N; i++ {
				area = hw.CircuitFor(k).Area()
			}
			b.ReportMetric(area, "area_um2")
			b.ReportMetric(hw.PaperArea[k], "paper_um2")
		})
	}
}

// BenchmarkTable4Algorithms regenerates Table 4: compile each algorithm to
// its least expressive target and report the pipeline statistics.
func BenchmarkTable4Algorithms(b *testing.B) {
	for _, a := range algorithms.All() {
		b.Run(a.Name, func(b *testing.B) {
			info, norm := mustFront(b, a.Source)
			if !a.Maps {
				pl, err := pvsm.Build(norm.IR)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(pl.NumStages()), "stages")
				b.ReportMetric(float64(pl.MaxAtomsPerStage()), "atoms/stage")
				b.ReportMetric(0, "maps")
				return
			}
			var p *codegen.Program
			for i := 0; i < b.N; i++ {
				var ok bool
				var err error
				p, ok, err = codegen.LeastTarget(info, norm.IR)
				if !ok {
					b.Fatal(err)
				}
			}
			if p.Target.StatefulAtom != a.LeastAtom {
				b.Fatalf("least atom %s, want %s", p.Target.StatefulAtom, a.LeastAtom)
			}
			b.ReportMetric(float64(p.NumStages()), "stages")
			b.ReportMetric(float64(p.MaxAtomsPerStage()), "atoms/stage")
			b.ReportMetric(float64(ast.CountLOC(a.Source)), "domino_loc")
			b.ReportMetric(float64(p4gen.LOC(p)), "p4_loc")
			b.ReportMetric(1, "maps")
		})
	}
}

// BenchmarkTable5PerfVsProgrammability regenerates Table 5.
func BenchmarkTable5PerfVsProgrammability(b *testing.B) {
	counts := map[atoms.Kind]int{}
	for _, a := range algorithms.All() {
		if !a.Maps {
			continue
		}
		for _, k := range atoms.StatefulHierarchy {
			if k.Contains(a.LeastAtom) {
				counts[k]++
			}
		}
	}
	for _, k := range atoms.StatefulHierarchy {
		b.Run(k.String(), func(b *testing.B) {
			var delay, rate float64
			for i := 0; i < b.N; i++ {
				c := hw.CircuitFor(k)
				delay, rate = c.MinDelay(), c.MaxLineRateGpps()
			}
			b.ReportMetric(delay, "delay_ps")
			b.ReportMetric(float64(counts[k]), "algorithms")
			b.ReportMetric(rate, "Gpps")
		})
	}
}

// BenchmarkTable6CircuitDepth regenerates Table 6: the minimum delay of the
// three drawn circuits.
func BenchmarkTable6CircuitDepth(b *testing.B) {
	for _, k := range []atoms.Kind{atoms.Write, atoms.ReadAddWrite, atoms.PRAW} {
		b.Run(k.String(), func(b *testing.B) {
			var d float64
			var depth int
			for i := 0; i < b.N; i++ {
				c := hw.CircuitFor(k)
				d = c.MinDelay()
				depth = len(c.Path)
			}
			b.ReportMetric(d, "delay_ps")
			b.ReportMetric(float64(depth), "path_components")
		})
	}
}

// BenchmarkCompileTime regenerates the §5.3 compile-time discussion: the
// wall time to accept each algorithm (or reject CoDel on all 7 targets).
func BenchmarkCompileTime(b *testing.B) {
	for _, a := range algorithms.All() {
		b.Run(a.Name, func(b *testing.B) {
			info, norm := mustFront(b, a.Source)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				codegen.LeastTarget(info, norm.IR)
			}
		})
	}
}

// BenchmarkResourceProvisioning regenerates the §5.2 chip budget.
func BenchmarkResourceProvisioning(b *testing.B) {
	var p hw.Provisioning
	for i := 0; i < b.N; i++ {
		p = hw.Provision(atoms.Pairs)
	}
	b.ReportMetric(float64(p.StatelessAtomsPerStage), "stateless/stage")
	b.ReportMetric(float64(p.StatefulPerStage), "stateful/stage")
	b.ReportMetric(p.TotalOverheadPct, "overhead_pct")
}

// BenchmarkFigure3FlowletPipeline regenerates Figure 3b: flowlet switching
// compiled end to end.
func BenchmarkFigure3FlowletPipeline(b *testing.B) {
	a, _ := algorithms.ByName("flowlets")
	var p *Program
	for i := 0; i < b.N; i++ {
		var err error
		p, err = CompileLeast(a.Source)
		if err != nil {
			b.Fatal(err)
		}
	}
	if p.NumStages() != 6 || p.MaxAtomsPerStage() != 2 {
		b.Fatalf("flowlet pipeline %d/%d, want 6/2", p.NumStages(), p.MaxAtomsPerStage())
	}
	b.ReportMetric(float64(p.NumStages()), "stages")
	b.ReportMetric(float64(p.MaxAtomsPerStage()), "atoms/stage")
}

// BenchmarkFigure9DependencyGraph times dependency analysis + SCC
// condensation on the flowlet program.
func BenchmarkFigure9DependencyGraph(b *testing.B) {
	a, _ := algorithms.ByName("flowlets")
	_, norm := mustFront(b, a.Source)
	for i := 0; i < b.N; i++ {
		g := pvsm.BuildGraph(norm.IR)
		if len(g.SCCs()) == 0 {
			b.Fatal("no SCCs")
		}
	}
}

// BenchmarkSynthesis times codelet→atom mapping per hierarchy level, the
// operation that dominated the paper's compile times under SKETCH.
func BenchmarkSynthesis(b *testing.B) {
	cases := map[string]string{
		"RAW": `
struct Packet { int v; };
int x;
void t(struct Packet pkt) { x = x + pkt.v; }
`,
		"PRAW": `
struct Packet { int v; };
int x;
void t(struct Packet pkt) { if (pkt.v < 30) { x = x + pkt.v; } }
`,
		"Nested": `
struct Packet { int fresh; };
int x;
void t(struct Packet pkt) {
  if (pkt.fresh == 1) { if (x < 31) { x = x + 1; } } else { x = 0; }
}
`,
	}
	for name, src := range cases {
		b.Run(name, func(b *testing.B) {
			_, norm := mustFront(b, src)
			pl, err := pvsm.Build(norm.IR)
			if err != nil {
				b.Fatal(err)
			}
			var target *pvsm.Codelet
			for _, st := range pl.Stages {
				for _, c := range st {
					if c.Stateful() {
						target = c
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := synth.MapCodelet(target, synth.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFabricBuild prices building a fabric from programs that are
// already compiled — what every reliable-chaos schedule and every
// fat-tree experiment pays before its first tick. Each switch re-runs the
// machine build (optimize + layout + closure fusion) from its shared
// *codegen.Program; the banzai.New row is that cost for one
// flowlet_route machine, in ns/op and B/op.
func BenchmarkFabricBuild(b *testing.B) {
	compile := func(src string, err error) *codegen.Program {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		p, err := codegen.CompileLeastSource(src)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	report := func(b *testing.B, switches int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*switches), "ns/switch")
		b.ReportMetric(float64(switches), "switches")
	}

	// The 4x2 leaf-spine of the reliable-chaos benchmark workload.
	const leaves, spines, hostsPerLeaf = 4, 2, 2
	params := algorithms.RouteParams{Leaves: leaves, Spines: spines, HostsPerLeaf: hostsPerLeaf, ECN: true}
	leafProgs := make([]*codegen.Program, leaves)
	for l := range leafProgs {
		params.LeafID = l
		leafProgs[l] = compile(algorithms.FlowletRouteSource(params))
	}
	params.LeafID = 0
	spineProg := compile(algorithms.SpineRouteSource(params))

	b.Run("banzai.New/flowlet_route", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := banzai.New(leafProgs[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("leafspine_4x2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := netsim.NewLeafSpine(netsim.LeafSpineConfig{
				Leaves: leaves, Spines: spines, HostsPerLeaf: hostsPerLeaf,
				LeafProgram:        func(l int) (*codegen.Program, error) { return leafProgs[l], nil },
				SpineProgram:       func(int) (*codegen.Program, error) { return spineProg, nil },
				UplinkBytesPerTick: 3000, DownlinkBytesPerTick: 6000,
				RouteField: algorithms.RouteOutPort,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, leaves+spines)
	})

	for _, k := range []int{4, 8, 16} {
		half := k / 2
		edgeProgs := make([]*codegen.Program, k*half)
		for e := range edgeProgs {
			edgeProgs[e] = compile(algorithms.FlowletRouteSource(algorithms.RouteParams{
				LeafID: e, Leaves: k * half, Spines: half, HostsPerLeaf: half,
			}))
		}
		aggProgs := make([]*codegen.Program, k)
		for pod := range aggProgs {
			aggProgs[pod] = compile(algorithms.FatAggRouteSource(algorithms.RouteParams{
				LeafID: pod, Leaves: k, Spines: half, HostsPerLeaf: half,
			}))
		}
		coreProg := compile(algorithms.SpineRouteSource(algorithms.RouteParams{
			Leaves: k, Spines: half, HostsPerLeaf: half * half,
		}))
		b.Run(fmt.Sprintf("fattree_k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := netsim.NewFatTree(netsim.FatTreeConfig{
					K:           k,
					EdgeProgram: func(e int) (*codegen.Program, error) { return edgeProgs[e], nil },
					AggProgram:  func(pod int) (*codegen.Program, error) { return aggProgs[pod], nil },
					CoreProgram: func(int) (*codegen.Program, error) { return coreProg, nil },
					RouteField:  algorithms.RouteOutPort,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, k*half*2+half*half)
		})
	}
}

// BenchmarkP4Generation times the P4 backend (§5.1).
func BenchmarkP4Generation(b *testing.B) {
	src, _ := CatalogSource("flowlets")
	prog, err := CompileLeast(src)
	if err != nil {
		b.Fatal(err)
	}
	var n int
	for i := 0; i < b.N; i++ {
		n = prog.P4LOC()
	}
	b.ReportMetric(float64(n), "p4_loc")
	b.ReportMetric(float64(prog.DominoLOC()), "domino_loc")
}

// BenchmarkOptimizer reports what the machine-build-time optimizer does
// to each compiling catalog algorithm and each scheduler rank transaction
// (ops and slots before/after, plus the build cost) — the measured, not
// assumed, payoff of the PR 4 optimizer. Rank transactions build with
// their liveness roots narrowed to the rank field, exactly as the pifo
// engines build them.
func BenchmarkOptimizer(b *testing.B) {
	report := func(b *testing.B, m *banzai.Machine) {
		st := m.OptStats()
		b.ReportMetric(float64(st.OpsBefore), "ops_pre")
		b.ReportMetric(float64(st.OpsAfter), "ops_post")
		b.ReportMetric(float64(st.SlotsBefore), "slots_pre")
		b.ReportMetric(float64(st.SlotsAfter), "slots_post")
		b.ReportMetric(float64(st.AtomsBefore), "atoms_pre")
		b.ReportMetric(float64(st.AtomsAfter), "atoms_post")
	}
	for _, a := range algorithms.All() {
		if !a.Maps {
			continue
		}
		b.Run(a.Name, func(b *testing.B) {
			p, err := codegen.CompileLeastSource(a.Source)
			if err != nil {
				b.Fatal(err)
			}
			var m *banzai.Machine
			for i := 0; i < b.N; i++ {
				if m, err = banzai.New(p); err != nil {
					b.Fatal(err)
				}
			}
			report(b, m)
		})
	}
	for _, s := range algorithms.Schedulers() {
		b.Run(s.Name, func(b *testing.B) {
			p, err := codegen.CompileLeastSource(s.Source)
			if err != nil {
				b.Fatal(err)
			}
			var m *banzai.Machine
			for i := 0; i < b.N; i++ {
				m, err = banzai.NewWith(p, banzai.Options{OutputFields: []string{s.RankField}})
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, m)
		})
	}
}

// BenchmarkAblationCleanupPass quantifies what the cleanup pass buys: stage
// count with and without copy propagation/DCE (the DESIGN.md ablation).
func BenchmarkAblationCleanupPass(b *testing.B) {
	a, _ := algorithms.ByName("flowlets")
	_, norm := mustFront(b, a.Source)
	with, err := pvsm.Build(norm.IR)
	if err != nil {
		b.Fatal(err)
	}
	without, err := pvsm.Build(norm.Raw)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = fmt.Sprintf("%d%d", with.NumCodelets(), without.NumCodelets())
	}
	b.ReportMetric(float64(with.NumCodelets()), "codelets_cleaned")
	b.ReportMetric(float64(without.NumCodelets()), "codelets_raw")
	b.ReportMetric(float64(with.MaxAtomsPerStage()), "atoms/stage_cleaned")
	b.ReportMetric(float64(without.MaxAtomsPerStage()), "atoms/stage_raw")
}
