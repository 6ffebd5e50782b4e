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
//	BenchmarkMachineThroughput          — simulator packets/sec (compiled pipeline)
//	BenchmarkInterpreterThroughput      — sequential reference, for comparison
//	BenchmarkSynthesis                  — codelet→atom mapping per hierarchy level

import (
	"fmt"
	"testing"

	"domino/internal/algorithms"
	"domino/internal/ast"
	"domino/internal/atoms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/hw"
	"domino/internal/interp"
	"domino/internal/netsim"
	"domino/internal/p4gen"
	"domino/internal/parser"
	"domino/internal/passes"
	"domino/internal/pifo"
	"domino/internal/pvsm"
	"domino/internal/sema"
	"domino/internal/switchsim"
	"domino/internal/synth"
	"domino/internal/telemetry"
	"domino/internal/workload"
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

// throughputCase wires one catalog algorithm to its trace generators in
// both packet representations.
type throughputCase struct {
	name    string
	trace   []interp.Packet
	headers func(l *Layout) []Header
}

func throughputCases() []throughputCase {
	return []throughputCase{
		{
			name:    "flowlets",
			trace:   workload.FlowletTrace(1, 100, 4096, 10, 50),
			headers: func(l *Layout) []Header { return workload.FlowletTraceHeaders(l, 1, 100, 4096, 10, 50) },
		},
		{
			name:  "heavy_hitters",
			trace: firstOf(workload.HeavyHitterTrace(1, 1000, 4096, 1.2)),
			headers: func(l *Layout) []Header {
				hs, _ := workload.HeavyHitterTraceHeaders(l, 1, 1000, 4096, 1.2)
				return hs
			},
		},
		{
			name:    "conga",
			trace:   workload.CongaTrace(1, 16, 64, 4096),
			headers: func(l *Layout) []Header { return workload.CongaTraceHeaders(l, 1, 16, 64, 4096) },
		},
	}
}

func throughputMachine(b *testing.B, name string) *Machine {
	b.Helper()
	src, err := CatalogSource(name)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := CompileLeast(src)
	if err != nil {
		b.Fatal(err)
	}
	m, err := prog.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkMachineThroughput measures simulated packets per second through
// the compiled Banzai pipeline for each compiling algorithm, with the
// map-based slow path and the slot-vector header fast path side by side.
// The header paths must show 0 allocs/op at steady state; allocs/op is
// reported so regressions show up in BENCH_*.json snapshots.
func BenchmarkMachineThroughput(b *testing.B) {
	for _, tc := range throughputCases() {
		// Map path: the interp.Packet codec runs per packet.
		b.Run(tc.name+"/map", func(b *testing.B) {
			m := throughputMachine(b, tc.name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Tick(tc.trace[i&4095])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
		// Header path: slot vectors end to end, one TickH per cycle.
		// Departing headers rotate back in as later inputs, so the steady
		// state touches the pool and the codec not at all.
		b.Run(tc.name+"/header", func(b *testing.B) {
			m := throughputMachine(b, tc.name)
			hs := tc.headers(m.Layout())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TickH(hs[i&4095])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
		// Batch path: whole-pipeline execution per header, amortized
		// bookkeeping, batches of 1024.
		b.Run(tc.name+"/batch", func(b *testing.B) {
			m := throughputMachine(b, tc.name)
			hs := tc.headers(m.Layout())
			const batch = 1024
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i & 3) * batch
				if err := m.ProcessBatch(hs[off : off+batch]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "pkts/s")
		})
		// Stage-major batch: all headers through stage s, then s+1 —
		// bit-identical results, one stage's op program and state hot at
		// a time.
		b.Run(tc.name+"/batch_stage", func(b *testing.B) {
			m := throughputMachine(b, tc.name)
			hs := tc.headers(m.Layout())
			const batch = 1024
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i & 3) * batch
				if err := m.ProcessBatchStageMajor(hs[off : off+batch]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkShardedThroughput measures the RSS-style multi-pipeline
// simulator: one ShardedMachine with per-shard state, steering by flow key,
// batches of 4096 fanned out to the shard goroutines.
func BenchmarkShardedThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("flowlets/shards=%d", shards), func(b *testing.B) {
			src, err := CatalogSource("flowlets")
			if err != nil {
				b.Fatal(err)
			}
			prog, err := CompileLeast(src)
			if err != nil {
				b.Fatal(err)
			}
			sm, err := prog.NewSharded(shards, "sport", "dport")
			if err != nil {
				b.Fatal(err)
			}
			defer sm.Close()
			const batch = 4096
			hs := workload.FlowletTraceHeaders(sm.Layout(), 1, 256, batch, 10, 50)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sm.ProcessBatch(hs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "pkts/s")
			b.ReportMetric(float64(shards), "shards")
		})
	}
}

func firstOf(tr []interp.Packet, _ map[workload.Flow]int) []interp.Packet { return tr }

// BenchmarkSchedulerThroughput measures the PIFO scheduling subsystem's
// hot path: compiled rank transaction → PIFO push → PIFO pop, per packet,
// on the multi-tenant workload. Steady state is a 1:1 enqueue/dequeue
// cycle over a prefilled queue; allocs/op must stay 0 (the acceptance bar
// for the scheduler data path), and pkts/s is reported for BENCH_*.json.
func BenchmarkSchedulerThroughput(b *testing.B) {
	ingress := func(b *testing.B) *codegen.Program {
		b.Helper()
		p, err := codegen.CompileLeastSource(algorithms.SchedIngress)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		tree func(b *testing.B) *pifo.Tree
	}{
		{"fifo_const_rank", func(b *testing.B) *pifo.Tree {
			return pifo.Flat(pifo.RankSpec{Source: algorithms.ConstRank})
		}},
		{"stfq", func(b *testing.B) *pifo.Tree {
			return pifo.Flat(mustNamedSpec(b, "stfq_rank"))
		}},
		{"strict_priority", func(b *testing.B) *pifo.Tree {
			return pifo.Flat(mustNamedSpec(b, "strict_priority_rank"))
		}},
		{"wrr", func(b *testing.B) *pifo.Tree {
			return pifo.Flat(mustNamedSpec(b, "wrr_rank"))
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			prog := ingress(b)
			m, err := banzai.New(prog)
			if err != nil {
				b.Fatal(err)
			}
			qs, err := tc.tree(b).Build(m.Layout(), 1)
			if err != nil {
				b.Fatal(err)
			}
			q := qs[0]
			tenants := []workload.TenantSpec{
				{Weight: 1, Flows: 4}, {Weight: 2, Flows: 4}, {Weight: 4, Flows: 4},
			}
			hs, _ := workload.MultiTenantTraceHeaders(m.Layout(), 1, tenants, 4096, 4)
			for i := 0; i < 512; i++ {
				q.Enqueue(switchsim.QueuedHeader{H: hs[i], Size: 256, Arrived: int64(i), Seq: int64(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(switchsim.QueuedHeader{H: hs[(512+i)&4095], Size: 256, Arrived: int64(i), Seq: int64(i)})
				if _, ok := q.Dequeue(int64(i)); !ok {
					b.Fatal("dequeue failed")
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkSwitchSchedulerThroughput measures the end-to-end switch data
// path (ingress pipeline → rank transaction → PIFO → drain) with FIFO and
// STFQ egress schedulers side by side, on the header fast path.
func BenchmarkSwitchSchedulerThroughput(b *testing.B) {
	for _, tc := range []struct {
		name  string
		sched func(b *testing.B) switchsim.Scheduler
	}{
		{"fifo", func(b *testing.B) switchsim.Scheduler { return nil }},
		{"pifo_stfq", func(b *testing.B) switchsim.Scheduler {
			return pifo.Flat(mustNamedSpec(b, "stfq_rank"))
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			prog, err := codegen.CompileLeastSource(algorithms.SchedIngress)
			if err != nil {
				b.Fatal(err)
			}
			sw, err := switchsim.New(prog, switchsim.Config{
				Ports:               4,
				ServiceBytesPerTick: 2048,
				QueueCapBytes:       1 << 24,
				Scheduler:           tc.sched(b),
			})
			if err != nil {
				b.Fatal(err)
			}
			tenants := []workload.TenantSpec{
				{Weight: 1, Flows: 4}, {Weight: 2, Flows: 4}, {Weight: 4, Flows: 4},
			}
			hs, _ := workload.MultiTenantTraceHeaders(sw.Machine().Layout(), 1, tenants, 4096, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := sw.Machine().AcquireHeader()
				copy(h, hs[i&4095])
				if _, _, err := sw.InjectH(h, 256); err != nil {
					b.Fatal(err)
				}
				if i&7 == 7 {
					sw.Tick()
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkNetThroughput measures the multi-switch network data path —
// host inject → leaf pipeline → core link → spine pipeline → link →
// leaf → sink — on a 4-leaf/2-spine fabric, one sub-benchmark per
// routing policy. After warmup (which sizes the header pools and link
// rings), the hot path performs no allocation: headers travel
// host→switch→link→switch as pooled slot vectors under the netsim
// ownership contract and are decoded nowhere.
func BenchmarkNetThroughput(b *testing.B) {
	for _, routing := range []string{"ecmp_route", "flowlet_route", "conga_route"} {
		b.Run(routing, func(b *testing.B) {
			cfg := netsim.Scenario{Routing: routing, Seed: 1}
			f, err := cfg.Build()
			if err != nil {
				b.Fatal(err)
			}
			n := f.Network()
			if err := n.MapHosts(f.HostIDs()); err != nil {
				b.Fatal(err)
			}
			pkts := cfg.Trace().Packets
			// Warmup: one full trace replay at the benchmark's pacing grows
			// every pool and ring to steady state.
			for i := range pkts {
				if err := n.InjectNow(&pkts[i]); err != nil {
					b.Fatal(err)
				}
				if i&3 == 3 {
					mustStep(b, n)
				}
			}
			if err := n.Drain(1 << 20); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.InjectNow(&pkts[i%len(pkts)]); err != nil {
					b.Fatal(err)
				}
				if i&3 == 3 {
					mustStep(b, n)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
			b.StopTimer()
			if err := n.CheckConservation(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFatTreeEventThroughput measures the event-driven core (PR 10)
// end to end: a k=4 fat tree of compiled-pipeline switches drains a
// heavy-tailed flow-arrival trace per iteration via the calendar queue,
// jumping over the idle gaps between Poisson bursts. The trace is
// regenerated with shifted arrivals each replay (the simulated clock
// never rewinds); pkts/s counts delivered packets and ticks/s the
// simulated time covered — the figure the idle-skip buys.
func BenchmarkFatTreeEventThroughput(b *testing.B) {
	cfg := netsim.Scenario{
		Routing: "ecmp_route", K: 4, Seed: 1,
		HeavyTailed: &workload.HeavyTailedConfig{Flows: 64, MeanGapTicks: 200, MaxPkts: 64},
	}
	f, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	ft := f.(*netsim.FatTree)
	base := cfg.Trace()
	var delivered, ticks int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Shift every arrival past the current clock: trace ticks are
		// absolute, and the fabric's time only moves forward.
		tr := *base
		tr.Packets = append([]workload.NetPacket(nil), base.Packets...)
		tr.FlowStart = append([]int64(nil), base.FlowStart...)
		off := ft.Net.Now() + 1
		for j := range tr.Packets {
			tr.Packets[j].Arrival += off
		}
		for j := range tr.FlowStart {
			tr.FlowStart[j] += off
		}
		if err := ft.Net.SetTrace(&tr, ft.Hosts); err != nil {
			b.Fatal(err)
		}
		before := ft.Net.Totals().DeliveredPkts
		start := ft.Net.Now()
		b.StartTimer()
		if err := ft.Net.Drain(1 << 22); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		delivered += ft.Net.Totals().DeliveredPkts - before
		ticks += ft.Net.Now() - start
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "ticks/s")
	if err := ft.Net.CheckConservation(); err != nil {
		b.Fatal(err)
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

// BenchmarkTelemetryNetThroughput prices the observability plane (PR 8):
// the same INT-stamping ECMP fabric with telemetry off (nil sink — every
// instrument is a nil no-op, the hot path must stay allocation-free) and
// on (a live registry plus a sampled event ring). The two pkts/s figures
// bound what full observability costs; the contract is under 5%.
func BenchmarkTelemetryNetThroughput(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			cfg := netsim.Scenario{Routing: "ecmp_route", Seed: 1, INT: true}
			if mode == "on" {
				cfg.Telemetry = telemetry.NewRegistry()
				cfg.Ring = telemetry.NewRing(4096, 16, 1)
			}
			f, err := cfg.Build()
			if err != nil {
				b.Fatal(err)
			}
			n := f.Network()
			if err := n.MapHosts(f.HostIDs()); err != nil {
				b.Fatal(err)
			}
			pkts := cfg.Trace().Packets
			for i := range pkts {
				if err := n.InjectNow(&pkts[i]); err != nil {
					b.Fatal(err)
				}
				if i&3 == 3 {
					mustStep(b, n)
				}
			}
			if err := n.Drain(1 << 20); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.InjectNow(&pkts[i%len(pkts)]); err != nil {
					b.Fatal(err)
				}
				if i&3 == 3 {
					mustStep(b, n)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
			b.StopTimer()
			if err := n.CheckConservation(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkReliableNetThroughput measures the reliable-transport data
// path — timer-wheel pacing, sequence/checksum stamping, ECN-marked
// pipelines, sink-side dedup and cumulative ACKs riding the feedback
// reflection — on the healthy 4-leaf/2-spine ECMP fabric. The trace
// replays in a loop via Transport.Reset; the metric counts exactly-once
// acceptances. After warmup the whole loop allocates nothing.
func BenchmarkReliableNetThroughput(b *testing.B) {
	r, err := netsim.Scenario{
		Routing: "ecmp_route", Seed: 1, ECN: true,
		Transport: &netsim.TransportConfig{Seed: 1},
	}.Start()
	if err != nil {
		b.Fatal(err)
	}
	n, tp := r.Net, r.Transport
	// Warmup: one full reliable replay sizes every pool and ring.
	if err := n.Drain(1 << 20); err != nil {
		b.Fatal(err)
	}
	start := n.Totals().AcceptedPkts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tp.Done() {
			if err := tp.Reset(); err != nil {
				b.Fatal(err)
			}
		}
		mustStep(b, n)
	}
	accepted := n.Totals().AcceptedPkts - start
	b.ReportMetric(float64(accepted)/b.Elapsed().Seconds(), "pkts/s")
	b.StopTimer()
	if err := n.CheckConservation(); err != nil {
		b.Fatal(err)
	}
}

// mustStep advances the fabric one tick; a wiring or watchdog error fails
// the benchmark.
func mustStep(b *testing.B, n *netsim.Network) {
	b.Helper()
	if err := n.Step(); err != nil {
		b.Fatal(err)
	}
}

func mustNamedSpec(b *testing.B, name string) pifo.RankSpec {
	b.Helper()
	spec, err := pifo.NamedSpec(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// BenchmarkInterpreterThroughput is the sequential reference semantics —
// the software-router baseline the compiled pipeline is compared against.
func BenchmarkInterpreterThroughput(b *testing.B) {
	src, err := CatalogSource("flowlets")
	if err != nil {
		b.Fatal(err)
	}
	ip, err := NewInterpreter(src)
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.FlowletTrace(1, 100, 4096, 10, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ip.Run(trace[i&4095].Clone()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
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
