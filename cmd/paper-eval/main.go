// Command paper-eval regenerates every table and figure of the paper's
// evaluation (§5), printing the measured values side by side with the
// published ones.
//
// Usage:
//
//	paper-eval                 # everything
//	paper-eval -table 4        # one table (3, 4, 5, 6, compile-time, resources)
//	paper-eval -figure 3       # one figure (3, passes, 9)
//	paper-eval -throughput     # bare-machine rates: map Tick, header TickH, ProcessBatch
//	paper-eval -sched          # PIFO scheduling: weighted shares + port stats
//	paper-eval -opt            # build-time optimizer report per algorithm
//	paper-eval -net            # leaf-spine ECMP vs flowlet vs CONGA load balance
//	paper-eval -faults         # routing under a seeded core-link failure
//	paper-eval -reliable       # raw vs reliable transport under outage + corruption
//	paper-eval -telemetry      # in-band telemetry + metrics core on the faulted run
//	paper-eval -soak 1000      # chaos soak: N seeded random gray-failure schedules
//	paper-eval -fct            # fat-tree FCT percentiles + event-core speedup
//	paper-eval -k 8            # fat-tree arity for -fct (even, ≥2)
//	paper-eval -seed 7         # reseed the -net / -faults / -reliable / -telemetry / -soak / -fct scenarios
//	paper-eval -pprof cpu.out  # write a CPU profile of the requested reports
//
// Unknown flags or values exit non-zero with a message on stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"domino/internal/algorithms"
	"domino/internal/ast"
	"domino/internal/atoms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/hw"
	"domino/internal/interp"
	"domino/internal/p4gen"
	"domino/internal/passes"
	"domino/internal/pifo"
	"domino/internal/pvsm"
	"domino/internal/sema"
	"domino/internal/switchsim"
	"domino/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "paper-eval:", err)
		os.Exit(1)
	}
}

// run parses args and dispatches the requested reports. Flag and value
// errors come back as errors (so tests can exercise them and main can
// exit non-zero); failures deep inside a report still exit via fatal.
func run(args []string) error {
	fs := flag.NewFlagSet("paper-eval", flag.ContinueOnError)
	table := fs.String("table", "", "table to regenerate: 3, 4, 5, 6, compile-time, resources")
	figure := fs.String("figure", "", "figure to regenerate: 3, passes, 9")
	tput := fs.Bool("throughput", false, "measure simulator data-path throughput (map vs header vs batched)")
	schedFlag := fs.Bool("sched", false, "run the PIFO egress schedulers over the multi-tenant trace")
	optFlag := fs.Bool("opt", false, "report what the build-time optimizer does to each algorithm")
	netFlag := fs.Bool("net", false, "run the leaf-spine routing experiment (ECMP vs flowlet vs CONGA)")
	faultsFlag := fs.Bool("faults", false, "run the routing experiment under a seeded core-link failure")
	reliableFlag := fs.Bool("reliable", false, "run raw vs reliable transport under outage + corruption")
	telemetryFlag := fs.Bool("telemetry", false, "run the faulted scenario with in-band telemetry + metrics on")
	soakRuns := fs.Int("soak", 0, "chaos soak: run this many seeded random gray-failure schedules")
	fctFlag := fs.Bool("fct", false, "run the fat-tree FCT experiment (heavy-tailed flows, event core)")
	kArity := fs.Int("k", 8, "fat-tree arity for -fct (even, >= 2)")
	seed := fs.Int64("seed", 1, "seed for the -net, -faults, -reliable, -telemetry, -soak and -fct scenarios")
	pprofFile := fs.String("pprof", "", "write a CPU profile of the requested reports to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seed <= 0 {
		return fmt.Errorf("seed must be positive, got %d", *seed)
	}
	if *soakRuns < 0 {
		return fmt.Errorf("soak run count must be positive, got %d", *soakRuns)
	}
	if *kArity < 2 || *kArity%2 != 0 {
		return fmt.Errorf("fat-tree arity must be even and >= 2, got %d", *kArity)
	}
	// Names are checked before anything runs: a typo must not cost a soak.
	tables := map[string]func(){
		"3": table3, "4": table4, "5": table5, "6": table6,
		"compile-time": compileTime, "resources": resources,
	}
	figures := map[string]func(){"3": figure3, "passes": figurePasses, "9": figure9}
	if _, ok := tables[*table]; !ok && *table != "" {
		return fmt.Errorf("unknown table %q (want 3, 4, 5, 6, compile-time, resources)", *table)
	}
	if _, ok := figures[*figure]; !ok && *figure != "" {
		return fmt.Errorf("unknown figure %q (want 3, passes, 9)", *figure)
	}
	if *pprofFile != "" {
		f, err := os.Create(*pprofFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	experiments := []struct {
		on     bool
		report func()
	}{
		{*fctFlag, func() { fctExperiment(*kArity, *seed) }},
		{*soakRuns > 0, func() { soakExperiment(*soakRuns, *seed) }},
		{*telemetryFlag, func() { telemetryExperiment(*seed) }},
		{*reliableFlag, func() { reliableExperiment(*seed) }},
		{*faultsFlag, func() { faultsExperiment(*seed) }},
		{*netFlag, func() { netExperiment(*seed) }},
		// The optimizer's effect belongs next to the throughput it buys.
		{*tput, func() { throughput(); optReport() }},
		{*optFlag && !*tput, optReport},
		{*schedFlag, sched},
	}
	ran := false
	for _, e := range experiments {
		if e.on {
			e.report()
			ran = true
		}
	}
	if *table == "" && *figure == "" {
		if !ran {
			table3()
			table4()
			table5()
			table6()
			compileTime()
			resources()
			figure3()
		}
		return nil
	}
	if report := tables[*table]; report != nil {
		report()
	}
	if report := figures[*figure]; report != nil {
		report()
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper-eval:", err)
	os.Exit(1)
}

// build compiles one algorithm down to IR.
func build(a algorithms.Algorithm) (*sema.Info, *passes.NormResult) {
	info, norm, err := codegen.Analyze(a.Source)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", a.Name, err))
	}
	return info, norm
}

func table3() {
	fmt.Println("== Table 3: atom areas in a 32 nm standard-cell library (1 GHz) ==")
	fmt.Printf("%-14s %14s %14s %8s\n", "atom", "area µm² (ours)", "paper", "timing@1GHz")
	kinds := append([]atoms.Kind{atoms.Stateless}, atoms.StatefulHierarchy...)
	for _, k := range kinds {
		c := hw.CircuitFor(k)
		ok := "meets"
		if !c.MeetsTiming(1.0) {
			ok = "FAILS"
		}
		fmt.Printf("%-14s %14.0f %14.0f %8s\n", k, c.Area(), hw.PaperArea[k], ok)
	}
	fmt.Println()
}

func table4() {
	fmt.Println("== Table 4: data-plane algorithms ==")
	fmt.Printf("%-16s %-12s %-12s %9s %9s %11s %11s %8s\n",
		"algorithm", "least atom", "(paper)", "stages", "(paper)", "atoms/stage", "DominoLOC", "P4LOC")
	for _, a := range algorithms.All() {
		info, norm := build(a)
		dominoLOC := ast.CountLOC(a.Source)
		if !a.Maps {
			pl, err := pvsm.Build(norm.IR)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-16s %-12s %-12s %9d %9d %11d %11d %8s\n",
				a.Name, "none", "none", pl.NumStages(), a.PaperStages,
				pl.MaxAtomsPerStage(), dominoLOC, "-")
			continue
		}
		p, ok, err := codegen.LeastTarget(info, norm.IR)
		if !ok {
			fatal(fmt.Errorf("%s: %w", a.Name, err))
		}
		fmt.Printf("%-16s %-12s %-12s %9d %9d %11d %11d %8d\n",
			a.Name, p.Target.StatefulAtom, a.LeastAtom,
			p.NumStages(), a.PaperStages, p.MaxAtomsPerStage(), dominoLOC, p4gen.LOC(p))
	}
	fmt.Println("(paper LOC columns: Domino 18–57, generated P4 70–271; ours measured above)")
	fmt.Println()
}

func table5() {
	fmt.Println("== Table 5: programmability vs. performance ==")
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
	fmt.Printf("%-14s %12s %8s %15s %12s %8s\n",
		"atom", "delay ps", "(paper)", "#algorithms", "rate Gpps", "(paper)")
	paperRate := map[atoms.Kind]float64{
		atoms.Write: 5.68, atoms.ReadAddWrite: 3.16, atoms.PRAW: 2.54,
		atoms.IfElseRAW: 2.55, atoms.Sub: 2.44, atoms.Nested: 1.72, atoms.Pairs: 1.64,
	}
	for _, k := range atoms.StatefulHierarchy {
		c := hw.CircuitFor(k)
		fmt.Printf("%-14s %12.0f %8.0f %15d %12.2f %8.2f\n",
			k, c.MinDelay(), hw.PaperDelay[k], counts[k], c.MaxLineRateGpps(), paperRate[k])
	}
	fmt.Println()
}

func table6() {
	fmt.Println("== Table 6: circuits and minimum delays ==")
	for _, k := range []atoms.Kind{atoms.Write, atoms.ReadAddWrite, atoms.PRAW} {
		fmt.Print(hw.CircuitFor(k).Diagram())
		fmt.Printf("  paper min delay: %.0f ps\n\n", hw.PaperDelay[k])
	}
}

func compileTime() {
	fmt.Println("== §5.3: compilation time ==")
	fmt.Printf("%-16s %-12s %12s\n", "algorithm", "target", "compile time")
	for _, a := range algorithms.All() {
		info, norm := build(a)
		start := time.Now()
		p, ok, _ := codegen.LeastTarget(info, norm.IR)
		dt := time.Since(start)
		if ok {
			fmt.Printf("%-16s %-12s %12s\n", a.Name, p.Target.StatefulAtom, dt.Round(time.Microsecond))
		} else {
			fmt.Printf("%-16s %-12s %12s (rejected on all 7 targets)\n", a.Name, "none", dt.Round(time.Microsecond))
		}
	}
	fmt.Println("(paper worst case: 10 s for CoDel's rejection; our structural search replaces")
	fmt.Println(" SKETCH's CEGIS loop, so rejections are near-instant — see EXPERIMENTS.md)")
	fmt.Println()
}

func resources() {
	fmt.Println("== §5.2: resource provisioning (Pairs target) ==")
	fmt.Print(hw.Provision(atoms.Pairs))
	fmt.Println()
}

func figure3() {
	fmt.Println("== Figure 3b: flowlet switching compiled to a Banzai pipeline ==")
	a, _ := algorithms.ByName("flowlets")
	info, norm := build(a)
	p, ok, err := codegen.LeastTarget(info, norm.IR)
	if !ok {
		fatal(err)
	}
	fmt.Print(p.Describe())
	fmt.Println()
}

func figurePasses() {
	fmt.Println("== Figures 5–8: compiler passes on flowlet switching ==")
	a, _ := algorithms.ByName("flowlets")
	_, norm := build(a)
	fmt.Println("-- after branch removal (Figure 5) --")
	fmt.Print(passes.Print(norm.Straight))
	fmt.Println("-- after state flank rewriting (Figure 6) --")
	fmt.Print(passes.Print(norm.Flanked))
	fmt.Println("-- after SSA (Figure 7) --")
	fmt.Print(passes.Print(norm.SSA))
	fmt.Println("-- three-address code (Figure 8) --")
	fmt.Print(norm.IR.String())
}

// throughput measures the simulator's data-path rates on flowlet
// switching: the map-based wrapper, the slot-vector header fast path and
// the batched path (paper §2's one packet per clock, here in software
// packets per wall-second). It is the -pprof target for the bare machine;
// the checked, gated numbers are bench/'s catalog workload.
func throughput() {
	fmt.Println("== Simulator throughput (flowlet switching) ==")
	a, _ := algorithms.ByName("flowlets")
	info, norm := build(a)
	p, ok, err := codegen.LeastTarget(info, norm.IR)
	if !ok {
		fatal(err)
	}
	const n = 1 << 20
	rate := func(pkts int, dt time.Duration) string {
		return fmt.Sprintf("%10.2f Mpkts/s", float64(pkts)/dt.Seconds()/1e6)
	}

	m, err := banzai.New(p)
	if err != nil {
		fatal(err)
	}
	trace := workload.FlowletTrace(1, 256, 4096, 10, 50)
	start := time.Now()
	for i := 0; i < n; i++ {
		m.Tick(trace[i&4095])
	}
	fmt.Printf("%-28s %s\n", "map Tick (codec per packet)", rate(n, time.Since(start)))

	m2, err := banzai.New(p)
	if err != nil {
		fatal(err)
	}
	hs := workload.FlowletTraceHeaders(m2.Layout(), 1, 256, 4096, 10, 50)
	start = time.Now()
	for i := 0; i < n; i++ {
		m2.TickH(hs[i&4095])
	}
	fmt.Printf("%-28s %s\n", "header TickH (zero-alloc)", rate(n, time.Since(start)))

	m3, err := banzai.New(p)
	if err != nil {
		fatal(err)
	}
	hs3 := workload.FlowletTraceHeaders(m3.Layout(), 1, 256, 4096, 10, 50)
	start = time.Now()
	for i := 0; i < n/4096; i++ {
		if err := m3.ProcessBatch(hs3); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%-28s %s\n", "header ProcessBatch", rate(n, time.Since(start)))
	fmt.Println()
}

// optReport prints, for every compiling catalog algorithm and every
// scheduler rank transaction, what the machine-build-time optimizer
// removed: configured atoms, micro-ops and header slots before and after
// (rank transactions build with liveness narrowed to the rank field,
// exactly as the pifo engines build them).
func optReport() {
	fmt.Println("== Build-time program optimizer (constant folding, copy coalescing, DCE, layout compaction) ==")
	fmt.Printf("%-22s %12s %12s %12s %8s %8s %8s %6s\n",
		"program", "atoms", "ops", "slots", "folded", "propag", "coalesce", "dead")
	row := func(name string, m *banzai.Machine) {
		st := m.OptStats()
		fmt.Printf("%-22s %6d->%-5d %6d->%-5d %6d->%-5d %8d %8d %8d %6d\n",
			name, st.AtomsBefore, st.AtomsAfter, st.OpsBefore, st.OpsAfter,
			st.SlotsBefore, st.SlotsAfter, st.Folded, st.Propagated, st.Coalesced, st.Dead)
	}
	for _, a := range algorithms.All() {
		if !a.Maps {
			continue
		}
		p, err := codegen.CompileLeastSource(a.Source)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a.Name, err))
		}
		m, err := banzai.New(p)
		if err != nil {
			fatal(err)
		}
		row(a.Name, m)
	}
	fmt.Println("-- scheduler rank transactions (roots narrowed to the rank field) --")
	for _, s := range algorithms.Schedulers() {
		p, err := codegen.CompileLeastSource(s.Source)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s.Name, err))
		}
		m, err := banzai.NewWith(p, banzai.Options{OutputFields: []string{s.RankField}})
		if err != nil {
			fatal(err)
		}
		row(s.Name, m)
	}
	fmt.Println()
}

// sched exercises the PIFO scheduling subsystem: the multi-tenant
// weighted-flow trace saturates one egress port under each scheduler in
// the catalog, and the tenants' departed-byte shares show what each rank
// transaction enforces. A token-bucket-shaped run and the per-port
// statistics (the switch's observability surface) close the report.
func sched() {
	fmt.Println("== PIFO egress scheduling (multi-tenant trace, one saturated port) ==")
	tenants := []workload.TenantSpec{
		{Weight: 1, Flows: 4},
		{Weight: 2, Flows: 4},
		{Weight: 4, Flows: 4},
	}
	ingress, err := codegen.CompileLeastSource(algorithms.SchedIngress)
	if err != nil {
		fatal(err)
	}

	schedulers := []struct {
		name  string
		build func() (switchsim.Scheduler, error)
	}{
		{"fifo (default)", func() (switchsim.Scheduler, error) { return nil, nil }},
		{"stfq_rank", func() (switchsim.Scheduler, error) {
			spec, err := pifo.NamedSpec("stfq_rank")
			return pifo.Flat(spec), err
		}},
		{"strict_priority_rank", func() (switchsim.Scheduler, error) {
			spec, err := pifo.NamedSpec("strict_priority_rank")
			return pifo.Flat(spec), err
		}},
		{"wrr_rank", func() (switchsim.Scheduler, error) {
			spec, err := pifo.NamedSpec("wrr_rank")
			return pifo.Flat(spec), err
		}},
	}

	fmt.Printf("%-22s %28s   %s\n", "scheduler", "tenant shares (w=1,2,4)", "weighted ideal 0.143,0.286,0.571")
	for _, s := range schedulers {
		sc, err := s.build()
		if err != nil {
			fatal(err)
		}
		sw, err := switchsim.New(ingress, switchsim.Config{
			Ports:               1,
			QueueCapBytes:       1 << 24,
			ServiceBytesPerTick: 600,
			Scheduler:           sc,
		})
		if err != nil {
			fatal(err)
		}
		trace, _ := workload.MultiTenantTrace(5, tenants, 30000, 5)
		bytes := make([]int64, len(tenants))
		var total int64
		for _, pkt := range trace {
			for sw.Now() < int64(pkt["arrival"]) {
				for _, d := range sw.Tick() {
					if d.Departed > 1000 { // warmup
						bytes[d.Pkt["tenant"]] += d.Size
						total += d.Size
					}
				}
			}
			if _, _, _, err := sw.Inject(pkt, int64(pkt["size_bytes"])); err != nil {
				fatal(err)
			}
		}
		if total == 0 {
			fatal(fmt.Errorf("scheduler %s served nothing", s.name))
		}
		fmt.Printf("%-22s %9.3f %9.3f %9.3f\n", s.name,
			float64(bytes[0])/float64(total),
			float64(bytes[1])/float64(total),
			float64(bytes[2])/float64(total))
	}

	// Shaping: a burst through a token-bucket-shaped node leaves paced at
	// the bucket rate no matter how fast the port drains.
	spec, err := pifo.NamedSpec("token_bucket_shape")
	if err != nil {
		fatal(err)
	}
	shaped := &pifo.Tree{Root: pifo.NodeSpec{
		Name:     "root",
		Children: []pifo.NodeSpec{{Name: "shaped", Shaper: &spec}},
	}}
	sw, err := switchsim.New(ingress, switchsim.Config{
		Ports:               1,
		ServiceBytesPerTick: 1 << 20,
		Scheduler:           shaped,
	})
	if err != nil {
		fatal(err)
	}
	const burst = 40
	for i := 0; i < burst; i++ {
		pkt := interp.Packet{"tenant": 0, "flow": 0, "prio": 0, "size_bytes": 64, "cost": 64, "arrival": 0}
		if _, _, _, err := sw.Inject(pkt, 64); err != nil {
			fatal(err)
		}
	}
	deps := sw.Drain()
	fmt.Printf("\ntoken_bucket_shape: %d-packet burst (64 B each) drained over %d ticks (bucket rate 8 B/tick)\n",
		burst, deps[len(deps)-1].Departed)

	// The per-port statistics satellite: a 4-port STFQ switch under the
	// same trace, routed by flow.
	spec, err = pifo.NamedSpec("stfq_rank")
	if err != nil {
		fatal(err)
	}
	sw4, err := switchsim.New(ingress, switchsim.Config{
		Ports:               4,
		QueueCapBytes:       64 << 10,
		ServiceBytesPerTick: 600,
		RouteField:          "flow",
		Scheduler:           pifo.Flat(spec),
	})
	if err != nil {
		fatal(err)
	}
	trace, _ := workload.MultiTenantTrace(7, tenants, 30000, 5)
	for _, pkt := range trace {
		for sw4.Now() < int64(pkt["arrival"]) {
			sw4.Tick()
		}
		if _, _, _, err := sw4.Inject(pkt, int64(pkt["size_bytes"])); err != nil {
			fatal(err)
		}
	}
	sw4.Drain()
	fmt.Println("\nper-port stats (4-port STFQ switch, routed by flow):")
	fmt.Printf("%4s %10s %12s %8s %12s %14s %12s %10s\n",
		"port", "enqueues", "bytes", "drops", "departures", "departed B", "max queue B", "max depth")
	for p, st := range sw4.Stats() {
		fmt.Printf("%4d %10d %12d %8d %12d %14d %12d %10d\n",
			p, st.Enqueues, st.Bytes, st.Drops, st.Departures, st.DepartedBytes, st.MaxQueue, st.MaxDepth)
	}
	fmt.Println()
}

func figure9() {
	a, _ := algorithms.ByName("flowlets")
	_, norm := build(a)
	fmt.Print(pvsm.Dot(norm.IR))
}
