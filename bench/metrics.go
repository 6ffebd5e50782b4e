package main

import (
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; TestBenchmarkJSONMatchesRegistry keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which the metric may
	// worsen before -compare (and the driver) call it a regression; 0 for
	// per-layer metrics, which carry no bound.
	Bound float64
	// Exact marks counts and simulated-time values: for one seed they
	// must repeat exactly, and -compare fails on any difference.
	Exact bool
}

// endToEnd is what BENCHMARK.json gates, reported by every workload.
// setup_s takes the widest bound: it is the median of only a few
// set-ups per run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "compile_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "pkts_per_s", Unit: "pkt/s", Better: "higher", Bound: 0.10},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// simulated are the issue's remaining end-to-end metrics. They exist on
// some workloads only and may be 0, which BENCHMARK.json's end_to_end
// list cannot express, so they are listed there under per_layer; bench
// itself prints them with the end-to-end block and -compare requires
// them to repeat exactly.
var simulated = []metricDef{
	{Name: "sim_fct_p50_ticks", Unit: "ticks", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "sim_fct_p99_ticks", Unit: "ticks", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "sim_drop_share", Unit: "share", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "sim_retrans_share", Unit: "share", Better: "lower", Bound: 0.02, Exact: true},
}

// reported is what bench prints and -compare walks as end-to-end: the
// gated metrics, then the simulated ones.
var reported = append(append([]metricDef(nil), endToEnd...), simulated...)

// catalogPrograms are the 21 programs of the catalog workload, the keys
// of the compile.prog.<name>_s rows.
var catalogPrograms = []string{
	"bloom_filter", "heavy_hitters", "flowlets", "rcp", "sampled_netflow",
	"hull", "avq", "stfq_wfq", "dns_ttl", "conga", "codel",
	"stfq_rank", "strict_priority_rank", "wrr_rank", "token_bucket_shape",
	"sched_ingress",
	"ecmp_route", "flowlet_route", "conga_route", "spine_route", "fat_agg_route",
}

// machinePrograms are the three programs whose traces run through the
// bare machine on the catalog workload.
var machinePrograms = []string{"flowlets", "heavy_hitters", "conga"}

// perLayer is every per-layer metric, in ladder order from lexer to
// transport. A workload reports 0 for a layer it does not run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	sec := func(n string) metricDef { return metricDef{Name: n, Unit: "s", Better: "lower"} }
	ns := func(n string) metricDef { return metricDef{Name: n, Unit: "ns", Better: "lower"} }
	cnt := func(n string) metricDef { return metricDef{Name: n, Unit: "count", Better: "lower", Exact: true} }
	rate := func(n string) metricDef { return metricDef{Name: n, Unit: "pkt/s", Better: "higher"} }
	ratio := func(n string, better string) metricDef { return metricDef{Name: n, Unit: "ratio", Better: better} }

	m := []metricDef{
		sec("parser.parse_s"), cnt("lexer.tokens"),
		sec("sema.check_s"),
		sec("passes.normalize_s"), cnt("passes.ir_stmts"),
		sec("pvsm.build_s"), cnt("pvsm.codelets"), cnt("pvsm.stages"),
		sec("synth.map_s"), cnt("synth.codelets_mapped"), ratio("synth.share_of_compile", "lower"),
		sec("codegen.least_s"), cnt("codegen.targets_tried"), cnt("codegen.atoms"), cnt("codegen.rejected"),
	}
	for _, p := range catalogPrograms {
		m = append(m, sec("compile.prog."+p+"_s"))
	}
	m = append(m,
		sec("p4gen.generate_s"), cnt("p4gen.loc"),
		sec("banzai.build_s"), cnt("banzai.ops_pre"), cnt("banzai.ops_post"), cnt("banzai.slots_post"),
	)
	for _, p := range machinePrograms {
		m = append(m, rate("banzai.batch."+p+".pkts_per_s"))
	}
	for _, p := range machinePrograms {
		m = append(m, rate("banzai.tickh."+p+".pkts_per_s"))
	}
	m = append(m,
		ratio("banzai.batch_stage.ratio", "higher"), ratio("banzai.sharded2.ratio", "higher"),
		metricDef{Name: "banzai.allocs_per_pkt", Unit: "count", Better: "lower"},
		rate("interp.pkts_per_s"), cnt("interp.mismatches"),
		ns("pifo.enq_deq_ns_per_pkt"), ns("pifo.self_ns_per_pkt"), cnt("pifo.max_depth"),
		metricDef{Name: "pifo.share_err", Unit: "share", Better: "lower", Exact: true},
		ns("switchsim.fifo_ns_per_pkt"), ns("switchsim.self_ns_per_pkt"),
		cnt("switchsim.enqueues"), cnt("switchsim.drops"), cnt("switchsim.departures"),
		ns("ladder.banzai_ns_per_hop"), ns("ladder.switch_ns_per_hop"),
		ns("ladder.fabric_ns_per_hop"), ns("ladder.harness_ns_per_hop"),
		sec("netsim.compile_s"), sec("netsim.build_s"),
		cnt("netsim.steps"), cnt("netsim.ticks"),
		metricDef{Name: "netsim.skipped_share", Unit: "share", Better: "higher", Exact: true},
		ns("netsim.ns_per_step"),
		metricDef{Name: "netsim.pkts_per_step", Unit: "pkt", Better: "higher", Exact: true},
		cnt("netsim.hops"), cnt("netsim.delivered_pkts"), cnt("netsim.fb_pkts"), cnt("netsim.dropped_pkts"),
		metricDef{Name: "netsim.max_core_util", Unit: "share", Better: "higher", Exact: true},
		metricDef{Name: "netsim.imbalance", Unit: "ratio", Better: "lower", Exact: true},
		cnt("netsim.live_headers_end"), ratio("netsim.polled_ratio", "higher"),
		cnt("transport.retrans_pkts"), cnt("transport.fast_retrans_pkts"),
		cnt("transport.dup_dropped_pkts"), cnt("transport.given_up_pkts"), cnt("transport.rate_cuts"),
		metricDef{Name: "transport.mean_ack_ticks", Unit: "ticks", Better: "lower", Exact: true},
		ns("transport.self_ns_per_accept"),
		cnt("faults.schedules"), cnt("faults.events"),
		cnt("faults.blackholed_pkts"), cnt("faults.corrupt_dropped_pkts"),
		metricDef{Name: "telemetry.qdepth_p99_bytes", Unit: "bytes", Better: "lower", Exact: true},
		metricDef{Name: "telemetry.rtt_p99_ticks", Unit: "ticks", Better: "lower", Exact: true},
		ratio("telemetry.on_ratio", "lower"),
		sec("workload.gen_s"),
		metricDef{Name: "trace.spans", Unit: "count", Better: "lower"},
		ratio("trace.overhead_share", "lower"),
	)
	for _, d := range simulated {
		d.Bound = 0
		m = append(m, d)
	}
	return m
}

// workloadWhy is BENCHMARK.json's one-line reason for each workload.
var workloadWhy = map[string]string{
	"catalog":         "compiler does all of compile_s and the bare machine all of pkts_per_s: 21 programs compiled, three slab traces batched; no switch, no fabric",
	"switch-pifo":     "one 4-port switch at 256-byte packets, 1.25x offered load into bounded STFQ PIFOs: pifo and switchsim carry the per-packet cost, compiler and fabric none",
	"leafspine-dense": "8x4x4 leaf-spine under CONGA where every tick is busy, so the event core skips nothing: pipelines, links, bridging and feedback reflection do the work",
	"fattree-sparse":  "k=8 fat tree where nine ticks in ten are idle and skipped: per-step harness cost over 80 switches dominates, the pipelines do little",
	"reliable-chaos":  "fresh 4x2 fabrics under seeded fault schedules with the reliable transport on: transport and faults do the work the raw replay path bypasses",
}

// stat summarises one metric's samples within a run.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reports the median and quartiles of xs (the inclusive
// method, so one or two samples still give finite quartiles).
func summarize(unit string, xs []float64) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return stat{Unit: unit, Median: q(0.5), Q1: q(0.25), Q3: q(0.75), N: len(s)}
}

func single(unit string, v float64) stat {
	return stat{Unit: unit, Median: v, Q1: v, Q3: v, N: 1}
}

// percentile returns the p-th percentile (0..100) of sorted samples, the
// nearest-rank convention netsim's own FCT reports use; -1 when empty.
func percentile(sorted []int64, p int) float64 {
	if len(sorted) == 0 {
		return -1
	}
	return float64(sorted[(len(sorted)*p)/100])
}
