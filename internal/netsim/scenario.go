package netsim

// A Scenario is one fabric experiment as a value: a topology shape × the
// routing transaction on its host-facing tier × a workload × link
// parameters × the ECN/INT blocks × an optional fault schedule × an
// optional reliable transport × telemetry. Everything the evaluation runs
// — the load-balance table CONGA and flowlet switching are judged by, the
// core-outage and gray-failure reports, fat-tree flow completion times,
// the chaos soak (presets.go, soak.go) — is a Scenario driven by the one
// runner here: Build compiles and wires the fabric, Start arms it, Finish
// drains it under every oracle and summarizes. A new experiment axis is a
// field, not another runner.

import (
	"fmt"
	"sort"

	"domino/internal/algorithms"
	"domino/internal/codegen"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

// Scenario parameterizes one run. Zero values take the defaults in
// brackets.
type Scenario struct {
	// Routing names the host-facing tier's routing transaction in the
	// internal/algorithms catalog (ecmp_route, flowlet_route, conga_route).
	Routing string

	// Shape: a nonzero K builds a k-ary fat tree (K even), otherwise a
	// Leaves × Spines leaf-spine with HostsPerLeaf hosts per leaf [4, 2, 2].
	Leaves, Spines, HostsPerLeaf int
	K                            int

	Seed int64 // seeds the trace; the presets seed their fault schedules from it too

	// Workload. By default a cross-leaf permutation matrix (every host
	// sends to a host under a different leaf, so all data traffic crosses
	// the core) of bursty flows: FlowsPerHost flows [2] of PktsPerFlow
	// packets [64] in bursts of ~MeanBurst packets [8] separated by idle
	// gaps longer than BurstGap ticks [40].
	FlowsPerHost, PktsPerFlow, MeanBurst, BurstGap int
	// HeavyTailed, when set, replaces the permutation with Poisson flow
	// arrivals of bounded-Pareto sizes over the fabric's hosts (its Hosts
	// field is filled in from the shape; zero Flows means 8 per host).
	HeavyTailed *workload.HeavyTailedConfig

	UplinkBytesPerTick   int64 // switch↔switch link capacity [3000]
	DownlinkBytesPerTick int64 // access link capacity [6000]
	LinkDelay            int64 // propagation ticks [1]
	QueueCapBytes        int64 // per-port queue bound [1 << 20]

	// ECN embeds the ecn_mark block in every program: packets passing a
	// port whose queue depth exceeds ECNThresholdBytes (default
	// algorithms.DefaultECNThresholdBytes) get their ecn bit set, which the
	// reliable transport's ACKs echo to the sender. INT embeds int_stamp:
	// each hop stamps hop count, queue-depth max/sum and the path digest
	// (see algorithms.INTStampSource).
	ECN               bool
	ECNThresholdBytes int32
	INT               bool

	// Telemetry and Ring, when non-nil, instrument the run (see
	// Network.SetTelemetry): per-switch and network metrics land in the
	// sink, sampled per-packet events in the ring.
	Telemetry telemetry.Sink
	Ring      *telemetry.Ring

	// Faults, when set, scripts the run's failures against the built
	// fabric (schedules name nodes, which exist only once it is wired).
	Faults func(Fabric) *FaultSchedule
	// Transport, when set, replaces raw trace replay (lost is lost) with
	// the reliable host transport. Its congestion signal is the ecn_mark
	// transaction, so reliable scenarios normally set ECN too.
	Transport *TransportConfig
}

const (
	// packetBytes is the permutation workload's packet size: one MTU,
	// which is HeavyTailedConfig's default too.
	packetBytes = 1500
	// DrainLimit bounds a run's total ticks — a safety net behind the
	// no-progress watchdog, far above any shipped scenario's length.
	DrainLimit = 1 << 22
	// micePkts and elephantPkts split flows by size, following the
	// datacenter evaluation convention: mice are flows under 10 packets
	// (latency-bound), elephants 100 packets and up.
	micePkts, elephantPkts = 10, 100
)

// orDefault gives a zero-valued parameter its default.
func orDefault[T comparable](p *T, def T) {
	var zero T
	if *p == zero {
		*p = def
	}
}

func (sc *Scenario) setDefaults() {
	if sc.K == 0 {
		orDefault(&sc.Leaves, 4)
		orDefault(&sc.Spines, 2)
		orDefault(&sc.HostsPerLeaf, 2)
	}
	orDefault(&sc.FlowsPerHost, 2)
	orDefault(&sc.PktsPerFlow, 64)
	orDefault(&sc.MeanBurst, 8)
	orDefault(&sc.BurstGap, 40)
	orDefault(&sc.UplinkBytesPerTick, 3000)
	orDefault(&sc.DownlinkBytesPerTick, 6000)
	orDefault(&sc.LinkDelay, 1)
	orDefault(&sc.QueueCapBytes, 1<<20)
}

// hostTier sizes the host-facing tier: leaves (fat-tree edges) and the
// hosts under each. Host ids are dense in both shapes — host h sits under
// leaf h/perLeaf — which is what lets one workload generator and one
// leaf routing transaction serve either.
func (sc *Scenario) hostTier() (leaves, perLeaf int) {
	if sc.K != 0 {
		return sc.K * sc.K / 2, sc.K / 2
	}
	return sc.Leaves, sc.HostsPerLeaf
}

// Trace generates the scenario's traffic; all draws come from Seed.
func (sc Scenario) Trace() *workload.NetTrace {
	sc.setDefaults()
	leaves, perLeaf := sc.hostTier()
	if sc.HeavyTailed != nil {
		ht := *sc.HeavyTailed
		ht.Hosts = leaves * perLeaf
		orDefault(&ht.Flows, 8*ht.Hosts)
		return workload.HeavyTailedTrace(sc.Seed, ht)
	}
	perm := workload.CrossLeafPermutation(sc.Seed, leaves, perLeaf)
	pairs := make([][2]int, len(perm))
	for h, p := range perm {
		pairs[h] = [2]int{h, p}
	}
	return workload.HostPairTrace(sc.Seed, pairs, sc.FlowsPerHost, sc.PktsPerFlow,
		packetBytes, sc.MeanBurst, sc.BurstGap)
}

// Fabric is what the runner needs of a built topology, whichever its
// shape; *LeafSpine and *FatTree implement it. The host-facing tier's
// ports follow one convention in both (uplinks first, then hosts), so a
// fault schedule written against LeafIDs works on either.
type Fabric interface {
	Network() *Network
	HostIDs() []NodeID // dense: trace host i is HostIDs()[i]
	LeafIDs() []NodeID // the host-facing tier: leaves, or fat-tree edges
}

// Build compiles the scenario's routing programs and wires its fabric,
// without installing traffic — the entry point for callers that drive
// the network themselves (benchmarks, determinism and differential tests).
func (sc Scenario) Build() (Fabric, error) {
	sc.setDefaults()
	r, err := algorithms.RoutingByName(sc.Routing)
	if err != nil {
		return nil, err
	}
	if !r.Leaf {
		return nil, fmt.Errorf("netsim: %q is not a leaf routing policy", sc.Routing)
	}
	type programs = func(int) (*codegen.Program, error)
	// tier compiles one switch tier: position i runs source(params(i))
	// with the scenario's ECN and INT blocks embedded.
	tier := func(source func(algorithms.RouteParams) (string, error), params func(i int) algorithms.RouteParams) programs {
		return func(i int) (*codegen.Program, error) {
			p := params(i)
			p.ECN, p.ECNThresholdBytes, p.INT = sc.ECN, sc.ECNThresholdBytes, sc.INT
			src, err := source(p)
			if err != nil {
				return nil, err
			}
			return codegen.CompileLeastSource(src)
		}
	}
	// shared compiles a tier once: its switches differ only by position
	// (spines, cores), and switches running one program bridge to each
	// other on the copy fast path.
	shared := func(compile programs) programs {
		prog, err := compile(0)
		return func(int) (*codegen.Program, error) { return prog, err }
	}
	var f Fabric
	if half := sc.K / 2; sc.K != 0 {
		// Edges are unmodified leaf programs over K·K/2 "leaves" whose
		// "spines" are the pod's aggs; aggs differ only by pod (NewFatTree
		// compiles one per pod); to a core a pod is one big leaf.
		pos := func(id, leaves, hostsPerLeaf int) algorithms.RouteParams {
			return algorithms.RouteParams{LeafID: id, Leaves: leaves, Spines: half, HostsPerLeaf: hostsPerLeaf}
		}
		var ft *FatTree
		ft, err = NewFatTree(FatTreeConfig{
			K:           sc.K,
			EdgeProgram: tier(r.Source, func(e int) algorithms.RouteParams { return pos(e, sc.K*half, half) }),
			AggProgram:  tier(algorithms.FatAggRouteSource, func(pod int) algorithms.RouteParams { return pos(pod, sc.K, half) }),
			CoreProgram: shared(tier(algorithms.SpineRouteSource, func(int) algorithms.RouteParams { return pos(0, sc.K, half*half) })),

			UplinkBytesPerTick: sc.UplinkBytesPerTick, DownlinkBytesPerTick: sc.DownlinkBytesPerTick,
			LinkDelay: sc.LinkDelay, QueueCapBytes: sc.QueueCapBytes,
			RouteField: algorithms.RouteOutPort, Telemetry: sc.Telemetry, Trace: sc.Ring,
		})
		f = ft
	} else {
		pos := func(leaf int) algorithms.RouteParams {
			return algorithms.RouteParams{LeafID: leaf, Leaves: sc.Leaves, Spines: sc.Spines, HostsPerLeaf: sc.HostsPerLeaf}
		}
		var ls *LeafSpine
		ls, err = NewLeafSpine(LeafSpineConfig{
			Leaves: sc.Leaves, Spines: sc.Spines, HostsPerLeaf: sc.HostsPerLeaf,
			LeafProgram:  tier(r.Source, pos),
			SpineProgram: shared(tier(algorithms.SpineRouteSource, pos)),

			UplinkBytesPerTick: sc.UplinkBytesPerTick, DownlinkBytesPerTick: sc.DownlinkBytesPerTick,
			LinkDelay: sc.LinkDelay, QueueCapBytes: sc.QueueCapBytes,
			RouteField: algorithms.RouteOutPort, Telemetry: sc.Telemetry, Trace: sc.Ring,
		})
		f = ls
	}
	if err != nil {
		return nil, err
	}
	f.Network().Feedback = r.Feedback
	return f, nil
}

// Run is a started scenario: fabric built, traffic installed, transport
// and faults armed, clock at 0. Drive Net (Run, Step), probe Delivered,
// then Finish.
type Run struct {
	Scenario  Scenario // defaults applied
	Fabric    Fabric
	Net       *Network
	Trace     *workload.NetTrace
	Transport *Transport     // nil on raw replay
	Faults    *FaultSchedule // what Scenario.Faults scripted, nil without
}

// Start builds the fabric and arms it in the one order the network
// accepts: the trace first, then the transport (it indexes the trace),
// then the fault schedule (validated against the finished wiring) — all
// before the first tick.
func (sc Scenario) Start() (*Run, error) {
	sc.setDefaults()
	f, err := sc.Build()
	if err != nil {
		return nil, err
	}
	r := &Run{Scenario: sc, Fabric: f, Net: f.Network(), Trace: sc.Trace()}
	if err := r.Net.SetTrace(r.Trace, f.HostIDs()); err != nil {
		return nil, err
	}
	if sc.Transport != nil {
		if r.Transport, err = r.Net.EnableTransport(*sc.Transport); err != nil {
			return nil, err
		}
	}
	if sc.Faults != nil {
		r.Faults = sc.Faults(f)
		if err := r.Net.SetFaults(r.Faults); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Delivered counts exactly-once data deliveries so far: post-dedup
// acceptances under the transport, plain host receipts on raw replay. Raw
// hosts have no end-to-end checksum or dedup, so they cannot tell a
// misdelivered scrambled packet — or, under FaultLinkDuplicate, a wire
// duplicate — from a first receipt; the raw count is an upper bound on
// raw goodput.
func (r *Run) Delivered() int64 {
	if r.Transport != nil {
		return r.Net.Totals().AcceptedPkts
	}
	var d int64
	for _, id := range r.Fabric.HostIDs() {
		h, _ := r.Net.HostByID(id)
		d += h.RcvdPkts
	}
	return d
}

// FCTSummary condenses per-flow completion times (ticks). Percentiles are
// -1 over an empty class.
type FCTSummary struct {
	Flows, Completed     int
	Mean                 float64
	P50, P95, P99, Max   int64
	MiceP99, ElephantP99 int64 // p99 over flows < 10 pkts, ≥ 100 pkts
}

// summarizeFCTs is the one FCT routine: fcts[f] < 0 marks a flow that
// lost packets and never completed, flowPkts[f] its size in packets.
func summarizeFCTs(fcts []int64, flowPkts []int32) FCTSummary {
	var all, mice, elephants []int64
	var sum int64
	for f, fct := range fcts {
		if fct < 0 {
			continue
		}
		all = append(all, fct)
		sum += fct
		switch pkts := flowPkts[f]; {
		case pkts < micePkts:
			mice = append(mice, fct)
		case pkts >= elephantPkts:
			elephants = append(elephants, fct)
		}
	}
	pctile := func(s []int64, p int) int64 {
		if len(s) == 0 {
			return -1
		}
		return s[min(len(s)*p/100, len(s)-1)]
	}
	for _, s := range [][]int64{all, mice, elephants} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	out := FCTSummary{
		Flows: len(fcts), Completed: len(all),
		P50: pctile(all, 50), P95: pctile(all, 95), P99: pctile(all, 99), Max: pctile(all, 100),
		MiceP99: pctile(mice, 99), ElephantP99: pctile(elephants, 99),
	}
	if len(all) > 0 {
		out.Mean = float64(sum) / float64(len(all))
	}
	return out
}

// Result is a finished run's summary. Fabric is the drained fabric
// itself, kept so observability consumers (paper-eval -telemetry) can
// decode INT path digests and read the run's metrics.
type Result struct {
	Fabric Fabric

	Ticks int64 // simulated ticks
	Steps int64 // processed steps (Ticks − Steps = skipped idle)

	Totals       NetTotals
	Transport    TransportTotals // zero on raw replay
	MeanAckTicks float64         // Transport.MeanAckTicks, 0 on raw replay

	// OfferedPkts is the trace size, DeliveredOnce what Run.Delivered
	// counted at the end; DeliveredFrac and RetransOverhead are their and
	// the retransmissions' ratio to OfferedPkts.
	OfferedPkts, DeliveredOnce     int64
	DeliveredFrac, RetransOverhead float64

	FCT FCTSummary

	// CoreBytes lists bytes per core link — every link that does not end
	// at a host, in creation order; Imbalance is (max-min)/mean over it,
	// MaxCoreUtil the busiest core link's mean utilization over the run.
	CoreBytes   []int64
	Imbalance   float64
	MaxCoreUtil float64
}

// Finish drains the run to completion and asserts what every run must
// satisfy — the conservation identities, an empty header pool, every
// offered packet resolved by the transport — before summarizing.
func (r *Run) Finish() (*Result, error) {
	n, routing := r.Net, r.Scenario.Routing
	if err := n.Drain(DrainLimit); err != nil {
		return nil, err
	}
	if err := n.CheckConservation(); err != nil {
		return nil, fmt.Errorf("netsim: %s run broke conservation: %w", routing, err)
	}
	if live := n.LiveHeaders(); live != 0 {
		return nil, fmt.Errorf("netsim: %s run leaked %d headers", routing, live)
	}
	res := &Result{
		Fabric: r.Fabric, Ticks: n.Now(), Steps: n.Steps(), Totals: n.Totals(),
		OfferedPkts: int64(len(r.Trace.Packets)), DeliveredOnce: r.Delivered(),
		FCT: summarizeFCTs(n.FlowFCTs(), r.Trace.FlowPkts),
	}
	if tp := r.Transport; tp != nil {
		tt := tp.Totals()
		if !tp.Done() || tt.OutstandingPkts != 0 {
			return nil, fmt.Errorf("netsim: %s run drained with the transport unresolved: offered %d, acked %d, given up %d, outstanding %d",
				routing, tt.OfferedPkts, tt.AckedPkts, tt.GivenUpPkts, tt.OutstandingPkts)
		}
		res.Transport, res.MeanAckTicks = tt, tp.MeanAckTicks()
	}
	if res.OfferedPkts > 0 {
		res.DeliveredFrac = float64(res.DeliveredOnce) / float64(res.OfferedPkts)
		res.RetransOverhead = float64(res.Transport.RetransPkts) / float64(res.OfferedPkts)
	}
	for _, l := range n.CoreLinks() {
		res.CoreBytes = append(res.CoreBytes, l.Bytes)
		res.MaxCoreUtil = max(res.MaxCoreUtil, l.Utilization(res.Ticks))
	}
	res.Imbalance = Imbalance(res.CoreBytes)
	return res, nil
}

// RunScenario is start-then-finish: the whole of the load-balance and
// fat-tree FCT experiments.
func RunScenario(sc Scenario) (*Result, error) {
	r, err := sc.Start()
	if err != nil {
		return nil, err
	}
	return r.Finish()
}
