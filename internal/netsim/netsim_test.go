package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"domino/internal/algorithms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/switchsim"
	"domino/internal/workload"
)

// checkNet asserts the network-wide conservation identity, failing the
// test with the violation's arithmetic when it breaks.
func checkNet(t *testing.T, n *Network) {
	t.Helper()
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// buildLS builds sc's fabric as the leaf-spine it describes.
func buildLS(t testing.TB, sc Scenario) *LeafSpine {
	t.Helper()
	f, err := sc.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return f.(*LeafSpine)
}

// buildFT is buildLS for a fat-tree scenario.
func buildFT(t testing.TB, sc Scenario) *FatTree {
	t.Helper()
	f, err := sc.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return f.(*FatTree)
}

// mustStart arms sc (fabric, trace, transport, faults) or fails the test.
func mustStart(t testing.TB, sc Scenario) *Run {
	t.Helper()
	r, err := sc.Start()
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	return r
}

// mustStep advances n one tick; a wiring or watchdog error fails the test.
func mustStep(t testing.TB, n *Network) {
	t.Helper()
	if err := n.Step(); err != nil {
		t.Fatal(err)
	}
}

// delivery is one OnDeliver record — the unit of the determinism tests'
// byte-identical departure sequences.
type delivery struct {
	Tick int64
	Ev   Delivery
}

// recordDeliveries attaches an OnDeliver hook that appends every sink
// event to the returned slice.
func recordDeliveries(n *Network) *[]delivery {
	var out []delivery
	n.OnDeliver = func(ev Delivery) {
		out = append(out, delivery{Tick: n.Now(), Ev: ev})
	}
	return &out
}

// TestLeafSpineBalance is the PR's headline experiment at test scale: on
// a 4-leaf/2-spine fabric under a cross-leaf permutation matrix, CONGA
// and flowlet routing must spread load over the core measurably better
// than ECMP, with every injected packet conserved.
func TestLeafSpineBalance(t *testing.T) {
	imb := map[string]float64{}
	for _, routing := range []string{"ecmp_route", "flowlet_route", "conga_route"} {
		res, err := RunScenario(Scenario{Routing: routing, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", routing, err)
		}
		checkNet(t, res.Fabric.Network())
		if res.Totals.DroppedPkts != 0 {
			t.Errorf("%s: %d drops at default queue caps", routing, res.Totals.DroppedPkts)
		}
		if res.FCT.Completed != res.FCT.Flows {
			t.Errorf("%s: %d/%d flows completed", routing, res.FCT.Completed, res.FCT.Flows)
		}
		if res.Totals.InjectedPkts == 0 || res.Totals.DeliveredPkts != res.Totals.InjectedPkts {
			t.Errorf("%s: injected %d delivered %d", routing, res.Totals.InjectedPkts, res.Totals.DeliveredPkts)
		}
		imb[routing] = res.Imbalance
	}
	if imb["flowlet_route"] >= imb["ecmp_route"] {
		t.Errorf("flowlet imbalance %.3f not better than ECMP %.3f",
			imb["flowlet_route"], imb["ecmp_route"])
	}
	if imb["conga_route"] >= imb["ecmp_route"] {
		t.Errorf("CONGA imbalance %.3f not better than ECMP %.3f",
			imb["conga_route"], imb["ecmp_route"])
	}
}

// TestConservationEveryTick drives a deliberately under-provisioned
// fabric (tiny queue caps force multi-hop drops at both leaf uplinks and
// spine downlinks) and asserts the conservation identity at every single
// tick boundary, not just after the drain.
func TestConservationEveryTick(t *testing.T) {
	cfg := Scenario{
		Routing:            "ecmp_route",
		Seed:               7,
		QueueCapBytes:      1600, // one 1500 B packet per port
		UplinkBytesPerTick: 1500,
		FlowsPerHost:       4,
		PktsPerFlow:        96,
	}
	cfg.setDefaults()
	ls := buildLS(t, cfg)
	tr := cfg.Trace()
	if err := ls.Net.SetTrace(tr, ls.Hosts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(DrainLimit); i++ {
		mustStep(t, ls.Net)
		checkNet(t, ls.Net)
		if ls.Net.idle() {
			break
		}
	}
	tot := ls.Net.Totals()
	if tot.DroppedPkts == 0 {
		t.Fatal("under-provisioned fabric dropped nothing; the drop path went untested")
	}
	if tot.QueuedPkts != 0 || tot.InFlightPkts != 0 {
		t.Fatalf("network not drained: %d queued, %d in flight", tot.QueuedPkts, tot.InFlightPkts)
	}
	// Flows that lost packets must report FCT -1, completed ones >= 0.
	lost := 0
	for _, fct := range ls.Net.FlowFCTs() {
		if fct < 0 {
			lost++
		}
	}
	if lost == 0 {
		t.Error("packets dropped but every flow claims completion")
	}

	// The same identity must hold per switch, including mid-fabric ones.
	for _, id := range append(append([]NodeID{}, ls.Leaves...), ls.Spines...) {
		sw, err := ls.Net.Switch(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.CheckConservation(); err != nil {
			t.Fatalf("switch %d: %v", id, err)
		}
	}
}

// TestConservationWithFeedback: CONGA's reflected feedback packets are
// injections too — the identity must absorb them (and their drops) at
// every tick.
func TestConservationWithFeedback(t *testing.T) {
	cfg := Scenario{
		Routing:       "conga_route",
		Seed:          11,
		QueueCapBytes: 6000,
	}
	cfg.setDefaults()
	ls := buildLS(t, cfg)
	if !ls.Net.Feedback {
		t.Fatal("conga_route did not enable feedback reflection")
	}
	if err := ls.Net.SetTrace(cfg.Trace(), ls.Hosts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(DrainLimit) && !ls.Net.idle(); i++ {
		mustStep(t, ls.Net)
		checkNet(t, ls.Net)
	}
	var fb int64
	for _, id := range ls.Hosts {
		h, err := ls.Net.HostByID(id)
		if err != nil {
			t.Fatal(err)
		}
		fb += h.FbPkts
	}
	if fb == 0 {
		t.Fatal("no feedback packets delivered under conga_route")
	}
}

// TestNetsimDeterminism: two runs from the same seed produce
// byte-identical delivery sequences, link stats and totals — the
// network-level closure of the workload-trace determinism guarantee.
func TestNetsimDeterminism(t *testing.T) {
	run := func() ([]delivery, []LinkStats, NetTotals) {
		cfg := Scenario{Routing: "conga_route", Seed: 3}
		cfg.setDefaults()
		ls := buildLS(t, cfg)
		rec := recordDeliveries(ls.Net)
		if err := ls.Net.SetTrace(cfg.Trace(), ls.Hosts); err != nil {
			t.Fatal(err)
		}
		if err := ls.Net.Drain(DrainLimit); err != nil {
			t.Fatal(err)
		}
		return *rec, ls.Net.LinkStats(), ls.Net.Totals()
	}
	d1, l1, t1 := run()
	d2, l2, t2 := run()
	if len(d1) == 0 {
		t.Fatal("no deliveries recorded")
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("same seed produced different delivery sequences")
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatal("same seed produced different link stats")
	}
	if t1 != t2 {
		t.Fatalf("same seed produced different totals: %+v vs %+v", t1, t2)
	}
}

// TestShardedFlowPinnedDeterminism: a sharded machine whose key fields
// pin every flow to one shard produces identical per-packet outputs and
// aggregate state across two runs — the sharded data path stays
// deterministic even under the race detector's schedule perturbation.
func TestShardedFlowPinnedDeterminism(t *testing.T) {
	r, err := algorithms.RoutingByName("flowlet_route")
	if err != nil {
		t.Fatal(err)
	}
	src, err := r.Source(algorithms.RouteParams{LeafID: 0, Leaves: 4, Spines: 2, HostsPerLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.CompileLeastSource(src)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.PermutationTrace(5, 8, 2, 64, 1500, 8, 40)

	run := func() [][]int32 {
		sm, err := banzai.NewSharded(prog, 4, "sport", "dport")
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Close()
		l := sm.Layout()
		hs := make([]banzai.Header, len(tr.Packets))
		for i, p := range tr.Packets {
			h := l.NewHeader()
			if s, ok := l.Slot("sport"); ok {
				h[s] = p.Sport
			}
			if s, ok := l.Slot("dport"); ok {
				h[s] = p.Dport
			}
			if s, ok := l.Slot("arrival"); ok {
				h[s] = int32(uint32(p.Arrival))
			}
			if s, ok := l.Slot("dst"); ok {
				h[s] = p.Dst
			}
			hs[i] = h
		}
		for lo := 0; lo < len(hs); lo += 256 {
			hi := min(lo+256, len(hs))
			if err := sm.ProcessBatch(hs[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		out := make([][]int32, len(hs))
		for i, h := range hs {
			out[i] = []int32(h)
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("flow-pinned sharded runs diverged")
	}
}

// TestNetHotPathZeroAlloc enforces the PR's data-path contract in CI
// (the benchmark only reports it): once pools and rings are warm, a
// packet's whole life — host inject, leaf pipeline, core links, spine
// pipeline, sink — allocates nothing.
func TestNetHotPathZeroAlloc(t *testing.T) {
	cfg := Scenario{Routing: "ecmp_route", Seed: 1}
	ls := buildLS(t, cfg)
	if err := ls.Net.MapHosts(ls.Hosts); err != nil {
		t.Fatal(err)
	}
	pkts := cfg.Trace().Packets
	for i := range pkts {
		if err := ls.Net.InjectNow(&pkts[i]); err != nil {
			t.Fatal(err)
		}
		if i&3 == 3 {
			mustStep(t, ls.Net)
		}
	}
	if err := ls.Net.Drain(1 << 20); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(4000, func() {
		if err := ls.Net.InjectNow(&pkts[i%len(pkts)]); err != nil {
			t.Fatal(err)
		}
		if i&3 == 3 {
			mustStep(t, ls.Net)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("network hot path allocates %.1f times per packet, want 0", allocs)
	}
	checkNet(t, ls.Net)
}

// TestLeafSpineShape: the builder wires leaves*spines*2 core links plus
// one downlink per host, rejects degenerate shapes, and CoreLinks
// reports exactly the core.
func TestLeafSpineShape(t *testing.T) {
	cfg := Scenario{Routing: "ecmp_route", Seed: 2, Leaves: 3, Spines: 2, HostsPerLeaf: 2}
	cfg.setDefaults()
	ls := buildLS(t, cfg)
	wantLinks := cfg.Leaves*cfg.Spines*2 + cfg.Leaves*cfg.HostsPerLeaf
	if got := len(ls.Net.LinkStats()); got != wantLinks {
		t.Fatalf("%d links wired, want %d", got, wantLinks)
	}
	if got := len(ls.Net.CoreLinks()); got != cfg.Leaves*cfg.Spines*2 {
		t.Fatalf("%d core links, want %d", got, cfg.Leaves*cfg.Spines*2)
	}
	if _, err := NewLeafSpine(LeafSpineConfig{Leaves: 0, Spines: 1, HostsPerLeaf: 1}); err == nil {
		t.Fatal("degenerate fabric accepted")
	}
	if _, err := RunScenario(Scenario{Routing: "nope"}); err == nil {
		t.Fatal("unknown routing accepted")
	}
	if _, err := RunScenario(Scenario{Routing: "spine_route"}); err == nil {
		t.Fatal("spine transaction accepted as leaf routing")
	}
}

// compileSpine builds the positional spine program used by the
// hand-wired topology tests.
func compileSpine(t *testing.T, hostsPerLeaf int) *codegen.Program {
	t.Helper()
	src, err := algorithms.SpineRouteSource(algorithms.RouteParams{
		Leaves: 2, Spines: 1, HostsPerLeaf: hostsPerLeaf,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.CompileLeastSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNetworkWiringErrors covers the topology-construction error paths:
// double binds, out-of-range ports, non-switch sources, unknown nodes,
// post-start mutation, and the unbound-port Start error / Tick panic.
func TestNetworkWiringErrors(t *testing.T) {
	prog := compileSpine(t, 1)
	n := New()
	sw, err := n.AddSwitch("s0", prog, switchsim.Config{Ports: 2, RouteField: algorithms.RouteOutPort})
	if err != nil {
		t.Fatal(err)
	}
	h, err := n.AddHost("h0", sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("h1", h); err == nil {
		t.Fatal("host attached to a non-switch")
	}
	if _, err := n.AddHost("h1", NodeID(99)); err == nil {
		t.Fatal("host attached to an unknown node")
	}
	if err := n.Connect(sw, 5, h, LinkOptions{}); err == nil {
		t.Fatal("out-of-range port bound")
	}
	if err := n.Connect(h, 0, sw, LinkOptions{}); err == nil {
		t.Fatal("host used as a link source")
	}
	if err := n.Connect(sw, 0, NodeID(99), LinkOptions{}); err == nil {
		t.Fatal("link to an unknown node bound")
	}
	if err := n.Connect(sw, 0, h, LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(sw, 0, h, LinkOptions{}); err == nil {
		t.Fatal("port double-bound")
	}
	if _, err := n.SwitchStats(h); err == nil {
		t.Fatal("SwitchStats on a host")
	}
	if _, err := n.HostByID(sw); err == nil {
		t.Fatal("HostByID on a switch")
	}
	if err := n.MapHosts([]NodeID{sw}); err == nil {
		t.Fatal("switch mapped as a trace host")
	}
	tr := &workload.NetTrace{Packets: []workload.NetPacket{{Src: 3}}}
	if err := n.SetTrace(tr, []NodeID{h}); err == nil {
		t.Fatal("trace with out-of-range hosts accepted")
	}

	// Port 1 is still unbound: Start (and the Run/Drain/InjectNow paths
	// built on it) must return the wiring error, as must the first Step.
	if err := n.Start(); err == nil {
		t.Fatal("Start with an unbound port returned nil")
	}
	if err := n.Run(10); err == nil {
		t.Fatal("Run with an unbound port returned nil")
	}
	if err := n.Drain(10); err == nil {
		t.Fatal("Drain with an unbound port returned nil")
	}
	if err := n.InjectNow(&workload.NetPacket{}); err == nil {
		t.Fatal("InjectNow with an unbound port returned nil")
	}
	if err := n.Step(); err == nil {
		t.Fatal("Step with an unbound port returned nil")
	}

	// Fully wire it; then post-start mutation must be rejected.
	n2 := New()
	s2, _ := n2.AddSwitch("s0", prog, switchsim.Config{Ports: 1, RouteField: algorithms.RouteOutPort})
	h2, _ := n2.AddHost("h0", s2)
	if err := n2.Connect(s2, 0, h2, LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	mustStep(t, n2)
	if _, err := n2.AddSwitch("late", prog, switchsim.Config{Ports: 1}); err == nil {
		t.Fatal("switch added after the clock started")
	}
	if _, err := n2.AddHost("late", s2); err == nil {
		t.Fatal("host added after the clock started")
	}
	if err := n2.Connect(s2, 0, h2, LinkOptions{}); err == nil {
		t.Fatal("connect after the clock started")
	}
	if err := n2.InjectNow(&workload.NetPacket{Src: 0}); err == nil {
		t.Fatal("InjectNow without MapHosts accepted")
	}
}

// TestLinkDelayAndCapacity: a packet emitted at tick t on a delay-d link
// arrives at t+d, and a link's CapacityBytesPerTick overrides the feeding
// port's service rate.
func TestLinkDelayAndCapacity(t *testing.T) {
	prog := compileSpine(t, 1)
	n := New()
	sw, _ := n.AddSwitch("s0", prog, switchsim.Config{
		Ports: 1, RouteField: algorithms.RouteOutPort, ServiceBytesPerTick: 10000,
	})
	h, _ := n.AddHost("h0", sw)
	const delay = 5
	if err := n.Connect(sw, 0, h, LinkOptions{Delay: delay, CapacityBytesPerTick: 1500}); err != nil {
		t.Fatal(err)
	}
	s, _ := n.Switch(sw)
	if got := s.PortRate(0); got != 1500 {
		t.Fatalf("link capacity did not override the port rate: %d", got)
	}
	if err := n.MapHosts([]NodeID{h}); err != nil {
		t.Fatal(err)
	}
	rec := recordDeliveries(n)
	// Two packets, one injection tick: at 1500 B/tick the second waits a
	// tick, and each rides the link for `delay` ticks.
	for i := 0; i < 2; i++ {
		if err := n.InjectNow(&workload.NetPacket{Src: 0, Dst: 0, Size: 1500}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(100); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if len(*rec) != 2 {
		t.Fatalf("%d deliveries, want 2", len(*rec))
	}
	// Injection at tick 0 → departs the switch at tick 1 → delivered at
	// 1+delay; the second packet a tick later.
	if (*rec)[0].Tick != 1+delay || (*rec)[1].Tick != 2+delay {
		t.Fatalf("delivery ticks %d/%d, want %d/%d", (*rec)[0].Tick, (*rec)[1].Tick, 1+delay, 2+delay)
	}
}

// TestCrossProgramBridge: two switches running *different* compiled
// programs still hand packets across a link correctly — the by-name
// field bridge, not the same-layout copy fast path.
func TestCrossProgramBridge(t *testing.T) {
	leafSrc, err := algorithms.ECMPRouteSource(algorithms.RouteParams{
		LeafID: 0, Leaves: 2, Spines: 1, HostsPerLeaf: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	leafProg, err := codegen.CompileLeastSource(leafSrc)
	if err != nil {
		t.Fatal(err)
	}
	spineProg := compileSpine(t, 1)

	n := New()
	leaf, _ := n.AddSwitch("leaf0", leafProg, switchsim.Config{Ports: 2, RouteField: algorithms.RouteOutPort})
	spine, _ := n.AddSwitch("spine0", spineProg, switchsim.Config{Ports: 2, RouteField: algorithms.RouteOutPort})
	h0, _ := n.AddHost("h0", leaf)
	h1, _ := n.AddHost("h1", spine) // stands in for the remote leaf's host
	if err := n.Connect(leaf, 0, spine, LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(leaf, 1, h0, LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(spine, 0, h1, LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(spine, 1, h1, LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := n.MapHosts([]NodeID{h0, h1}); err != nil {
		t.Fatal(err)
	}
	rec := recordDeliveries(n)
	// dst=1 is remote for leaf 0 → uplink → spine routes by dst/1 = port 1.
	if err := n.InjectNow(&workload.NetPacket{Src: 0, Dst: 1, Sport: 9, Dport: 10, Flow: 42, Size: 800}); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(50); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if len(*rec) != 1 {
		t.Fatalf("%d deliveries, want 1", len(*rec))
	}
	// The flow id crossed the program boundary intact: the bridge copied
	// it by name into the spine's layout, and the sink read it there.
	if d := (*rec)[0]; d.Ev.Host != h1 || d.Ev.Flow != 42 || d.Ev.Size != 800 {
		t.Fatalf("delivery %+v, want host %d flow 42 size 800", d, h1)
	}
	st, err := n.SwitchStats(spine)
	if err != nil {
		t.Fatal(err)
	}
	if st[1].Departures != 1 {
		t.Fatalf("spine port 1 served %d packets, want 1", st[1].Departures)
	}
}

// TestImbalanceMetric pins the (max-min)/mean definition.
func TestImbalanceMetric(t *testing.T) {
	for _, tc := range []struct {
		bytes []int64
		want  float64
	}{
		{nil, 0},
		{[]int64{0, 0}, 0},
		{[]int64{5, 5, 5}, 0},
		{[]int64{0, 10}, 2},
		{[]int64{10, 20, 30}, 1},
	} {
		if got := Imbalance(tc.bytes); got != tc.want {
			t.Errorf("Imbalance(%v) = %v, want %v", tc.bytes, got, tc.want)
		}
	}
}

// TestExperimentTraceIsCrossLeaf: every packet of the experiment's
// traffic matrix crosses the core.
func TestExperimentTraceIsCrossLeaf(t *testing.T) {
	cfg := Scenario{Seed: 9}
	cfg.setDefaults()
	tr := cfg.Trace()
	if len(tr.Packets) == 0 {
		t.Fatal("empty trace")
	}
	for _, p := range tr.Packets {
		if p.Src/int32(cfg.HostsPerLeaf) == p.Dst/int32(cfg.HostsPerLeaf) {
			t.Fatalf("packet %+v stays under one leaf", p)
		}
	}
}

func ExampleImbalance() {
	fmt.Println(Imbalance([]int64{100, 100, 100, 100}))
	fmt.Println(Imbalance([]int64{200, 0, 200, 0}))
	// Output:
	// 0
	// 2
}
