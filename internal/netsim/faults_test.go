package netsim

import (
	"strings"
	"testing"

	"domino/internal/workload"
)

// faultCfg is the shared degradation-experiment shape: small enough to
// run three routings in one test, long enough for steady load across the
// outage windows.
func faultCfg(routing string) Scenario {
	return outageLoad(Scenario{Routing: routing, Seed: 1})
}

// TestFaultRecoveryByRouting is the acceptance experiment: with one
// leaf→spine uplink down for a window mid-run, the failure-aware policies
// (flowlet_route and conga_route read the port_up state array) keep
// ≥90% of their pre-failure delivered throughput, while failure-blind
// ecmp_route keeps hashing onto the dead uplink and does not.
func TestFaultRecoveryByRouting(t *testing.T) {
	recovery := map[string]float64{}
	for _, routing := range []string{"ecmp_route", "flowlet_route", "conga_route"} {
		res, err := RunCoreOutage(faultCfg(routing))
		if err != nil {
			t.Fatalf("%s: %v", routing, err)
		}
		if res.Before.DataPkts == 0 {
			t.Fatalf("%s: no pre-failure traffic measured", routing)
		}
		recovery[routing] = res.Recovery
		t.Logf("%s: before %.3f pkt/tick, during %.3f, after %.3f → recovery %.3f (blackholed %d, dropped %d)",
			routing, res.Before.Rate, res.During.Rate, res.After.Rate, res.Recovery,
			res.Totals.BlackholedPkts, res.Totals.DroppedPkts)
	}
	for _, routing := range []string{"flowlet_route", "conga_route"} {
		if recovery[routing] < 0.9 {
			t.Errorf("%s recovered only %.3f of pre-failure throughput, want >= 0.9", routing, recovery[routing])
		}
	}
	if recovery["ecmp_route"] >= 0.9 {
		t.Errorf("ecmp_route recovered %.3f of pre-failure throughput; a failure-blind policy should stay below 0.9", recovery["ecmp_route"])
	}
}

// TestFaultRunDeterminism replays a schedule mixing an outage, a
// degradation and a corruption window twice and demands byte-identical
// delivery sequences and totals — the fixed-seed reproducibility the
// chaos oracle (and CI -race) relies on.
func TestFaultRunDeterminism(t *testing.T) {
	run := func() ([]delivery, NetTotals) {
		c := faultCfg("conga_route")
		c.Faults = func(f Fabric) *FaultSchedule {
			ls := f.(*LeafSpine)
			return (&FaultSchedule{Seed: 42}).
				LinkDown(outageFail, ls.Leaves[0], 0).
				LinkUp(outageRecover, ls.Leaves[0], 0).
				LinkDegrade(outageFail, ls.Leaves[1], 1, 700).
				LinkCorrupt(outageWarm, ls.Leaves[2], 0, 200).
				LinkCorrupt(outageRecover, ls.Leaves[2], 0, 0).
				SwitchCrash(outageFail+100, ls.Spines[1]).
				SwitchUp(outageFail+300, ls.Spines[1])
		}
		ls := mustStart(t, c).Fabric.(*LeafSpine)
		var seq []delivery
		ls.Net.OnDeliver = func(ev Delivery) {
			seq = append(seq, delivery{Tick: ls.Net.Now(), Ev: ev})
		}
		if err := ls.Net.Drain(DrainLimit); err != nil {
			t.Fatal(err)
		}
		checkNet(t, ls.Net)
		if live := ls.Net.LiveHeaders(); live != 0 {
			t.Fatalf("drained faulted run leaked %d headers", live)
		}
		return seq, ls.Net.Totals()
	}
	seqA, totA := run()
	seqB, totB := run()
	if totA != totB {
		t.Fatalf("faulted totals differ across identical runs:\n%+v\n%+v", totA, totB)
	}
	if len(seqA) != len(seqB) {
		t.Fatalf("delivery counts differ: %d vs %d", len(seqA), len(seqB))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, seqA[i], seqB[i])
		}
	}
	if totA.CorruptDroppedPkts == 0 {
		t.Error("corruption window at 200‰ dropped nothing; the lottery is not firing")
	}
	if totA.BlackholedPkts == 0 {
		t.Error("crashed spine blackholed nothing")
	}
}

// buildTinyFabric wires one leaf, one spine, one host pair — the smallest
// topology with a core link — for the targeted edge-case tests. Packets
// from host 0 to host 1 cross leaf0→spine0→leaf1→host.
func buildTinyFabric(t *testing.T) *LeafSpine {
	return buildTiny(t, tinyFabricConfig())
}

func tinyFabricConfig() Scenario {
	return Scenario{Routing: "flowlet_route", Leaves: 2, Spines: 1, HostsPerLeaf: 1,
		// Slow, long links keep packets in flight and queued at fault time.
		UplinkBytesPerTick: 1500, DownlinkBytesPerTick: 1500, LinkDelay: 5}
}

func buildTiny(t *testing.T, c Scenario) *LeafSpine {
	t.Helper()
	ls := buildLS(t, c)
	if err := ls.Net.MapHosts(ls.Hosts); err != nil {
		t.Fatal(err)
	}
	return ls
}

func injectBurst(t *testing.T, ls *LeafSpine, count int) {
	t.Helper()
	for k := 0; k < count; k++ {
		if err := ls.Net.InjectNow(&workload.NetPacket{
			Src: 0, Dst: 1, Flow: int32(k), Size: 1500, Sport: int32(1024 + k), Dport: 9000,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLinkDownBlackholesInFlight kills a link that has packets riding it
// and packets queued behind it: the in-flight headers must be released
// (blackholed, pool-balanced), the queued ones must survive to delivery
// after recovery, and nothing may leak.
func TestLinkDownBlackholesInFlight(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	injectBurst(t, ls, 20)
	// Let the leaf emit onto the uplink (delay 5): some packets in flight.
	mustStep(t, n)
	mustStep(t, n)
	if n.Totals().InFlightPkts == 0 {
		t.Fatal("setup: nothing in flight on the uplink")
	}
	if err := n.SetFaults((&FaultSchedule{}).LinkDown(0, ls.Leaves[0], 0)); err == nil {
		t.Fatal("SetFaults accepted after the clock started")
	}
	// Apply the fault by hand mid-run: schedules are pre-start, but the
	// event application path is the same.
	l := n.nodes[ls.Leaves[0]].sw.links[0]
	n.applyFault(&FaultEvent{Kind: FaultLinkDown, Node: ls.Leaves[0], Port: 0})
	if !l.down {
		t.Fatal("link not marked down")
	}
	tot := n.Totals()
	if tot.BlackholedPkts == 0 {
		t.Fatal("in-flight packets not blackholed by link-down")
	}
	if tot.InFlightPkts != 0 {
		t.Fatalf("%d packets still in flight on a downed link", tot.InFlightPkts)
	}
	checkNet(t, n)
	if live, want := n.LiveHeaders(), int(tot.QueuedPkts); live != want {
		t.Fatalf("pool balance broken after blackhole: %d live headers, %d queued", live, want)
	}
	// Queue must hold (frozen port), then drain fully after recovery.
	for i := 0; i < 20; i++ {
		mustStep(t, n)
		checkNet(t, n)
	}
	if q := n.Totals().QueuedPkts; q == 0 {
		t.Fatal("downed port serviced its queue")
	}
	n.applyFault(&FaultEvent{Kind: FaultLinkUp, Node: ls.Leaves[0], Port: 0})
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked after drain", live)
	}
	end := n.Totals()
	if end.DeliveredPkts+end.BlackholedPkts+end.DroppedPkts != end.InjectedPkts {
		t.Fatalf("loss accounting off: %+v", end)
	}
	if end.DeliveredPkts == 0 {
		t.Fatal("queued packets never delivered after recovery")
	}
}

// TestDegradeMidFlight drops a link to a tenth of its capacity while
// packets are queued and in flight: everything still delivers (nothing
// blackholed), the DRE stamp is poisoned by the ceil(base/cap) scale, and
// restoring capacity clears the poison.
func TestDegradeMidFlight(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	injectBurst(t, ls, 20)
	mustStep(t, n)
	mustStep(t, n)
	l := n.nodes[ls.Leaves[0]].sw.links[0]
	n.applyFault(&FaultEvent{Kind: FaultLinkDegrade, Node: ls.Leaves[0], Port: 0, Capacity: 150})
	if l.utilScale != 10 {
		t.Fatalf("utilScale = %d, want ceil(1500/150) = 10", l.utilScale)
	}
	if l.capacity != 150 {
		t.Fatalf("capacity = %d, want 150", l.capacity)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	end := n.Totals()
	if end.BlackholedPkts != 0 {
		t.Fatalf("degradation blackholed %d packets; it must only slow them", end.BlackholedPkts)
	}
	if end.DeliveredPkts != end.InjectedPkts-end.DroppedPkts {
		t.Fatalf("degraded run lost packets: %+v", end)
	}
	n.applyFault(&FaultEvent{Kind: FaultLinkUp, Node: ls.Leaves[0], Port: 0})
	if l.utilScale != 1 || l.capacity != l.base {
		t.Fatalf("recovery did not restore the link: scale %d capacity %d (base %d)", l.utilScale, l.capacity, l.base)
	}
}

// TestDegradeToZeroStalls drives the zero-capacity edge case: the port
// freezes (nothing departs, nothing blackholed), in-flight packets still
// deliver, and recovery un-wedges the queue.
func TestDegradeToZeroStalls(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	injectBurst(t, ls, 10)
	mustStep(t, n)
	mustStep(t, n)
	inFlight := n.Totals().InFlightPkts
	if inFlight == 0 {
		t.Fatal("setup: nothing in flight")
	}
	n.applyFault(&FaultEvent{Kind: FaultLinkDegrade, Node: ls.Leaves[0], Port: 0, Capacity: 0})
	for i := 0; i < 20; i++ {
		mustStep(t, n)
		checkNet(t, n)
	}
	tot := n.Totals()
	if tot.BlackholedPkts != 0 {
		t.Fatalf("degrade-to-zero blackholed %d packets", tot.BlackholedPkts)
	}
	if tot.DeliveredPkts == 0 {
		t.Fatal("packets in flight at stall time never delivered")
	}
	if tot.QueuedPkts == 0 {
		t.Fatal("stalled port should be holding a queue")
	}
	n.applyFault(&FaultEvent{Kind: FaultLinkUp, Node: ls.Leaves[0], Port: 0})
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked", live)
	}
}

// TestCorruptionGuard floods a fully-corrupting link: every packet has
// slots scrambled, the arrival-edge guard drops the implausible ones,
// survivors deliver without any panic, and the pool stays balanced.
func TestCorruptionGuard(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	n.faultSeed = 7
	n.applyFault(&FaultEvent{Kind: FaultLinkCorrupt, Node: ls.Leaves[0], Port: 0, CorruptPerMil: 1000})
	for k := 0; k < 200; k++ {
		if err := n.InjectNow(&workload.NetPacket{
			Src: 0, Dst: 1, Flow: int32(k % 8), Size: 1500, Sport: int32(1024 + k), Dport: 9000,
		}); err != nil {
			t.Fatal(err)
		}
		mustStep(t, n)
		checkNet(t, n)
	}
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	tot := n.Totals()
	if tot.CorruptDroppedPkts == 0 {
		t.Fatal("a 100% corrupting link dropped nothing")
	}
	if tot.CorruptDroppedPkts >= tot.InjectedPkts {
		t.Fatalf("guard dropped everything (%d of %d); some scrambles must stay in bounds",
			tot.CorruptDroppedPkts, tot.InjectedPkts)
	}
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked under corruption", live)
	}
}

// TestSwitchStallAndCrash covers the two switch fault modes: a stalled
// spine holds its queues and still accepts arrivals; a crashed spine
// blackholes them; recovery resumes service with conservation intact.
func TestSwitchStallAndCrash(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	injectBurst(t, ls, 10)
	n.applyFault(&FaultEvent{Kind: FaultSwitchStall, Node: ls.Spines[0]})
	for i := 0; i < 30; i++ {
		mustStep(t, n)
		checkNet(t, n)
	}
	tot := n.Totals()
	if tot.DeliveredPkts != 0 {
		t.Fatal("stalled spine still delivered traffic")
	}
	if tot.QueuedPkts == 0 {
		t.Fatal("stalled spine should be queueing arrivals")
	}
	if tot.BlackholedPkts != 0 {
		t.Fatalf("stall blackholed %d packets; only crash may", tot.BlackholedPkts)
	}
	n.applyFault(&FaultEvent{Kind: FaultSwitchCrash, Node: ls.Spines[0]})
	injectBurst(t, ls, 10)
	for i := 0; i < 30; i++ {
		mustStep(t, n)
		checkNet(t, n)
	}
	if b := n.Totals().BlackholedPkts; b == 0 {
		t.Fatal("crashed spine blackholed nothing")
	}
	n.applyFault(&FaultEvent{Kind: FaultSwitchUp, Node: ls.Spines[0]})
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if n.Totals().DeliveredPkts == 0 {
		t.Fatal("recovered spine never delivered its held queue")
	}
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked", live)
	}
}

// TestWatchdogTripsOnWedgedNetwork downs a link forever (no recovery
// event): Drain must fail via the no-progress watchdog — early, with a
// diagnostic — rather than spinning to its limit.
func TestWatchdogTripsOnWedgedNetwork(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	n.WatchdogTicks = 64
	injectBurst(t, ls, 10)
	mustStep(t, n)
	n.applyFault(&FaultEvent{Kind: FaultLinkDown, Node: ls.Leaves[0], Port: 0})
	err := n.Drain(1 << 20)
	if err == nil {
		t.Fatal("Drain of a wedged network returned nil")
	}
	if !strings.Contains(err.Error(), "no progress") {
		t.Fatalf("want a watchdog no-progress error, got: %v", err)
	}
	if n.Now() > 2000 {
		t.Fatalf("watchdog fired only at tick %d; it should trip shortly after the wedge", n.Now())
	}
	// Run must trip the same way.
	ls2 := buildTinyFabric(t)
	ls2.Net.WatchdogTicks = 64
	injectBurst(t, ls2, 10)
	mustStep(t, ls2.Net)
	ls2.Net.applyFault(&FaultEvent{Kind: FaultLinkDown, Node: ls2.Leaves[0], Port: 0})
	if err := ls2.Net.Run(1 << 20); err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Fatalf("Run on a wedged network: want watchdog error, got %v", err)
	}
}

// TestSetFaultsValidation rejects malformed schedules with errors, not
// panics.
func TestSetFaultsValidation(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	host := ls.Hosts[0]
	cases := []*FaultSchedule{
		(&FaultSchedule{}).LinkDown(1, NodeID(99), 0),          // unknown node
		(&FaultSchedule{}).LinkDown(1, host, 0),                // host, not switch
		(&FaultSchedule{}).LinkDown(1, ls.Leaves[0], 9),        // no such port
		(&FaultSchedule{}).LinkDegrade(1, ls.Leaves[0], 0, -5), // negative capacity
		(&FaultSchedule{}).LinkCorrupt(1, ls.Leaves[0], 0, 2000),
		{Events: []FaultEvent{{Tick: 1, Kind: FaultKind(99), Node: ls.Leaves[0]}}},
	}
	for i, f := range cases {
		if err := n.SetFaults(f); err == nil {
			t.Errorf("case %d: bad schedule accepted", i)
		}
	}
	good := (&FaultSchedule{}).
		LinkDown(5, ls.Leaves[0], 0).
		LinkUp(9, ls.Leaves[0], 0).
		SwitchStall(3, ls.Spines[0]).
		SwitchUp(7, ls.Spines[0])
	if err := n.SetFaults(good); err != nil {
		t.Fatal(err)
	}
	injectBurst(t, ls, 5)
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
}

// TestClearFaults restores a battered network to health: pending events
// cancelled, links and switches back up, and a bounded drain completes.
func TestClearFaults(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	sched := (&FaultSchedule{Seed: 3}).
		LinkDown(2, ls.Leaves[0], 0).
		SwitchCrash(3, ls.Spines[0]).
		LinkCorrupt(2, ls.Spines[0], 0, 500).
		LinkUp(1<<40, ls.Leaves[0], 0) // recovery scheduled effectively never
	if err := n.SetFaults(sched); err != nil {
		t.Fatal(err)
	}
	injectBurst(t, ls, 20)
	for i := 0; i < 40; i++ {
		mustStep(t, n)
		checkNet(t, n)
	}
	n.ClearFaults()
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked", live)
	}
	tot := n.Totals()
	if tot.QueuedPkts != 0 || tot.InFlightPkts != 0 {
		t.Fatalf("ClearFaults did not unwedge the network: %+v", tot)
	}
}

// TestFeedbackFaultRobustness aims the fault model at the feedback
// path: a CONGA fabric (whose flowlet and congestion state is fed by
// reflected fb packets) runs its trace while the links that carry
// feedback — a spine→leaf downlink and a leaf→host access link — are
// scrambled, and one downlink suffers an outage window. Corrupted or
// blackholed fb packets must never wedge the flowlet/CONGA state
// machines or break conservation: the run drains clean, pools balance,
// and the fabric still forwards fresh traffic afterwards.
func TestFeedbackFaultRobustness(t *testing.T) {
	c := Scenario{
		Routing: "conga_route", Leaves: 3, Spines: 2, HostsPerLeaf: 1,
		Seed: 7, FlowsPerHost: 2, PktsPerFlow: 40,
	}
	c.setDefaults()
	ls := buildLS(t, c)
	n := ls.Net
	if !n.Feedback {
		t.Fatal("conga_route should reflect feedback")
	}
	if err := n.SetTrace(c.Trace(), ls.Hosts); err != nil {
		t.Fatal(err)
	}
	// Spine s's port l is the downlink to leaf l; leaf l's port
	// Spines+k is host k's access link. Both carry reflected feedback.
	sched := (&FaultSchedule{Seed: 11}).
		LinkCorrupt(50, ls.Spines[0], 0, 300).
		LinkCorrupt(900, ls.Spines[0], 0, 0).
		LinkCorrupt(50, ls.Leaves[1], c.Spines, 200).
		LinkCorrupt(900, ls.Leaves[1], c.Spines, 0).
		LinkDown(300, ls.Spines[1], 2).
		LinkUp(600, ls.Spines[1], 2)
	if err := n.SetFaults(sched); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		mustStep(t, n)
		checkNet(t, n)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked", live)
	}
	tot := n.Totals()
	if tot.FbInjectedPkts == 0 {
		t.Fatal("no feedback reflected; the test exercised nothing")
	}
	if tot.CorruptDroppedPkts == 0 {
		t.Fatal("corruption windows destroyed nothing; the test is vacuous")
	}

	// The fabric (and the fb-fed flowlet/CONGA state) must still route
	// fresh traffic after the abuse: every post-fault packet arrives.
	before := n.Totals().DeliveredPkts
	const extra = 20
	for k := 0; k < extra; k++ {
		if err := n.InjectNow(&workload.NetPacket{
			Src: 0, Dst: int32(len(ls.Hosts) - 1), Flow: 1 << 20, Size: 1000,
		}); err != nil {
			t.Fatal(err)
		}
		mustStep(t, n)
		checkNet(t, n)
	}
	if err := n.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	delta := n.Totals().DeliveredPkts - before
	if delta < extra {
		t.Fatalf("post-fault fabric wedged: %d of %d fresh packets (plus feedback) delivered", delta, extra)
	}
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked after the post-fault burst", live)
	}
}
