package netsim

// Gray-failure fault-model tests (PR 9): links that reorder, duplicate
// and flap, and switches that restart losing their transaction-owned
// soft state. Every scenario asserts the conservation identities, the
// pool-leak oracle, and — where the fault is probabilistic — seeded
// determinism.

import (
	"testing"

	"domino/internal/algorithms"
	"domino/internal/workload"
)

// reorderRun replays the same 30-packet burst through the tiny fabric
// with the given reorder window on the first uplink and returns the
// delivered flow-id sequence.
func reorderRun(t *testing.T, window int32, seed int64) []int32 {
	t.Helper()
	ls := buildTinyFabric(t)
	n := ls.Net
	n.faultSeed = seed
	if window > 0 {
		n.applyFault(&FaultEvent{Kind: FaultLinkReorder, Node: ls.Leaves[0], Port: 0, Window: window})
	}
	var got []int32
	n.OnDeliver = func(ev Delivery) {
		if !ev.Fb {
			got = append(got, ev.Flow)
		}
	}
	injectBurst(t, ls, 30)
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked under reordering", live)
	}
	tot := n.Totals()
	if tot.DeliveredPkts != tot.InjectedPkts {
		t.Fatalf("reordering lost packets: delivered %d of %d", tot.DeliveredPkts, tot.InjectedPkts)
	}
	return got
}

// TestLinkReorderShufflesDeterministically: a reorder window shuffles
// the delivery sequence without losing a packet, replays byte-identically
// for a fixed seed, and changes with the seed.
func TestLinkReorderShufflesDeterministically(t *testing.T) {
	inOrder := reorderRun(t, 0, 1)
	shuffled := reorderRun(t, 8, 1)
	again := reorderRun(t, 8, 1)
	other := reorderRun(t, 8, 2)
	if len(inOrder) != 30 || len(shuffled) != 30 {
		t.Fatalf("delivery counts: %d baseline, %d reordered, want 30", len(inOrder), len(shuffled))
	}
	same := func(a, b []int32) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(inOrder, shuffled) {
		t.Error("an 8-deep reorder window left 30 packets in order")
	}
	if !same(shuffled, again) {
		t.Error("same seed, different delivery order: the reorder lottery is not deterministic")
	}
	if same(shuffled, other) {
		t.Error("seeds 1 and 2 reordered identically; the seed is ignored")
	}
}

// TestLinkDuplicateByteExact: a 1000‰ duplicating uplink materializes
// exactly one extra copy per transmitted packet, counted byte-exactly in
// the DupInjected terms, and every copy delivers with pools balanced.
func TestLinkDuplicateByteExact(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	n.faultSeed = 5
	n.applyFault(&FaultEvent{Kind: FaultLinkDuplicate, Node: ls.Leaves[0], Port: 0, DupPerMil: 1000})
	const pkts, size = 20, 1500
	injectBurst(t, ls, pkts)
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	tot := n.Totals()
	if tot.DupInjectedPkts != pkts {
		t.Fatalf("dup-injected %d packets, want one copy per original (%d)", tot.DupInjectedPkts, pkts)
	}
	if tot.DupInjectedBytes != pkts*size {
		t.Fatalf("dup-injected %d bytes, want %d", tot.DupInjectedBytes, pkts*size)
	}
	if tot.DeliveredPkts != tot.InjectedPkts+tot.DupInjectedPkts {
		t.Fatalf("delivered %d, want injected %d + dup-injected %d", tot.DeliveredPkts, tot.InjectedPkts, tot.DupInjectedPkts)
	}
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked under duplication", live)
	}
	// Duplicates ride only the faulted link: the dup lottery must not
	// cascade through downstream links.
	if tot.DupInjectedPkts >= tot.DeliveredPkts {
		t.Fatalf("duplication cascaded: %d dups of %d deliveries", tot.DupInjectedPkts, tot.DeliveredPkts)
	}
}

// TestLinkFlapStorm: one builder call expands into a bounded down/up
// storm; in-flight packets at each down edge are blackholed, the storm
// ends with the link up, and the run drains clean.
func TestLinkFlapStorm(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	sched := (&FaultSchedule{Seed: 3}).LinkFlap(5, ls.Leaves[0], 0, 4, 7, 7)
	if len(sched.Events) != 8 {
		t.Fatalf("LinkFlap(4 cycles) expanded to %d events, want 8 (down+up per cycle)", len(sched.Events))
	}
	for i, ev := range sched.Events {
		want := FaultLinkDown
		if i%2 == 1 {
			want = FaultLinkUp
		}
		if ev.Kind != want {
			t.Fatalf("flap event %d is %s, want %s", i, ev.Kind, want)
		}
	}
	if last := sched.Events[len(sched.Events)-1]; last.Kind != FaultLinkUp {
		t.Fatal("a flap storm must end with the link up")
	}
	if err := n.SetFaults(sched); err != nil {
		t.Fatal(err)
	}
	injectBurst(t, ls, 40)
	if err := n.Drain(50_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	tot := n.Totals()
	if tot.BlackholedPkts == 0 {
		t.Error("a 4-cycle flap storm with packets in flight blackholed nothing")
	}
	if tot.DeliveredPkts == 0 {
		t.Error("nothing survived the storm; the link never actually came back")
	}
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked under the flap storm", live)
	}
}

// dirtyFlowletState reports whether any of the first k slots of the
// leaf's flowlet last_time table moved off its declared init.
func dirtyFlowletState(t *testing.T, n *Network, leaf NodeID, k int) bool {
	t.Helper()
	m := n.nodes[leaf].sw.sw.Machine()
	for i := 0; i < k; i++ {
		if v, ok := m.PeekState("last_time", i); ok && v != 0 {
			return true
		}
	}
	return false
}

// TestSwitchRestartWipesSoftState: a restart flushes the switch's queues
// (as its own drops — conservation intact), resets the flowlet tables to
// their declared inits, re-pokes the control-plane state (switch_id and
// port_up reflect the actual link health, including a still-downed
// port), and the fabric forwards fresh traffic afterwards.
func TestSwitchRestartWipesSoftState(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	leaf := ls.Leaves[0]
	// Advance the clock before injecting: flowlet soft state records the
	// arrival tick, and a tick-0 arrival is indistinguishable from the
	// declared init.
	for i := 0; i < 5; i++ {
		mustStep(t, n)
	}
	injectBurst(t, ls, 20)
	for i := 0; i < 10; i++ {
		mustStep(t, n)
	}
	if !dirtyFlowletState(t, n, leaf, 8000) {
		t.Fatal("setup: traffic left no flowlet state behind")
	}
	if q := n.nodes[leaf].sw.sw.Totals().QueuedPkts; q == 0 {
		t.Fatal("setup: nothing queued at the leaf at restart time")
	}
	// Down the uplink first: the restart must re-poke port_up to the
	// *actual* link state (down), not the declared init (up).
	n.applyFault(&FaultEvent{Kind: FaultLinkDown, Node: leaf, Port: 0})
	preDrops := n.nodes[leaf].sw.sw.Totals().DroppedPkts

	n.applyFault(&FaultEvent{Kind: FaultSwitchRestart, Node: leaf})
	checkNet(t, n)
	if dirtyFlowletState(t, n, leaf, 8000) {
		t.Error("restart left flowlet soft state behind")
	}
	m := n.nodes[leaf].sw.sw.Machine()
	if v, ok := m.PeekState(algorithms.PortUpState, 0); !ok || v != 0 {
		t.Errorf("port_up[0] = %d,%v after restart with the link down, want 0", v, ok)
	}
	if v, ok := m.PeekState(algorithms.PortUpState, 1); ok && v != 1 {
		t.Errorf("port_up[1] = %d after restart, want 1 (healthy link)", v)
	}
	if d := n.nodes[leaf].sw.sw.Totals().DroppedPkts; d <= preDrops {
		t.Errorf("restart flushed no queued packets as drops (%d before, %d after)", preDrops, d)
	}
	if q := n.nodes[leaf].sw.sw.Totals().QueuedPkts; q != 0 {
		t.Errorf("%d packets still queued after the restart flush", q)
	}

	// Bring the link back and prove the fabric still forwards.
	n.applyFault(&FaultEvent{Kind: FaultLinkUp, Node: leaf, Port: 0})
	if v, ok := m.PeekState(algorithms.PortUpState, 0); !ok || v != 1 {
		t.Errorf("port_up[0] = %d,%v after recovery, want 1", v, ok)
	}
	before := n.Totals().DeliveredPkts
	injectBurst(t, ls, 10)
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if got := n.Totals().DeliveredPkts - before; got < 10 {
		t.Errorf("restarted fabric delivered %d of 10 fresh packets", got)
	}
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked across the restart", live)
	}
}

// TestSwitchRestartScrambleCannotWedge: restarting every switch with
// seeded-scrambled (poisoned) state mid-run — garbage flowlet hops,
// garbage CONGA best-path entries — must never wedge the fabric: masked
// state indexing and modulo route wrapping keep the pipeline running,
// the run drains bounded, and conservation holds throughout.
func TestSwitchRestartScrambleCannotWedge(t *testing.T) {
	c := Scenario{
		Routing: "conga_route", Leaves: 3, Spines: 2, HostsPerLeaf: 1,
		Seed: 11, FlowsPerHost: 2, PktsPerFlow: 40,
	}
	c.setDefaults()
	ls := buildLS(t, c)
	n := ls.Net
	if err := n.SetTrace(c.Trace(), ls.Hosts); err != nil {
		t.Fatal(err)
	}
	sched := &FaultSchedule{Seed: 17}
	for i, leaf := range ls.Leaves {
		sched.SwitchRestartScramble(int64(100+50*i), leaf)
	}
	for i, spine := range ls.Spines {
		sched.SwitchRestartScramble(int64(125+50*i), spine)
	}
	for _, ev := range sched.Events {
		if ev.Kind != FaultSwitchRestart || !ev.Scramble {
			t.Fatalf("SwitchRestartScramble built %+v", ev)
		}
	}
	if err := n.SetFaults(sched); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		mustStep(t, n)
		checkNet(t, n)
	}
	if err := n.Drain(DrainLimit); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked under scrambled restarts", live)
	}
	// The fabric still forwards fresh traffic after the abuse.
	before := n.Totals().DeliveredPkts
	for k := 0; k < 10; k++ {
		if err := n.InjectNow(&workload.NetPacket{
			Src: 0, Dst: int32(len(ls.Hosts) - 1), Flow: 1 << 19, Size: 1000,
		}); err != nil {
			t.Fatal(err)
		}
		mustStep(t, n)
		checkNet(t, n)
	}
	if err := n.Drain(DrainLimit); err != nil {
		t.Fatal(err)
	}
	if got := n.Totals().DeliveredPkts - before; got < 10 {
		t.Errorf("post-scramble fabric delivered %d of 10 fresh packets (plus feedback)", got)
	}
}

// TestCongaRebalancesAfterRestart: CONGA's routing imbalance across the
// two uplinks, measured over a steady paced load, must re-converge to
// within ε of its pre-restart value after the leaf's best-util/best-path
// tables are wiped — the soft state is genuinely soft.
func TestCongaRebalancesAfterRestart(t *testing.T) {
	c := Scenario{Routing: "conga_route", Leaves: 2, Spines: 2, HostsPerLeaf: 1, Seed: 9}
	c.setDefaults()
	ls := buildLS(t, c)
	n := ls.Net
	if err := n.MapHosts(ls.Hosts); err != nil {
		t.Fatal(err)
	}
	leaf := n.nodes[ls.Leaves[0]].sw
	flow := int32(0)
	// window drives 2 pkts/tick host0→host1 for the given ticks and
	// returns the byte-share imbalance across leaf0's two uplinks.
	window := func(ticks int) float64 {
		a0, a1 := leaf.links[0].bytes, leaf.links[1].bytes
		for i := 0; i < ticks; i++ {
			for k := 0; k < 2; k++ {
				if err := n.InjectNow(&workload.NetPacket{
					Src: 0, Dst: 1, Flow: flow % 97, Size: 1000,
					Sport: 1024 + flow%512, Dport: 9000,
				}); err != nil {
					t.Fatal(err)
				}
				flow++
			}
			mustStep(t, n)
		}
		d0 := float64(leaf.links[0].bytes - a0)
		d1 := float64(leaf.links[1].bytes - a1)
		if d0+d1 == 0 {
			t.Fatal("no bytes crossed the uplinks in a measurement window")
		}
		imb := (d0 - d1) / (d0 + d1)
		if imb < 0 {
			imb = -imb
		}
		return imb
	}
	window(300) // warm-up: tables converge from cold
	before := window(300)
	n.applyFault(&FaultEvent{Kind: FaultSwitchRestart, Node: ls.Leaves[0]})
	checkNet(t, n)
	window(300) // settle: tables re-converge from the wipe
	after := window(300)
	const eps = 0.25
	if diff := after - before; diff > eps || diff < -eps {
		t.Errorf("post-restart imbalance %.3f vs pre-restart %.3f: drifted more than ε=%.2f", after, before, eps)
	}
	if err := n.Drain(50_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked", live)
	}
}

// TestGrayFaultValidation: the new kinds get the same pre-start
// validation as the fail-stop ones.
func TestGrayFaultValidation(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	for i, f := range []*FaultSchedule{
		(&FaultSchedule{}).LinkReorder(1, ls.Leaves[0], 9, 4),      // no such port
		(&FaultSchedule{}).LinkReorder(1, ls.Leaves[0], 0, -1),     // negative window
		(&FaultSchedule{}).LinkDuplicate(1, ls.Leaves[0], 9, 5),    // no such port
		(&FaultSchedule{}).LinkDuplicate(1, ls.Leaves[0], 0, 2000), // >1000‰
		(&FaultSchedule{}).LinkDuplicate(1, ls.Leaves[0], 0, -5),   // negative
		(&FaultSchedule{}).SwitchRestart(1, ls.Hosts[0]),           // host, not switch
		(&FaultSchedule{}).SwitchRestart(1, NodeID(99)),            // unknown node
	} {
		if err := n.SetFaults(f); err == nil {
			t.Errorf("case %d: bad gray schedule accepted", i)
		}
	}
	good := (&FaultSchedule{Seed: 2}).
		LinkReorder(2, ls.Leaves[0], 0, 4).
		LinkDuplicate(2, ls.Leaves[0], 0, 100).
		LinkReorder(20, ls.Leaves[0], 0, 0).
		LinkDuplicate(20, ls.Leaves[0], 0, 0).
		SwitchRestart(30, ls.Spines[0])
	if err := n.SetFaults(good); err != nil {
		t.Fatal(err)
	}
	injectBurst(t, ls, 10)
	if err := n.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if live := n.LiveHeaders(); live != 0 {
		t.Fatalf("%d headers leaked", live)
	}
}

// TestFaultKindsComplete: FaultKinds covers every kind exactly once and
// each has a distinct human-readable name — the soak harness's coverage
// accounting depends on it.
func TestFaultKindsComplete(t *testing.T) {
	kinds := FaultKinds()
	names := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if names[s] {
			t.Errorf("duplicate fault kind name %q", s)
		}
		names[s] = true
		if len(s) == 0 || s[0] == 'f' && len(s) > 10 && s[:10] == "fault-kind" {
			t.Errorf("kind %d has no real name: %q", uint8(k), s)
		}
	}
	if len(kinds) != 10 {
		t.Errorf("FaultKinds lists %d kinds; update it (and the soak coverage) when adding kinds", len(kinds))
	}
}
