package netsim

// Tests for the O(active) step loop: lazily synced switch clocks, the
// service set, the running conservation totals and the dirty-only depth
// pass. The clock tests pin hand-computed values instead of comparing two
// drivers, because Step() and Drain() share step() and would share a bug.

import (
	"testing"

	"domino/internal/algorithms"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

// Node ids of the tiny fabric follow creation order: spine0=0, leaf0=1,
// host0=2, leaf1=3, host1=4. A host0→host1 packet leaves leaf0 on port 0,
// the spine on port 1 and leaf1 on port 1, one 1500-byte packet per tick,
// five ticks per link.
const (
	tinySpine     = 0
	tinySpinePort = 1
)

// tinyObserved is buildTinyFabric with a metrics registry and an
// unsampled event ring attached (and, optionally, ECN marking compiled in).
func tinyObserved(t *testing.T, ecn bool) (*LeafSpine, *telemetry.Registry, *telemetry.Ring) {
	t.Helper()
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(1<<12, 1, 1)
	c := tinyFabricConfig()
	c.ECN, c.Telemetry, c.Ring = ecn, reg, ring
	ls := buildTiny(t, c)
	if got := int(ls.Spines[0]); got != tinySpine {
		t.Fatalf("spine node id = %d, want %d (creation-order contract moved?)", got, tinySpine)
	}
	return ls, reg, ring
}

// onePacketFlows is a trace of single-packet host0→host1 flows arriving
// at the given ticks.
func onePacketFlows(arrivals ...int64) *workload.NetTrace {
	tr := &workload.NetTrace{NumFlows: len(arrivals)}
	for f, at := range arrivals {
		tr.Packets = append(tr.Packets, workload.NetPacket{
			Src: 0, Dst: 1, Sport: int32(1024 + f), Dport: 9000, Flow: int32(f), Size: 1500, Arrival: at,
		})
		tr.FlowPkts = append(tr.FlowPkts, 1)
		tr.FlowBytes = append(tr.FlowBytes, 1500)
		tr.FlowStart = append(tr.FlowStart, at)
	}
	return tr
}

// spineEvents filters the ring down to one kind at the spine's egress
// port toward leaf1.
func spineEvents(ring *telemetry.Ring, kind telemetry.Kind) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range ring.Events() {
		if ev.Kind == kind && ev.Node == tinySpine && ev.Port == tinySpinePort {
			out = append(out, ev)
		}
	}
	return out
}

// TestStalledIdleSwitchStampsFreezeTime: the spine handles one packet at
// tick 15 and then idles. It is stalled at tick 500; a second packet
// injected at 498 leaves leaf0 at 498 and reaches the spine at step 503,
// mid-stall. The spine's clock stopped at 499 — the last tick it ran — so
// that is the packet's Arrived, however long the switch idled before the
// stall and however the driver got there. The stall ends at 520 (20 ticks
// of lag), so the packet is served at fabric tick 520 = switch tick 500,
// one tick of queueing delay.
func TestStalledIdleSwitchStampsFreezeTime(t *testing.T) {
	for _, driver := range []string{"event", "polled"} {
		t.Run(driver, func(t *testing.T) {
			ls, reg, ring := tinyObserved(t, false)
			n := ls.Net
			if err := n.SetTrace(onePacketFlows(10, 498), ls.Hosts); err != nil {
				t.Fatal(err)
			}
			sched := (&FaultSchedule{}).SwitchStall(500, ls.Spines[0]).SwitchUp(520, ls.Spines[0])
			if err := n.SetFaults(sched); err != nil {
				t.Fatal(err)
			}
			if driver == "event" {
				if err := n.Drain(1 << 12); err != nil {
					t.Fatal(err)
				}
			} else {
				for !n.idle() {
					if err := n.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkNet(t, n)
			// Served at 520, then two more five-tick links to the sink.
			if got, want := n.Now(), int64(530); got != want {
				t.Errorf("drained at tick %d, want %d", got, want)
			}

			enq := spineEvents(ring, telemetry.EvEnqueue)
			if len(enq) != 2 {
				t.Fatalf("%d enqueue records at the spine, want 2", len(enq))
			}
			// The enqueue record's tick is the Arrived stamp.
			if enq[0].Tick != 14 || enq[1].Tick != 499 {
				t.Errorf("Arrived stamps %d, %d; want 14 (step 15) and 499 (frozen clock)", enq[0].Tick, enq[1].Tick)
			}
			deq := spineEvents(ring, telemetry.EvDequeue)
			if len(deq) != 2 {
				t.Fatalf("%d dequeue records at the spine, want 2", len(deq))
			}
			if deq[0].Tick != 15 || deq[0].Aux != 1 {
				t.Errorf("first dequeue at switch tick %d after %d ticks queued, want 15 after 1", deq[0].Tick, deq[0].Aux)
			}
			if deq[1].Tick != 500 || deq[1].Aux != 1 {
				t.Errorf("stalled packet dequeued at switch tick %d after %d ticks queued, want 500 after 1", deq[1].Tick, deq[1].Aux)
			}
			h := reg.Histogram("sw.spine0.qdelay_ticks.p1")
			if h.Count() != 2 || h.Sum() != 2 || h.Max() != 1 {
				t.Errorf("spine qdelay histogram count %d sum %d max %d, want 2, 2, 1", h.Count(), h.Sum(), h.Max())
			}
		})
	}
}

// TestSwitchClockAfterSkippedTime: external reads and out-of-band
// injections see fabric time minus freeze lag, not the tick the switch
// last held a packet. The spine is stalled for ticks 100–129 (30 ticks of
// lag) and the fabric is otherwise empty, so Run jumps straight through.
func TestSwitchClockAfterSkippedTime(t *testing.T) {
	ls, reg, ring := tinyObserved(t, false)
	n := ls.Net
	sched := (&FaultSchedule{}).SwitchStall(100, ls.Spines[0]).SwitchUp(130, ls.Spines[0])
	if err := n.SetFaults(sched); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(1000); err != nil {
		t.Fatal(err)
	}
	if n.Steps() >= 10 {
		t.Fatalf("Run took %d steps over an empty fabric; the test needs skipped time", n.Steps())
	}
	spine, err := n.Switch(ls.Spines[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := spine.Now(); got != 970 {
		t.Errorf("spine clock reads %d after Run(1000) with 30 ticks frozen, want 970", got)
	}
	leaf1, err := n.Switch(ls.Leaves[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := leaf1.Now(); got != 1000 {
		t.Errorf("leaf1 clock reads %d after Run(1000), want 1000", got)
	}

	// An injection now lands after tick 1000's service: Arrived 1000,
	// served by step 1001 after one tick queued. (leaf0's clock has not
	// been read, so nothing but InjectNow itself can have synced it.)
	injectBurst(t, ls, 1)
	if err := n.Step(); err != nil {
		t.Fatal(err)
	}
	var enq, deq []telemetry.Event
	for _, ev := range ring.Events() {
		if ev.Node == int32(ls.Leaves[0]) && ev.Kind == telemetry.EvEnqueue {
			enq = append(enq, ev)
		}
		if ev.Node == int32(ls.Leaves[0]) && ev.Kind == telemetry.EvDequeue {
			deq = append(deq, ev)
		}
	}
	if len(enq) != 1 || enq[0].Tick != 1000 {
		t.Errorf("InjectNow after a skip enqueued %+v, want one record at tick 1000", enq)
	}
	if len(deq) != 1 || deq[0].Tick != 1001 || deq[0].Aux != 1 {
		t.Errorf("dequeue records %+v, want one at tick 1001 after 1 tick queued", deq)
	}
	if h := reg.Histogram("sw.leaf0.qdelay_ticks.p0"); h.Count() != 1 || h.Sum() != 1 {
		t.Errorf("leaf0 qdelay histogram count %d sum %d, want 1, 1", h.Count(), h.Sum())
	}
	if err := n.Drain(1 << 12); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
}

// inServiceSet reports whether the switch is a member of the service set.
func inServiceSet(n *Network, id NodeID) bool { return n.active.has(n.nodes[id].sw.idx) }

// TestRestartLeavesServiceSet: restarting a switch with a backlog moves
// exactly FlushQueues' count from the running queued terms to the dropped
// terms, and the emptied switch has left the service set by the end of
// the step.
func TestRestartLeavesServiceSet(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	leaf := ls.Leaves[0]
	if err := n.SetFaults((&FaultSchedule{}).SwitchRestart(5, leaf)); err != nil {
		t.Fatal(err)
	}
	injectBurst(t, ls, 20)
	for n.Now() < 4 {
		mustStep(t, n)
		checkNet(t, n)
	}
	if !inServiceSet(n, leaf) {
		t.Fatal("a switch with a backlog is not in the service set")
	}
	before := n.runningTotals()
	backlog := n.nodes[leaf].sw.sw.Totals()
	if backlog.QueuedPkts != 16 {
		t.Fatalf("setup: %d packets queued at the leaf before the restart, want 16", backlog.QueuedPkts)
	}

	mustStep(t, n) // tick 5: the restart flushes the leaf before anything is served
	checkNet(t, n)
	after := n.runningTotals()
	if after != n.Totals() {
		t.Fatalf("running totals %+v differ from the from-scratch sum %+v", after, n.Totals())
	}
	if got := after.DroppedPkts - before.DroppedPkts; got != backlog.QueuedPkts {
		t.Errorf("running dropped packets grew by %d, flush returned %d", got, backlog.QueuedPkts)
	}
	if got := after.DroppedBytes - before.DroppedBytes; got != backlog.QueuedBytes {
		t.Errorf("running dropped bytes grew by %d, flush returned %d", got, backlog.QueuedBytes)
	}
	if q := n.nodes[leaf].sw.sw.QueuedPkts(); q != 0 {
		t.Errorf("%d packets queued at the leaf after the flush", q)
	}
	if inServiceSet(n, leaf) {
		t.Error("the flushed, empty leaf is still in the service set after its step")
	}
	if live, want := int64(n.LiveHeaders()), after.QueuedPkts+after.InFlightPkts; live != want {
		t.Errorf("%d live headers, %d queued + in flight", live, want)
	}
	if err := n.Drain(1 << 12); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
}

// TestRestartWhileFrozenWaitsForItsPass: a switch restarted and stalled
// in the same tick keeps its (empty) place in the service set until it
// thaws and runs the pass the restart owes it — without the event core
// stepping every tick of the stall for it.
func TestRestartWhileFrozenWaitsForItsPass(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	leaf := ls.Leaves[0]
	sched := (&FaultSchedule{}).SwitchRestart(5, leaf).SwitchStall(5, leaf).SwitchUp(400, leaf)
	if err := n.SetFaults(sched); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(300); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if !inServiceSet(n, leaf) {
		t.Error("restarted-while-stalled leaf dropped out of the service set before its pass")
	}
	if n.Steps() > 5 {
		t.Errorf("Run took %d steps: an empty frozen member must not force per-tick stepping", n.Steps())
	}
	if err := n.Run(401); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if inServiceSet(n, leaf) {
		t.Error("thawed, empty leaf still in the service set after its pass")
	}
}

// TestScrambledIdleSwitchRepublishesDepths: a scrambling restart poisons
// the queue_depth array of a switch no packet has ever touched; the same
// step's depth pass must publish the real depths (0) over it.
func TestScrambledIdleSwitchRepublishesDepths(t *testing.T) {
	ls, _, _ := tinyObserved(t, true)
	n := ls.Net
	leaf := ls.Leaves[0]
	w := n.nodes[leaf].sw
	if w.qdPorts == 0 {
		t.Fatal("setup: the ECN leaf does not declare queue_depth")
	}
	if err := n.SetFaults((&FaultSchedule{Seed: 17}).SwitchRestartScramble(3, leaf)); err != nil {
		t.Fatal(err)
	}
	m := w.sw.Machine()
	// The scramble really does poison the array: apply it by hand first.
	m.ScrambleState(17)
	poisoned := false
	for p := 0; p < w.qdPorts; p++ {
		if v, _ := m.PeekState(algorithms.ECNQueueState, p); v != 0 {
			poisoned = true
		}
	}
	if !poisoned {
		t.Fatal("setup: ScrambleState left queue_depth all zero")
	}
	for n.Now() < 3 {
		mustStep(t, n)
	}
	for p := 0; p < w.qdPorts; p++ {
		if v, ok := m.PeekState(algorithms.ECNQueueState, p); !ok || v != 0 {
			t.Errorf("queue_depth[%d] = %d after the restart's step, want the real depth 0", p, v)
		}
	}
	checkNet(t, n)
}

// TestRestartRepokesStateThroughHandles: the harness resolves port_up,
// switch_id and queue_depth once at AddSwitch; a restart wipes or
// scrambles the arrays in place, so the same handles must still reach
// what the compiled program reads. Packets are the witnesses: leaf0's
// uplink 0 dies at tick 2 and the leaf restarts at tick 10 with the link
// still down, so every later packet must leave through uplink 1 (port_up
// re-poked: a clean reset alone would read the declared 1 for the dead
// port) carrying a digest that starts with leaf0's node id (switch_id
// re-poked: the declared init is 0); a lone packet through the idle
// fabric is unmarked (queue_depth republished as 0 over the scramble)
// and a packet arriving one tick after a burst is marked (the next
// republish reaches the program too).
func TestRestartRepokesStateThroughHandles(t *testing.T) {
	for _, scramble := range []bool{false, true} {
		name := "reset"
		if scramble {
			name = "scramble"
		}
		t.Run(name, func(t *testing.T) {
			c := Scenario{Routing: "flowlet_route", Leaves: 2, Spines: 2, HostsPerLeaf: 1,
				ECN: true, ECNThresholdBytes: 1, INT: true,
				UplinkBytesPerTick: 1500, DownlinkBytesPerTick: 1500, LinkDelay: 1}
			ls := buildTiny(t, c)
			n := ls.Net
			leaf0, leaf1, spine1 := ls.Leaves[0], ls.Leaves[1], ls.Spines[1]
			fs := (&FaultSchedule{Seed: 17}).LinkDown(2, leaf0, 0)
			if scramble {
				fs.SwitchRestartScramble(10, leaf0)
			} else {
				fs.SwitchRestart(10, leaf0)
			}
			if err := n.SetFaults(fs); err != nil {
				t.Fatal(err)
			}
			// Flow 0 alone at tick 20; flows 1-4 as one burst at tick 40 and
			// flow 5 one tick behind them.
			if err := n.SetTrace(onePacketFlows(20, 40, 40, 40, 40, 41), ls.Hosts); err != nil {
				t.Fatal(err)
			}
			type seen struct {
				digest int32
				marked bool
			}
			got := map[int32]seen{}
			var marks int64
			n.OnDeliver = func(ev Delivery) {
				if ev.Fb {
					return
				}
				got[ev.Flow] = seen{digest: ev.Digest, marked: n.ecnMarked > marks}
				marks = n.ecnMarked
			}

			for n.Now() < 10 {
				mustStep(t, n)
			}
			m := n.nodes[leaf0].sw.sw.Machine()
			for port, want := range []int32{0, 1} {
				if v, ok := m.PeekState(algorithms.PortUpState, port); !ok || v != want {
					t.Errorf("after the restart port_up[%d] = %d,%v, want %d", port, v, ok, want)
				}
			}
			if v, ok := m.PeekState(algorithms.INTSwitchIDState, 0); !ok || v != int32(leaf0) {
				t.Errorf("after the restart switch_id = %d,%v, want %d", v, ok, leaf0)
			}
			for p := 0; p < n.nodes[leaf0].sw.qdPorts; p++ {
				if v, ok := m.PeekState(algorithms.ECNQueueState, p); !ok || v != 0 {
					t.Errorf("after the restart queue_depth[%d] = %d,%v, want the real depth 0", p, v, ok)
				}
			}

			if err := n.Drain(1 << 12); err != nil {
				t.Fatal(err)
			}
			if len(got) != 6 {
				t.Fatalf("%d of 6 packets delivered: %+v", len(got), got)
			}
			want := algorithms.PathDigest(int32(leaf0), int32(spine1), int32(leaf1))
			for flow, s := range got {
				if s.digest != want {
					t.Errorf("flow %d took %s, want leaf0>spine1>leaf1", flow, ls.PathName(s.digest))
				}
			}
			if got[0].marked {
				t.Error("the lone packet was ECN-marked on an idle fabric: queue_depth not republished over the wipe")
			}
			if !got[5].marked {
				t.Error("the packet behind the burst was not ECN-marked: the republished queue_depth did not reach the program")
			}
			checkNet(t, n)
		})
	}
}

// TestLinkDownKeepsRunningInFlight: blackholing a link's in-flight
// packets takes them out of the running in-flight terms too.
func TestLinkDownKeepsRunningInFlight(t *testing.T) {
	ls := buildTinyFabric(t)
	n := ls.Net
	if err := n.SetFaults((&FaultSchedule{}).LinkDown(4, ls.Leaves[0], 0)); err != nil {
		t.Fatal(err)
	}
	injectBurst(t, ls, 20)
	for n.Now() < 3 {
		mustStep(t, n)
	}
	if got := n.runningTotals().InFlightPkts; got != 3 {
		t.Fatalf("setup: %d packets in flight before the link dies, want 3", got)
	}
	mustStep(t, n)
	rt, tot := n.runningTotals(), n.Totals()
	if rt != tot {
		t.Fatalf("running totals %+v differ from the from-scratch sum %+v", rt, tot)
	}
	if rt.BlackholedPkts != 3 || rt.InFlightPkts != 0 || rt.InFlightBytes != 0 {
		t.Errorf("after LinkDown: %d blackholed, %d packets / %d bytes in flight; want 3, 0, 0",
			rt.BlackholedPkts, rt.InFlightPkts, rt.InFlightBytes)
	}
	checkNet(t, n)
}

// crossPodFlow replays one paced flow from the first host to the last on
// a k-ary fat tree and returns the simulator's own work counters, the
// switch hops the packets took and the steps the driver processed.
func crossPodFlow(t *testing.T, k int, polled bool) (services, deliveries, hops, steps int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	ft := buildFT(t, Scenario{Routing: "ecmp_route", K: k, Telemetry: reg})
	n := ft.Net
	const pkts = 40
	tr := &workload.NetTrace{NumFlows: 1, FlowPkts: []int32{pkts}, FlowBytes: []int64{pkts * 1500}, FlowStart: []int64{1}}
	for i := 0; i < pkts; i++ {
		tr.Packets = append(tr.Packets, workload.NetPacket{
			Src: 0, Dst: int32(len(ft.Hosts) - 1), Sport: 1024, Dport: 9000, Size: 1500, Arrival: int64(1 + 25*i),
		})
	}
	if err := n.SetTrace(tr, ft.Hosts); err != nil {
		t.Fatal(err)
	}
	if polled {
		for !n.idle() {
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
	} else if err := n.Drain(1 << 16); err != nil {
		t.Fatal(err)
	}
	checkNet(t, n)
	if got := n.Totals().AcceptedPkts; got != pkts {
		t.Fatalf("k=%d: %d of %d packets accepted", k, got, pkts)
	}
	for _, tier := range [][]NodeID{ft.Cores, ft.Aggs, ft.Edges} {
		for _, id := range tier {
			ports, err := n.SwitchStats(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ports {
				hops += p.Enqueues
			}
		}
	}
	return reg.Counter("sim.switch_services").Value(), reg.Counter("sim.link_deliveries").Value(), hops, n.Steps()
}

// TestStepCostFollowsActiveSwitches is the deterministic O(active) check:
// the work a step does is counted by the simulator itself, and for one
// flow crossing a fat tree it must follow the hops the packets took — not
// the 80 switches of the fabric, and not how the driver stepped.
func TestStepCostFollowsActiveSwitches(t *testing.T) {
	services, deliveries, hops, steps := crossPodFlow(t, 8, false)
	if hops != 5*40 {
		t.Fatalf("%d switch hops for 40 cross-pod packets, want 5 each", hops)
	}
	if services > 2*hops {
		t.Errorf("%d service passes for %d switch hops over %d steps: step cost is following the fabric, not the packets", services, hops, steps)
	}
	if deliveries > hops {
		t.Errorf("%d link visits delivered packets for %d hops", deliveries, hops)
	}
	if s4, d4, h4, _ := crossPodFlow(t, 4, false); s4 != services || d4 != deliveries || h4 != hops {
		t.Errorf("the same flow cost %d services / %d deliveries / %d hops on k=4 but %d / %d / %d on k=8",
			s4, d4, h4, services, deliveries, hops)
	}
	sp, dp, hp, stepsPolled := crossPodFlow(t, 8, true)
	if sp != services || dp != deliveries || hp != hops {
		t.Errorf("per-tick stepping cost %d services / %d deliveries / %d hops, Drain %d / %d / %d",
			sp, dp, hp, services, deliveries, hops)
	}
	if stepsPolled <= steps {
		t.Fatalf("polled driver took %d steps, Drain %d: the flow left no idle time to skip", stepsPolled, steps)
	}
}

// TestGhostWakeupsCounted: a link that dies with packets in flight leaves
// its armed calendar entry behind; the wakeup finds nothing and is
// counted as a ghost, identically under both drivers.
func TestGhostWakeupsCounted(t *testing.T) {
	for _, polled := range []bool{false, true} {
		ls, reg, _ := tinyObserved(t, false)
		n := ls.Net
		sched := (&FaultSchedule{}).LinkDown(3, ls.Leaves[0], 0).LinkUp(50, ls.Leaves[0], 0)
		if err := n.SetFaults(sched); err != nil {
			t.Fatal(err)
		}
		injectBurst(t, ls, 4)
		if polled {
			for n.Now() < 60 || !n.idle() {
				mustStep(t, n)
			}
		} else if err := n.Drain(1 << 12); err != nil {
			t.Fatal(err)
		}
		checkNet(t, n)
		if got := reg.Counter("sim.ghost_wakeups").Value(); got != 1 {
			t.Errorf("polled=%v: %d ghost wakeups, want 1 (the downed uplink's armed entry)", polled, got)
		}
	}
}
