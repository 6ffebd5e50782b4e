package netsim

// Fault injection: a deterministic, seeded FaultSchedule applied at tick
// boundaries. Faults are visible to the data-plane programs, not just the
// simulator — a downed link freezes its feeding port, blackholes what was
// in flight, and pokes the feeding switch's port_up state array to 0, so
// routing written as Domino transactions (flowlet_route, conga_route)
// reroutes around the failure while failure-blind policies (ecmp_route)
// keep blackholing. Degraded links poison their DRE stamp in proportion
// to the lost capacity. Every destroyed packet lands in the Blackholed or
// CorruptDropped conservation terms, so the network identity
//
//	injected + dup-injected = delivered + dropped + queued + in-flight
//	                          + blackholed + corrupt-dropped
//
// stays byte-exact under any schedule — the chaos oracle FuzzNetFaults
// enforces across random schedules on random topologies.
//
// What the kind comments below do not say, with the enforcing tests:
//
//   - Timing: SetFaults validates and stable-sorts a schedule before the
//     first tick; events fire at tick boundaries, after now advances and
//     before links deliver (TestSetFaultsValidation, TestGrayFaultValidation,
//     TestFaultKindsComplete). ClearFaults plus a bounded drain is the
//     termination oracle (TestClearFaults).
//   - Visibility: a fault reaches a program only as a state poke —
//     port_up[port] = 0|1 at down/up boundaries. flowlet_route and
//     conga_route detour on a one-read liveness check (single-failure
//     tolerance); ecmp_route and spine_route stay failure-blind. Rerouting
//     is the transaction's decision, never the simulator's
//     (TestFaultRecoveryByRouting, TestFeedbackFaultRobustness).
//   - Per-kind semantics: TestLinkDownBlackholesInFlight,
//     TestLinkDownKeepsRunningInFlight, TestDegradeMidFlight,
//     TestDegradeToZeroStalls, TestCorruptionGuard (a guard rejection is
//     CorruptDropped, never a panic), TestSwitchStallAndCrash,
//     TestLinkReorderShufflesDeterministically, TestLinkDuplicateByteExact
//     (a wire duplicate bypasses inject(), so the transport's injection
//     split is untouched, and is pushed straight onto the link, so
//     duplication never cascades), TestLinkFlapStorm (a storm always ends
//     up).
//   - Restart: flushed packets are the switch's own port drops, so neither
//     identity gains a term. After the wipe the harness re-pokes exactly
//     what a controller re-syncs — switch_id, and port_up[p] to the link's
//     actual health (not down, capacity > 0), not the declared init;
//     queue_depth republishes on the next step. Scrambled state may
//     misroute and must never wedge (TestSwitchRestartWipesSoftState,
//     TestSwitchRestartScrambleCannotWedge, TestCongaRebalancesAfterRestart
//     bounds the post-restart imbalance drift).
//   - Per-link corruption, reorder and duplication draw from one seeded
//     RNG stream in tick order, so every schedule replays byte-identically
//     (TestFaultRunDeterminism).

import (
	"fmt"
	"math/rand"
	"sort"
)

// FaultKind is one fault event's type.
type FaultKind uint8

const (
	// FaultLinkDown takes a directed link down: its feeding port freezes
	// (queue holds, no service), packets in flight are blackholed, and the
	// feeding switch's port_up[port] state is poked to 0.
	FaultLinkDown FaultKind = iota
	// FaultLinkUp restores a downed or degraded link to full health: base
	// capacity, corruption off, port unfrozen, port_up[port] poked to 1.
	FaultLinkUp
	// FaultLinkDegrade sets a link's capacity to Capacity bytes/tick and
	// scales its DRE stamp by ceil(base/Capacity). Capacity 0 stalls the
	// link entirely — like FaultLinkDown it freezes the port and poisons
	// port_up, but packets already in flight are delivered, not destroyed.
	FaultLinkDegrade
	// FaultLinkCorrupt sets a link's per-packet corruption probability to
	// CorruptPerMil/1000 (0 switches corruption off). A corrupted packet
	// has 1–3 header slots scrambled and must pass the arrival-edge guard
	// or be counted CorruptDropped.
	FaultLinkCorrupt
	// FaultSwitchStall freezes a switch's service: queues hold and nothing
	// departs, but arrivals are still accepted and enqueued.
	FaultSwitchStall
	// FaultSwitchCrash freezes service and blackholes every packet
	// delivered or injected into the switch while crashed.
	FaultSwitchCrash
	// FaultSwitchUp clears a stall or crash; queued packets resume.
	FaultSwitchUp
	// FaultLinkReorder sets a link's in-flight reorder window to Window
	// (0 switches reordering off): each newly transmitted packet may swap
	// payloads with a seeded-random earlier packet among the last Window
	// in flight. Delivery ticks stay monotone; only the contents shuffle,
	// so conservation is untouched while sequence order is not.
	FaultLinkReorder
	// FaultLinkDuplicate sets a link's per-packet duplication probability
	// to DupPerMil/1000 (0 switches duplication off). A duplicate is a
	// byte-exact second copy injected on the same link at the same
	// delivery tick, counted in the DupInjected conservation terms.
	FaultLinkDuplicate
	// FaultSwitchRestart power-cycles a switch in place: queued packets
	// are flushed (counted as that switch's drops), the pipeline's state
	// arrays are wiped via banzai's ResetState — or seeded-scrambled via
	// ScrambleState when Scramble is set — and any stall/crash ends. The
	// harness re-pokes what the control plane owns (switch_id, port_up);
	// transaction-owned soft state (flowlet tables, CONGA path tables)
	// must re-converge from packets alone.
	FaultSwitchRestart
)

func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultLinkDegrade:
		return "link-degrade"
	case FaultLinkCorrupt:
		return "link-corrupt"
	case FaultSwitchStall:
		return "switch-stall"
	case FaultSwitchCrash:
		return "switch-crash"
	case FaultSwitchUp:
		return "switch-up"
	case FaultLinkReorder:
		return "link-reorder"
	case FaultLinkDuplicate:
		return "link-duplicate"
	case FaultSwitchRestart:
		return "switch-restart"
	}
	return fmt.Sprintf("fault-kind-%d", uint8(k))
}

// FaultKinds lists every fault kind once, in declaration order — the
// iteration set for coverage reports (the soak harness counts events
// per kind against it).
func FaultKinds() []FaultKind {
	return []FaultKind{
		FaultLinkDown, FaultLinkUp, FaultLinkDegrade, FaultLinkCorrupt,
		FaultSwitchStall, FaultSwitchCrash, FaultSwitchUp,
		FaultLinkReorder, FaultLinkDuplicate, FaultSwitchRestart,
	}
}

// FaultEvent is one scheduled fault. Link events name the directed link
// by its feeding switch and output port; switch events name the switch.
type FaultEvent struct {
	Tick int64
	Kind FaultKind
	Node NodeID // feeding switch (link events) or the switch itself
	Port int    // output port (link events only)

	Capacity      int64 // FaultLinkDegrade: new bytes/tick (0 stalls)
	CorruptPerMil int32 // FaultLinkCorrupt: probability in 1/1000 units
	DupPerMil     int32 // FaultLinkDuplicate: probability in 1/1000 units
	Window        int32 // FaultLinkReorder: in-flight shuffle window (0 off)
	Scramble      bool  // FaultSwitchRestart: scramble state instead of resetting
}

// FaultSchedule is a deterministic fault script: events fire at their
// tick, in stable order, and Seed drives every probabilistic choice
// (corruption lotteries, scrambled slots), so a fixed (schedule, trace)
// pair replays byte-identically.
type FaultSchedule struct {
	Seed   int64
	Events []FaultEvent
}

// Chainable builders, so tests read as scripts.

// LinkDown schedules a directed link failure.
func (f *FaultSchedule) LinkDown(tick int64, from NodeID, port int) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultLinkDown, Node: from, Port: port})
	return f
}

// LinkUp schedules a link recovery.
func (f *FaultSchedule) LinkUp(tick int64, from NodeID, port int) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultLinkUp, Node: from, Port: port})
	return f
}

// LinkDegrade schedules a capacity degradation (0 stalls the link).
func (f *FaultSchedule) LinkDegrade(tick int64, from NodeID, port int, bytesPerTick int64) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultLinkDegrade, Node: from, Port: port, Capacity: bytesPerTick})
	return f
}

// LinkCorrupt schedules a corruption-probability change (0 disables).
func (f *FaultSchedule) LinkCorrupt(tick int64, from NodeID, port int, perMil int32) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultLinkCorrupt, Node: from, Port: port, CorruptPerMil: perMil})
	return f
}

// LinkReorder schedules an in-flight reorder window change (0 disables).
func (f *FaultSchedule) LinkReorder(tick int64, from NodeID, port int, window int32) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultLinkReorder, Node: from, Port: port, Window: window})
	return f
}

// LinkDuplicate schedules a duplication-probability change (0 disables).
func (f *FaultSchedule) LinkDuplicate(tick int64, from NodeID, port int, perMil int32) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultLinkDuplicate, Node: from, Port: port, DupPerMil: perMil})
	return f
}

// LinkFlap schedules a down/up storm from one builder call: flaps
// down-events each followed by a recovery, the link spending downTicks
// dark and upTicks serving per cycle (both clamped to at least 1). The
// storm ends with the link up.
func (f *FaultSchedule) LinkFlap(tick int64, from NodeID, port int, flaps int, downTicks, upTicks int64) *FaultSchedule {
	if downTicks < 1 {
		downTicks = 1
	}
	if upTicks < 1 {
		upTicks = 1
	}
	t := tick
	for i := 0; i < flaps; i++ {
		f.LinkDown(t, from, port)
		f.LinkUp(t+downTicks, from, port)
		t += downTicks + upTicks
	}
	return f
}

// SwitchRestart schedules a power cycle: queues flushed, pipeline state
// reset to declared inits, stall/crash cleared.
func (f *FaultSchedule) SwitchRestart(tick int64, sw NodeID) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultSwitchRestart, Node: sw})
	return f
}

// SwitchRestartScramble is SwitchRestart with the state seeded-scrambled
// instead of reset — a restart from a torn checkpoint.
func (f *FaultSchedule) SwitchRestartScramble(tick int64, sw NodeID) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultSwitchRestart, Node: sw, Scramble: true})
	return f
}

// SwitchStall schedules a service freeze.
func (f *FaultSchedule) SwitchStall(tick int64, sw NodeID) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultSwitchStall, Node: sw})
	return f
}

// SwitchCrash schedules a crash (freeze + blackhole arrivals).
func (f *FaultSchedule) SwitchCrash(tick int64, sw NodeID) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultSwitchCrash, Node: sw})
	return f
}

// SwitchUp schedules a stall/crash recovery.
func (f *FaultSchedule) SwitchUp(tick int64, sw NodeID) *FaultSchedule {
	f.Events = append(f.Events, FaultEvent{Tick: tick, Kind: FaultSwitchUp, Node: sw})
	return f
}

// SetFaults installs a fault schedule. The topology must be fully wired
// (every event's link must exist) and the clock must not have started.
// Events are applied in stable tick order at the top of their tick,
// before deliveries. Calling SetFaults again replaces the schedule.
func (n *Network) SetFaults(f *FaultSchedule) error {
	if n.ready {
		return fmt.Errorf("netsim: cannot set faults after the clock started")
	}
	events := make([]FaultEvent, len(f.Events))
	copy(events, f.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Tick < events[j].Tick })
	for i := range events {
		ev := &events[i]
		w, err := n.switchAt(ev.Node)
		if err != nil {
			return fmt.Errorf("netsim: fault %d (%s): %w", i, ev.Kind, err)
		}
		switch ev.Kind {
		case FaultLinkDown, FaultLinkUp, FaultLinkDegrade, FaultLinkCorrupt, FaultLinkReorder, FaultLinkDuplicate:
			if ev.Port < 0 || ev.Port >= len(w.links) || w.links[ev.Port] == nil {
				return fmt.Errorf("netsim: fault %d (%s): switch %q has no link on port %d", i, ev.Kind, w.name, ev.Port)
			}
		case FaultSwitchStall, FaultSwitchCrash, FaultSwitchUp, FaultSwitchRestart:
			// Naming the switch is enough.
		default:
			return fmt.Errorf("netsim: fault %d: unknown kind %d", i, uint8(ev.Kind))
		}
		if ev.Kind == FaultLinkDegrade && ev.Capacity < 0 {
			return fmt.Errorf("netsim: fault %d: negative capacity %d", i, ev.Capacity)
		}
		if ev.Kind == FaultLinkCorrupt && (ev.CorruptPerMil < 0 || ev.CorruptPerMil > 1000) {
			return fmt.Errorf("netsim: fault %d: corruption %d‰ outside [0,1000]", i, ev.CorruptPerMil)
		}
		if ev.Kind == FaultLinkDuplicate && (ev.DupPerMil < 0 || ev.DupPerMil > 1000) {
			return fmt.Errorf("netsim: fault %d: duplication %d‰ outside [0,1000]", i, ev.DupPerMil)
		}
		if ev.Kind == FaultLinkReorder && ev.Window < 0 {
			return fmt.Errorf("netsim: fault %d: negative reorder window %d", i, ev.Window)
		}
	}
	n.faultEvents = events
	n.faultNext = 0
	n.faultSeed = f.Seed
	return nil
}

// applyFaults fires every event due at the current tick.
func (n *Network) applyFaults() {
	for n.faultNext < len(n.faultEvents) && n.faultEvents[n.faultNext].Tick <= n.now {
		n.applyFault(&n.faultEvents[n.faultNext])
		n.faultNext++
	}
}

func (n *Network) applyFault(ev *FaultEvent) {
	w := n.nodes[ev.Node].sw // validated by SetFaults
	switch ev.Kind {
	case FaultLinkDown:
		l := w.links[ev.Port]
		if l.down {
			return
		}
		l.down = true
		n.freezePort(l, true)
		// Packets in flight when the link died are destroyed.
		for l.n > 0 {
			f := n.pop(l)
			n.blackhole(l, f.h, f.size)
		}
	case FaultLinkUp:
		n.restoreLink(w.links[ev.Port])
	case FaultLinkDegrade:
		l := w.links[ev.Port]
		if l.down {
			return // degrading a dead link is a no-op; LinkUp restores
		}
		if ev.Capacity <= 0 {
			// Stalled, not severed: the port freezes and programs see the
			// port as down, but in-flight packets still deliver.
			l.capacity = 0
			n.freezePort(l, true)
			return
		}
		l.capacity = ev.Capacity
		w.sw.SetPortRate(ev.Port, ev.Capacity)
		l.utilScale = (l.base + ev.Capacity - 1) / ev.Capacity
		if l.utilScale < 1 {
			l.utilScale = 1
		}
		n.freezePort(l, false) // a prior degrade-to-0 may have frozen it
	case FaultLinkCorrupt:
		l := w.links[ev.Port]
		if ev.CorruptPerMil <= 0 {
			l.corrupt = 0
			return
		}
		l.corrupt = uint64(ev.CorruptPerMil) * (1 << 32) / 1000
		n.ensureRNG(l, ev)
	case FaultLinkReorder:
		l := w.links[ev.Port]
		if ev.Window <= 0 {
			l.reorderWin = 0
			return
		}
		l.reorderWin = ev.Window
		n.ensureRNG(l, ev)
	case FaultLinkDuplicate:
		l := w.links[ev.Port]
		if ev.DupPerMil <= 0 {
			l.dup = 0
			return
		}
		l.dup = uint64(ev.DupPerMil) * (1 << 32) / 1000
		n.ensureRNG(l, ev)
	case FaultSwitchStall:
		w.stalled = true
		w.noteFreeze(n.now)
	case FaultSwitchCrash:
		w.crashed = true
		w.noteFreeze(n.now)
	case FaultSwitchUp:
		w.stalled, w.crashed = false, false
		w.noteFreeze(n.now)
	case FaultSwitchRestart:
		n.restartSwitch(w, ev)
	}
}

// ensureRNG lazily seeds a link's fault lottery. Seeded from the schedule
// seed and the link's identity, so the lottery replays identically however
// events interleave — corruption, reorder, and duplication share one
// stream per link, drawn in deterministic tick order.
func (n *Network) ensureRNG(l *link, ev *FaultEvent) {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(n.faultSeed ^ (int64(ev.Node)<<20|int64(ev.Port))*0x9e3779b9))
	}
}

// restartSwitch power-cycles a switch in place. Queued packets flush as
// the switch's own drops (its conservation identity charges them to the
// ports they waited on), the pipeline's state arrays are wiped — reset to
// declared inits, or seeded-scrambled for a torn-checkpoint restart — and
// any stall or crash ends. Control-plane-owned state the harness poked
// (switch_id, port_up) is re-poked immediately; queue_depth republishes on
// the same tick's depth pass. Everything the transactions own (flowlet
// tables, CONGA best-path tables) starts over and must re-converge from
// packets alone.
func (n *Network) restartSwitch(w *netSwitch, ev *FaultEvent) {
	w.syncTo(n.now - 1) // the flush happens on the switch's clock
	pkts, bytes := w.sw.FlushQueues(nil)
	n.queuedPkts -= pkts
	n.queuedBytes -= bytes
	n.droppedPkts += pkts
	n.droppedBytes += bytes
	// A flushed head packet may leave store-and-forward credit on its
	// port; the next service pass retires it, so the switch stays in (or
	// joins) the service set for that pass even though it is empty.
	n.active.add(w.idx)
	n.touched(w)
	m := w.sw.Machine()
	if ev.Scramble {
		m.ScrambleState(n.faultSeed ^ int64(ev.Node)*0x9e3779b9 ^ n.now<<24)
	} else {
		m.ResetState()
	}
	w.switchID.Set(0, int32(w.id))
	for port, l := range w.links {
		if l == nil {
			continue
		}
		up := !l.down && l.capacity > 0
		w.sw.SetPortUp(port, up)
		v := int32(0)
		if up {
			v = 1
		}
		w.portUp.Set(port, v)
	}
	w.stalled, w.crashed = false, false
	w.noteFreeze(n.now)
}

// freezePort stalls or unfreezes a link's feeding port and keeps the
// feeding switch's port_up state array in sync, when the program declares
// one (leaf routing does; spine_route and ecmp_route stay failure-blind
// by not reading it).
func (n *Network) freezePort(l *link, down bool) {
	l.from.sw.SetPortUp(l.fromPort, !down)
	v := int32(1)
	if down {
		v = 0
	}
	l.from.portUp.Set(l.fromPort, v)
}

// restoreLink returns a link to full health: up, base capacity, clean
// DRE scale, corruption/reorder/duplication off, port unfrozen, port_up
// re-poked.
func (n *Network) restoreLink(l *link) {
	l.down = false
	l.capacity = l.base
	l.utilScale = 1
	l.corrupt = 0
	l.reorderWin = 0
	l.dup = 0
	l.from.sw.SetPortRate(l.fromPort, l.base)
	n.freezePort(l, false)
}

// ClearFaults cancels every pending event and restores all links and
// switches to healthy. Losses already incurred stay accounted. It is the
// chaos harness's epilogue: clear, Drain, then assert conservation and
// an empty pool (LiveHeaders == 0) — turning arbitrary schedules into
// terminating tests.
func (n *Network) ClearFaults() {
	n.faultNext = len(n.faultEvents)
	for _, l := range n.links {
		n.restoreLink(l)
	}
	for _, w := range n.switches {
		w.stalled, w.crashed = false, false
		w.noteFreeze(n.now)
	}
}

// RandomFaults builds a seeded random schedule over the wired topology
// for chaos testing: link downs (some never recovered — ClearFaults
// handles them), degradations, corruption/reorder/duplication windows,
// flap storms, and switch stalls, crashes, or restarts, all within
// [1, horizon].
func (n *Network) RandomFaults(seed, horizon int64) *FaultSchedule {
	rng := rand.New(rand.NewSource(seed))
	f := &FaultSchedule{Seed: rng.Int63()}
	if horizon < 2 {
		horizon = 2
	}
	at := func() int64 { return 1 + rng.Int63n(horizon) }
	for i, count := 0, 1+rng.Intn(8); i < count; i++ {
		if len(n.links) > 0 && (len(n.switches) == 0 || rng.Intn(3) > 0) {
			l := n.links[rng.Intn(len(n.links))]
			from, port := l.from.id, l.fromPort
			switch rng.Intn(7) {
			case 0:
				t := at()
				f.LinkDown(t, from, port)
				if rng.Intn(2) == 0 {
					f.LinkUp(t+1+rng.Int63n(horizon), from, port)
				}
			case 1:
				cap := int64(0)
				if l.base > 0 && rng.Intn(4) > 0 {
					cap = 1 + rng.Int63n(l.base)
				}
				t := at()
				f.LinkDegrade(t, from, port, cap)
				if rng.Intn(2) == 0 {
					f.LinkUp(t+1+rng.Int63n(horizon), from, port)
				}
			case 2:
				t := at()
				f.LinkCorrupt(t, from, port, 1+rng.Int31n(1000))
				if rng.Intn(2) == 0 {
					f.LinkCorrupt(t+1+rng.Int63n(horizon), from, port, 0)
				}
			case 3:
				f.LinkUp(at(), from, port) // spurious recovery: must be a no-op
			case 4:
				t := at()
				f.LinkReorder(t, from, port, 2+rng.Int31n(15))
				if rng.Intn(2) == 0 {
					f.LinkReorder(t+1+rng.Int63n(horizon), from, port, 0)
				}
			case 5:
				t := at()
				f.LinkDuplicate(t, from, port, 1+rng.Int31n(1000))
				if rng.Intn(2) == 0 {
					f.LinkDuplicate(t+1+rng.Int63n(horizon), from, port, 0)
				}
			case 6:
				f.LinkFlap(at(), from, port, 1+rng.Intn(4), 1+rng.Int63n(8), 1+rng.Int63n(8))
			}
		} else if len(n.switches) > 0 {
			w := n.switches[rng.Intn(len(n.switches))]
			t := at()
			switch rng.Intn(4) {
			case 0:
				f.SwitchStall(t, w.id)
			case 1:
				f.SwitchCrash(t, w.id)
			case 2:
				f.SwitchRestart(t, w.id)
			case 3:
				f.SwitchRestartScramble(t, w.id)
			}
			if rng.Intn(2) == 0 {
				f.SwitchUp(t+1+rng.Int63n(horizon), w.id)
			}
		}
	}
	return f
}
