// Package netsim is a discrete-tick network simulator that wires
// compiled-pipeline switches (internal/switchsim) into a topology: links
// with propagation delay and capacity, end hosts that source workload
// traces and sink departures, and next-hop forwarding driven by a packet
// field the switch pipeline writes — so ECMP hashing, flowlet path
// pinning and CONGA-style utilization-aware routing are ordinary Domino
// transactions, not simulator code (see internal/algorithms/routing.go).
//
// The data path is allocation-free end to end: a packet travels
// host→switch→link→switch as a pooled banzai.Header. Ownership moves
// with the packet:
//
//   - A host injection acquires a header from its leaf's machine pool,
//     stamps the canonical fields (see FieldSport etc.) and hands it to
//     Switch.InjectH, which owns it from there.
//   - A departure is handed to the link by Switch.TickFunc without
//     decoding. For a switch-to-switch link, the link immediately
//     re-homes the packet: it acquires a header from the destination
//     machine's pool, copies the declared fields across (by name, final
//     SSA version → input slot, precomputed at Connect time), and
//     releases the source header back to its own pool — so a header in
//     flight on a link is always owned by the pool of the machine that
//     will process it next. For a switch-to-host link the header stays
//     with the sending machine and is released there once the sink has
//     read it.
//   - Sinks never decode to interp.Packet; they read the few slots they
//     need (flow id, feedback fields) directly.
//
// Links also model CONGA's DRE: each link keeps a decaying byte counter
// and stamps max(so-far, local) into the packet's util field, so a
// delivered packet carries the maximum utilization along its path —
// which sink hosts can reflect to the sender as feedback packets.
//
// Contracts, each with the tests that enforce it. The layers above the
// raw fabric state theirs in their file headers: faults.go (fault model,
// degradation, restarts), transport.go (reliable delivery), obs.go
// (telemetry wiring, snapshots), soak.go (the composition oracle),
// fattree.go and leafspine.go (topologies and port maps).
//
//   - Routing is program, not simulator: forwarding follows the
//     out_port field the pipeline wrote, reduced modulo the port count.
//     Hosts stamp sport/dport/arrival/src/dst/size_bytes/flow, feedback
//     uses fb/fb_path/fb_util, links stamp util; a switch-to-switch bridge
//     copies declared fields only, so a field every hop must see has to be
//     declared on every hop, spines included (TestLeafSpineBalance,
//     TestCrossProgramBridge, TestLeafSpineShape, TestFatTreeTopology).
//   - The ownership rules above: TestNetHotPathZeroAlloc, and LiveHeaders
//     == queued + in-flight at tick boundaries, 0 after a drain
//     (TestConservationEveryTick, TestConservationWithFeedback,
//     FuzzNetTopology, which also checks no duplication on random DAGs).
//   - Conservation: CheckConservation holds byte-exact at every tick
//     boundary — the physical identity, and with a transport its three
//     splits — and audits the step loop's running totals and service set
//     against Totals(), the from-scratch sum that is never optimised. Every
//     scenario test, fuzz target and per-tick soak check calls it.
//   - Determinism: a fixed seed replays byte-identically, also under -race
//     (TestNetsimDeterminism, TestFaultRunDeterminism,
//     TestReliableDeterminism, TestSnapshotDeterministic,
//     TestShardedFlowPinnedDeterminism).
//   - Event core: Run/Drain jump to nextEventTick; every wakeup source —
//     link wheel, transport timers, trace arrivals, faults, switches — may
//     answer early and never late. Time-decayed state (DRE) is a pure
//     function of elapsed ticks; switch clocks are fabric time minus
//     freeze lag, synced lazily; wedged states force now+1 so the watchdog
//     trips at the polled core's tick. Step() is the polled twin, and the
//     two must agree on delivery digest, Totals, transport totals, FCTs,
//     final tick and conservation for every scenario class
//     (TestEventCoreDifferentialHealthy, …Observability, …Faults,
//     …Transport, …FatTree, TestEventCoreSkipsIdleTime). Because Step and
//     Drain share step(), active_test.go pins clock stamps, service-set
//     membership and depth republication by hand
//     (TestSwitchClockAfterSkippedTime, TestStalledIdleSwitchStampsFreezeTime,
//     TestRestartLeavesServiceSet, TestRestartWhileFrozenWaitsForItsPass,
//     TestScrambledIdleSwitchRepublishesDepths, TestStepCostFollowsActiveSwitches,
//     TestGhostWakeupsCounted).
//   - Control-plane state goes through handles: AddSwitch resolves
//     queue_depth, port_up and switch_id to banzai.StateRefs once; nothing
//     outside tests names a state variable after construction
//     (TestRestartRepokesStateThroughHandles).
//   - Bad wiring, schedules and configs are errors, not panics, and a
//     wedged fabric is a watchdog error naming the tick, per-node depths
//     and in-flight count (TestNetworkWiringErrors, TestFatTreeRejectsBadConfig,
//     TestWatchdogTripsOnWedgedNetwork, TestFatTreeWatchdogTripsOnWedge,
//     TestWatchdogBelowLinkDelay).
package netsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"domino/internal/algorithms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/switchsim"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

// Canonical packet-field names netsim stamps or reads. A switch program
// may declare any subset; missing fields are skipped.
const (
	FieldSport   = "sport"
	FieldDport   = "dport"
	FieldArrival = "arrival"
	FieldSrc     = "src"
	FieldDst     = "dst"
	FieldSize    = "size_bytes"
	FieldFlow    = "flow"
	FieldFb      = "fb"
	FieldFbPath  = "fb_path"
	FieldFbUtil  = "fb_util"
	FieldUtil    = "util"
	FieldPathID  = "path_id"
	FieldSeq     = "seq"
	FieldEcn     = "ecn"
	FieldFbAck   = "fb_ack"
	FieldFbEcn   = "fb_ecn"
	FieldCsum    = "csum"
	// In-band telemetry fields, stamped hop-by-hop by the int_stamp
	// transaction block (RouteParams.INT) and decoded at sinks.
	FieldHops       = "hops"
	FieldQMax       = "qmax"
	FieldQDelay     = "qdelay"
	FieldPathDigest = "path_digest"
)

// dreShift is the links' utilization-estimator decay: every tick the
// counter loses 1/2^dreShift of itself, so the steady-state estimate is
// ~2^dreShift × the link's bytes/tick (CONGA's discounting rate
// estimator, in fixed point).
const dreShift = 4

// DefaultFeedbackBytes is the size of reflected CONGA feedback packets.
const DefaultFeedbackBytes = 64

// NodeID names a node (switch or host) of a Network.
type NodeID int

// LinkOptions configures one directed link.
type LinkOptions struct {
	// Delay is the propagation delay in ticks (minimum and default 1): a
	// packet emitted at tick t is delivered at t+Delay.
	Delay int64
	// CapacityBytesPerTick caps the link's rate by overriding the feeding
	// switch port's service rate. 0 keeps the switch's configured rate.
	CapacityBytesPerTick int64
}

// LinkStats is one link's accounting, for utilization and balance reports.
type LinkStats struct {
	From, To string
	Port     int
	Delay    int64
	Capacity int64
	Pkts     int64
	Bytes    int64
}

// Utilization returns the link's average utilization over d ticks.
func (ls LinkStats) Utilization(d int64) float64 {
	if d <= 0 || ls.Capacity <= 0 {
		return 0
	}
	return float64(ls.Bytes) / float64(ls.Capacity*d)
}

// node is one topology node: a switch or a host.
type node struct {
	name string
	sw   *netSwitch
	host *Host
}

// fieldSlots caches the canonical input slots of one switch layout (-1
// when the program does not declare the field) — the injection stamp set.
type fieldSlots struct {
	sport, dport, arrival, src, dst, size, flow, fb, fbPath, fbUtil int
	seq, fbAck, fbEcn, csum                                         int
}

type netSwitch struct {
	id    NodeID
	idx   int32 // position in Network.switches: this switch's bit in a swSet
	name  string
	sw    *switchsim.Switch
	prog  *codegen.Program
	links []*link // per output port; nil = unbound
	in    fieldSlots
	// emit is the TickFunc callback, built once so ticking allocates
	// nothing per call.
	emit func(port int, qh switchsim.QueuedHeader)

	// Handles to the control-plane-owned state the harness pokes
	// (queue_depth, port_up, switch_id), resolved once at AddSwitch so no
	// step looks a state variable up by name. A program that does not
	// touch one leaves its handle zero, which refuses every poke.
	qdepth, portUp, switchID banzai.StateRef
	// qdPorts is how many leading elements of the program's queue_depth
	// array the harness refreshes each tick (0 when the program does not
	// declare the array — ECN marking off). Resolved once at AddSwitch.
	qdPorts int

	// Fault state (see faults.go). A stalled switch stops servicing its
	// queues but still accepts arrivals; a crashed switch additionally
	// blackholes everything delivered or injected into it.
	stalled bool
	crashed bool

	// Frozen-time bookkeeping: a switch's local clock advances only on
	// ticks it is running, so switch time = fabric time − lag, where lag
	// is the total ticks spent stalled or crashed. Tracking lag as tick
	// arithmetic (frozenAt marks the freeze's start; −1 while running)
	// makes the local clock a pure function of fabric time and fault
	// history — identical whether the driver stepped or skipped the idle
	// ticks in between.
	//
	// The switch's own clock is synced lazily (syncTo): before every
	// enqueue, flush, freeze and external read, and by TickAt on service —
	// never in a loop over idle switches.
	frozenAt int64
	lag      int64
}

// frozen reports whether a fault has the switch stalled or crashed.
func (w *netSwitch) frozen() bool { return w.stalled || w.crashed }

// syncTo brings a running switch's clock to what it reads once fabric
// tick t has been serviced: t minus the frozen-time lag. A frozen switch
// keeps the clock noteFreeze left it; AdvanceTo never rewinds.
func (w *netSwitch) syncTo(t int64) {
	if !w.frozen() {
		w.sw.AdvanceTo(t - w.lag)
	}
}

// noteFreeze updates the frozen-time bookkeeping after any mutation of
// stalled/crashed; now is the fabric tick the mutation happened at. A
// freeze first syncs the clock to the last tick the switch was running
// (now-1): a switch idle since long before the fault must stamp arrivals
// landing during the freeze with the freeze's time, not its last packet's.
func (w *netSwitch) noteFreeze(now int64) {
	frozen := w.frozen()
	if frozen && w.frozenAt < 0 {
		w.sw.AdvanceTo(now - 1 - w.lag)
		w.frozenAt = now
	} else if !frozen && w.frozenAt >= 0 {
		w.lag += now - w.frozenAt
		w.frozenAt = -1
	}
}

// swSet is a set of switches: a bitmap over Network.switches indices, so
// iterating it visits members in switch-creation order.
type swSet []uint64

func (s swSet) add(i int32)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s swSet) del(i int32)      { s[i>>6] &^= 1 << (uint(i) & 63) }
func (s swSet) has(i int32) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Host is an end host: a traffic source (its packets enter its leaf
// switch) and a sink (departures on its access link are delivered here).
type Host struct {
	id       NodeID
	name     string
	leaf     *netSwitch // switch this host injects into
	net      *Network
	traceIdx int32 // index in the trace host mapping; -1 outside it

	// Sink accounting (data packets exclude reflected feedback).
	RcvdPkts  int64
	RcvdBytes int64
	FbPkts    int64
	FbBytes   int64
}

// Delivery is one OnDeliver event: a packet handed to a sink host, after
// the host's accounting. Flow and Seq are -1 when the delivering program
// does not carry the field; Fb marks reflected feedback packets; Dup
// marks data packets the transport's sink-side dedup suppressed. Hops
// and Digest are the packet's in-band telemetry record (hop count and
// accumulated path digest) when the program ran the int_stamp block;
// Hops is -1 when the field is absent.
type Delivery struct {
	Host   NodeID
	Flow   int32
	Seq    int32
	Size   int64
	Fb     bool
	Dup    bool
	Hops   int32
	Digest int32
}

// inflight is one packet on a link.
type inflight struct {
	at   int64 // delivery tick
	h    banzai.Header
	size int64
}

// slotPair copies one source-layout slot into one destination-layout slot.
type slotPair struct{ src, dst int }

type link struct {
	from     *netSwitch
	fromPort int
	to       *node
	delay    int64
	capacity int64

	// Bridge from the sender's layout into the receiver's (switch
	// destinations only): identical programs take the copy() fast path.
	bridge   []slotPair
	samePool bool

	// Sink read slots (host destinations only), resolved against the
	// sender's layout: departing (final) values for program-written
	// fields, input slots otherwise. (Size is not among them: sinks take
	// it from the inflight record, never from the header.)
	rFlow, rFb, rSrc, rDport, rSport, rPathID, rUtil int
	rDst, rSeq, rEcn, rFbAck, rFbEcn, rCsum          int
	rArrival, rHops, rQMax, rQDelay, rDigest         int

	// utilSlot is where the DRE stamp lands in the in-flight header's
	// layout (the receiver's for switch links, the sender's for host
	// links); -1 when the program does not declare util.
	utilSlot int

	// FIFO ring of in-flight packets (single delay → delivery order is
	// emission order).
	ring []inflight
	head int
	n    int

	// dre decays by 1/2^dreShift per tick, applied lazily: dreTick is the
	// last tick whose decay has been folded in, and transmit catches up
	// before adding bytes. Lazy and eager are byte-identical because the
	// per-tick decay is the identity once dre>>dreShift reaches zero.
	dre     int64
	dreTick int64
	pkts    int64
	bytes   int64

	// Fault state (see faults.go). base is the healthy capacity so
	// LinkUp/ClearFaults can restore it. utilScale poisons the DRE stamp
	// of a degraded link: the stamp is dre*utilScale (saturating), so a
	// link at 1/k capacity advertises k× its raw estimate and
	// utilization-aware programs steer away from it. corrupt is a
	// per-packet corruption probability as a uint32 threshold (0 = off);
	// rng drives the corruption lottery and the slots it scrambles,
	// seeded deterministically from the schedule seed and link identity.
	// (The threshold is uint64 so 1000‰ maps to 1<<32 — always — instead
	// of overflowing uint32 to never.)
	// reorderWin and dup are the gray-failure knobs: a nonzero reorderWin
	// lets each transmitted packet swap payloads with a seeded-random
	// earlier packet among the last reorderWin in flight (delivery ticks
	// stay monotone — only contents shuffle), and dup is a per-packet
	// duplication probability as a uint32 threshold, same encoding as
	// corrupt. Both draw from the shared rng.
	base       int64
	down       bool
	utilScale  int64
	corrupt    uint64
	reorderWin int32
	dup        uint64
	rng        *rand.Rand
	// Arrival-edge guard slots, resolved against the in-flight header's
	// layout (receiver for switch links, sender for host links); -1 when
	// the program does not declare the field.
	gSrc, gDst, gFb, gSize int

	// Calendar-queue state: idx is this link's position in Network.links
	// (the tie-breaker that keeps same-tick deliveries in link-creation
	// order, exactly like the old poll-every-link loop); calAt is the tick
	// of this link's earliest armed wakeup, -1 when none is armed.
	idx   int32
	calAt int64
}

// Network is a topology of switches, hosts and links plus the global
// clock and the trace being replayed.
type Network struct {
	nodes    []*node
	switches []*netSwitch
	hosts    []*Host
	links    []*link
	now      int64
	ready    bool

	// active is the service set: the switches step() runs a service pass
	// on and nextEventTick asks for their next event. A switch joins when
	// a packet is enqueued into it and leaves after a pass that empties
	// it, so at every step boundary a running switch is a member iff it
	// holds packets. One exception joins empty: a restarted switch, for
	// the one pass that retires any store-and-forward credit its flushed
	// head packet had accrued. Servicing an empty member is what the
	// all-switch loop did to every switch; missing a non-empty one is the
	// forbidden direction, and CheckConservation checks it.
	active swSet
	// dirty is the switches whose queue depths or state arrays changed
	// this step and whose program declares queue_depth; the step's depth
	// pass publishes these and empties the set.
	dirty swSet

	// Running conservation terms, updated where packets move (enqueue,
	// tail drop, dequeue, flush, link push/pop): what the watchdog and
	// idle() read each step. Totals() re-sums the same terms from the
	// switches and link rings and CheckConservation compares the two.
	queuedPkts, queuedBytes     int64
	droppedPkts, droppedBytes   int64
	inFlightPkts, inFlightBytes int64

	// wheel is the link-delivery calendar: a timing wheel of per-tick
	// buckets (wheel[t % len(wheel)] lists the links with a delivery
	// wakeup at tick t), sized at Start to the longest link delay + 1 so
	// every armed tick lands in a distinct future bucket. Arming is a
	// plain append; the step for tick t sorts its bucket by link-creation
	// index — the (tick, index) order a min-heap would pop, and exactly
	// the order the old poll-every-link loop visited — then empties it.
	// Each link keeps at most one live entry (armLink dedups via
	// link.calAt; a superseded ghost delivers nothing and is harmless);
	// steps counts processed simulation steps — the event core's work
	// metric, and the denominator of the skipped-tick ratio Steps()/Now().
	wheel     [][]int32
	wheelMask int64 // len(wheel)-1; the wheel is a power of two so bucket lookup is a mask, not a divide
	wheelSpan int64 // longest link delay: arms land in (now, now+wheelSpan]
	steps     int64

	trace     *workload.NetTrace
	traceHost []*Host // trace host index → Host
	traceNext int

	// Flow bookkeeping for FCT measurement.
	flowSeen  []int32
	flowDone  []int64
	flowStart []int64

	// Feedback controls CONGA-style reflection: when true, a sink host
	// answers every delivered data packet with a FeedbackBytes-sized
	// fb=1 packet to the sender carrying the forward path's id and max
	// utilization.
	Feedback      bool
	FeedbackBytes int64

	// OnDeliver, when set, observes every packet handed to a sink host
	// (after the host's accounting). Determinism tests record this
	// sequence; the hook must not retain any header, which is already
	// released by the time it runs.
	OnDeliver func(ev Delivery)

	// transport, when non-nil, owns injection pacing, retransmission and
	// sink-side dedup/ACK generation (see transport.go).
	transport *Transport

	injectedPkts, injectedBytes   int64
	deliveredPkts, deliveredBytes int64

	// Delivered split: every delivered packet is exactly one of accepted
	// (a data packet counted once at its sink), duplicate-dropped (a
	// retransmit copy the sink's dedup suppressed — transport mode only),
	// or delivered feedback. fbInj counts reflected feedback injections,
	// the non-trace share of injectedPkts.
	acceptedPkts, acceptedBytes int64
	dupPkts, dupBytes           int64
	fbDelivPkts, fbDelivBytes   int64
	fbInjPkts, fbInjBytes       int64

	// Fault machinery (see faults.go): the sorted schedule, a cursor into
	// it, and the two fault-loss conservation terms. Blackholed counts
	// packets destroyed by the fabric (in flight on a link that went
	// down, delivered or injected into a crashed switch); CorruptDropped
	// counts packets the arrival-edge validation guard rejected.
	faultEvents                     []FaultEvent
	faultNext                       int
	faultSeed                       int64
	blackholedPkts, blackholedBytes int64
	corruptPkts, corruptBytes       int64
	// DupInjected counts the extra copies a FaultLinkDuplicate lottery
	// materialized on the wire — a second injection source, so the
	// physical identity reads injected + dupInjected = everything else.
	dupInjPkts, dupInjBytes int64

	// WatchdogTicks bounds how long Run/Drain tolerate zero progress
	// (identical conservation totals, nothing in flight to wait for, no
	// pending trace or fault events) before failing loudly; 0 means the
	// default of 4096 ticks. It must exceed the longest link delay.
	WatchdogTicks int64

	// Telemetry (see SetTelemetry): the sink instruments are resolved
	// once, the trace ring records sampled per-packet events, and
	// pathPkts tallies accepted data deliveries per INT path digest.
	sink      telemetry.Sink
	ring      *telemetry.Ring
	latencyH  *telemetry.Histogram // injection→sink delivery latency, ticks
	fctH      *telemetry.Histogram // flow completion times, ticks
	linkOccH  *telemetry.Histogram // in-flight packets per link, at transmit
	hopsH     *telemetry.Histogram // INT hop counts of delivered data
	qmaxH     *telemetry.Histogram // INT max queue depth along the path
	qdelayH   *telemetry.Histogram // INT summed queue depth along the path
	ecnC      *telemetry.Counter   // delivered data packets carrying an ECN mark
	ecnMarked int64
	pathPkts  map[int32]int64

	// Simulator self-telemetry: the work the step loop itself did.
	servicesC   *telemetry.Counter // switch service passes (TickAt calls)
	deliveriesC *telemetry.Counter // link visits that delivered packets
	ghostsC     *telemetry.Counter // calendar wakeups that found nothing due
}

// New creates an empty network.
func New() *Network {
	return &Network{FeedbackBytes: DefaultFeedbackBytes}
}

// Now returns the current tick.
func (n *Network) Now() int64 { return n.now }

func slotOr(l *banzai.Layout, field string) int {
	if s, ok := l.Slot(field); ok {
		return s
	}
	return -1
}

// outSlot resolves a field's departing value: the final SSA version when
// the program writes it, the input slot otherwise.
func outSlot(l *banzai.Layout, field string) int {
	if s, ok := l.OutputSlot(field); ok {
		return s
	}
	return slotOr(l, field)
}

// AddSwitch instantiates a switch around a compiled program. The switch's
// RouteField steers departures to ports; every port must be bound with
// Connect before the first Step.
func (n *Network) AddSwitch(name string, prog *codegen.Program, cfg switchsim.Config) (NodeID, error) {
	if n.ready {
		return 0, fmt.Errorf("netsim: cannot add switch %q after the clock started", name)
	}
	if n.sink != nil && cfg.Telemetry == nil {
		cfg.Telemetry = n.sink
		cfg.TelemetryPrefix = "sw." + name
	}
	if n.ring != nil && cfg.Trace == nil {
		cfg.Trace = n.ring
		cfg.TraceNode = int32(len(n.nodes))
	}
	sw, err := switchsim.New(prog, cfg)
	if err != nil {
		return 0, fmt.Errorf("netsim: switch %q: %w", name, err)
	}
	l := sw.Machine().Layout()
	w := &netSwitch{
		id:       NodeID(len(n.nodes)),
		idx:      int32(len(n.switches)),
		name:     name,
		sw:       sw,
		prog:     prog,
		links:    make([]*link, cfg.Ports),
		frozenAt: -1,
		in: fieldSlots{
			sport: slotOr(l, FieldSport), dport: slotOr(l, FieldDport),
			arrival: slotOr(l, FieldArrival), src: slotOr(l, FieldSrc),
			dst: slotOr(l, FieldDst), size: slotOr(l, FieldSize),
			flow: slotOr(l, FieldFlow), fb: slotOr(l, FieldFb),
			fbPath: slotOr(l, FieldFbPath), fbUtil: slotOr(l, FieldFbUtil),
			seq: slotOr(l, FieldSeq), fbAck: slotOr(l, FieldFbAck),
			fbEcn: slotOr(l, FieldFbEcn), csum: slotOr(l, FieldCsum),
		},
	}
	w.emit = func(port int, qh switchsim.QueuedHeader) { n.transmit(w, port, qh) }
	m := sw.Machine()
	w.qdepth, _ = m.StateRef(algorithms.ECNQueueState)
	w.portUp, _ = m.StateRef(algorithms.PortUpState)
	w.switchID, _ = m.StateRef(algorithms.INTSwitchIDState)
	// A program that declares (and uses) the observation block's
	// queue_depth array gets it refreshed from the real queues each tick
	// (publishQueueDepths — shared by ECN marking and INT stamping).
	for w.qdPorts < cfg.Ports {
		if _, ok := w.qdepth.Get(w.qdPorts); !ok {
			break
		}
		w.qdPorts++
	}
	// An INT-stamping program learns this switch's identity once: the
	// node id it folds into every packet's path digest. The poke simply
	// refuses when the program declares no switch_id.
	w.switchID.Set(0, int32(w.id))
	n.switches = append(n.switches, w)
	if len(n.switches) > 64*len(n.active) {
		n.active = append(n.active, 0)
		n.dirty = append(n.dirty, 0)
	}
	n.nodes = append(n.nodes, &node{name: name, sw: w})
	return w.id, nil
}

// AddHost attaches an end host to its leaf switch: the host's packets are
// injected there. The reverse direction (leaf to host) is a normal link
// bound with Connect to one of the leaf's downlink ports.
func (n *Network) AddHost(name string, leaf NodeID) (NodeID, error) {
	if n.ready {
		return 0, fmt.Errorf("netsim: cannot add host %q after the clock started", name)
	}
	w, err := n.switchAt(leaf)
	if err != nil {
		return 0, fmt.Errorf("netsim: host %q: %w", name, err)
	}
	h := &Host{id: NodeID(len(n.nodes)), name: name, leaf: w, net: n, traceIdx: -1}
	n.hosts = append(n.hosts, h)
	n.nodes = append(n.nodes, &node{name: name, host: h})
	return h.id, nil
}

func (n *Network) switchAt(id NodeID) (*netSwitch, error) {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return nil, fmt.Errorf("unknown node %d", id)
	}
	w := n.nodes[id].sw
	if w == nil {
		return nil, fmt.Errorf("node %q is not a switch", n.nodes[id].name)
	}
	return w, nil
}

// Connect binds a switch's output port to a directed link toward another
// switch or a host. For switch destinations the field bridge (sender
// final values → receiver input slots, by name) is precomputed here.
func (n *Network) Connect(from NodeID, port int, to NodeID, opts LinkOptions) error {
	if n.ready {
		return fmt.Errorf("netsim: cannot connect after the clock started")
	}
	w, err := n.switchAt(from)
	if err != nil {
		return fmt.Errorf("netsim: connect: %w", err)
	}
	if port < 0 || port >= len(w.links) {
		return fmt.Errorf("netsim: switch %q has no port %d", w.name, port)
	}
	if w.links[port] != nil {
		return fmt.Errorf("netsim: switch %q port %d already bound", w.name, port)
	}
	if int(to) < 0 || int(to) >= len(n.nodes) {
		return fmt.Errorf("netsim: connect: unknown node %d", to)
	}
	dst := n.nodes[to]
	if opts.Delay <= 0 {
		opts.Delay = 1
	}
	l := &link{
		from:      w,
		fromPort:  port,
		to:        dst,
		delay:     opts.Delay,
		capacity:  w.sw.PortRate(port),
		utilSlot:  -1,
		utilScale: 1,
		idx:       int32(len(n.links)),
		calAt:     -1,
	}
	if opts.CapacityBytesPerTick > 0 {
		w.sw.SetPortRate(port, opts.CapacityBytesPerTick)
		l.capacity = opts.CapacityBytesPerTick
	}
	l.base = l.capacity
	src := w.sw.Machine().Layout()
	if dst.sw != nil {
		dstL := dst.sw.sw.Machine().Layout()
		if dst.sw.prog == w.prog {
			// Same compiled program → identical deterministic layout: the
			// bridge is a straight slot-vector copy. The receiver's
			// pipeline run rewrites every program-written slot, so final
			// values landing in temp slots are harmless.
			l.samePool = true
		} else {
			for _, f := range dst.sw.prog.Info.Fields {
				d, ok := dstL.Slot(f)
				if !ok {
					continue // optimizer proved the input uninfluential
				}
				if s := outSlot(src, f); s >= 0 {
					l.bridge = append(l.bridge, slotPair{src: s, dst: d})
				}
			}
		}
		l.utilSlot = slotOr(dstL, FieldUtil)
		// The guard validates the receiver's input slots: that is what the
		// re-homing bridge filled and what the pipeline will read.
		l.gSrc, l.gDst = dst.sw.in.src, dst.sw.in.dst
		l.gFb, l.gSize = dst.sw.in.fb, dst.sw.in.size
	} else {
		l.rFlow = outSlot(src, FieldFlow)
		l.rFb = outSlot(src, FieldFb)
		l.rSrc = outSlot(src, FieldSrc)
		l.rSport = outSlot(src, FieldSport)
		l.rDport = outSlot(src, FieldDport)
		l.rPathID = outSlot(src, FieldPathID)
		l.rUtil = outSlot(src, FieldUtil)
		l.rDst = outSlot(src, FieldDst)
		l.rSeq = outSlot(src, FieldSeq)
		l.rEcn = outSlot(src, FieldEcn)
		l.rFbAck = outSlot(src, FieldFbAck)
		l.rFbEcn = outSlot(src, FieldFbEcn)
		l.rCsum = outSlot(src, FieldCsum)
		l.rArrival = outSlot(src, FieldArrival)
		l.rHops = outSlot(src, FieldHops)
		l.rQMax = outSlot(src, FieldQMax)
		l.rQDelay = outSlot(src, FieldQDelay)
		l.rDigest = outSlot(src, FieldPathDigest)
		l.utilSlot = slotOr(src, FieldUtil)
		// Host-bound headers stay in the sender's layout; the guard reads
		// the same departing values the sink would.
		l.gSrc, l.gDst = l.rSrc, outSlot(src, FieldDst)
		l.gFb, l.gSize = l.rFb, outSlot(src, FieldSize)
	}
	w.links[port] = l
	n.links = append(n.links, l)
	return nil
}

// MapHosts binds the dense trace-host index space (NetPacket.Src/Dst) to
// host nodes without installing a trace — the entry point for harnesses
// that inject packets themselves (benchmarks, topology fuzzing) via
// InjectNow. SetTrace calls it implicitly.
func (n *Network) MapHosts(hosts []NodeID) error {
	th := make([]*Host, len(hosts))
	for i, id := range hosts {
		if int(id) < 0 || int(id) >= len(n.nodes) || n.nodes[id].host == nil {
			return fmt.Errorf("netsim: trace host %d: node %d is not a host", i, id)
		}
		th[i] = n.nodes[id].host
	}
	for _, h := range n.hosts {
		h.traceIdx = -1
	}
	for i, h := range th {
		h.traceIdx = int32(i)
	}
	n.traceHost = th
	return nil
}

// SetTrace arranges for tr's packets to be injected at their arrival
// ticks; hosts[i] is the node standing in for trace host index i. Flow
// bookkeeping (for FlowFCTs) is reset to the trace.
func (n *Network) SetTrace(tr *workload.NetTrace, hosts []NodeID) error {
	if err := n.MapHosts(hosts); err != nil {
		return err
	}
	for _, p := range tr.Packets {
		if int(p.Src) >= len(hosts) || int(p.Dst) >= len(hosts) {
			return fmt.Errorf("netsim: trace references host %d/%d outside the %d mapped hosts",
				p.Src, p.Dst, len(hosts))
		}
	}
	n.trace = tr
	n.traceNext = 0
	n.flowSeen = make([]int32, tr.NumFlows)
	n.flowDone = make([]int64, tr.NumFlows)
	for i := range n.flowDone {
		n.flowDone[i] = -1
	}
	n.flowStart = tr.FlowStart
	return nil
}

// defaultWatchdogTicks is the no-progress bound Run/Drain apply when
// WatchdogTicks is 0.
const defaultWatchdogTicks = 4096

// Start validates the topology once, before the first tick: every switch
// output port must be bound, and the no-progress watchdog must exceed the
// longest link delay (a packet legitimately makes no observable progress
// for its whole flight time, so a shorter watchdog would declare a
// healthy network wedged). It is idempotent and implied by the first
// Step, Run or Drain, which return its error.
func (n *Network) Start() error {
	if n.ready {
		return nil
	}
	for _, w := range n.switches {
		for p, l := range w.links {
			if l == nil {
				return fmt.Errorf("netsim: switch %q port %d is unbound; every output port must be connected", w.name, p)
			}
		}
	}
	limit := n.WatchdogTicks
	if limit <= 0 {
		limit = defaultWatchdogTicks
	}
	maxDelay := int64(1)
	for _, l := range n.links {
		if limit <= l.delay {
			return fmt.Errorf("netsim: watchdog of %d ticks is not above the %d-tick delay of link %q port %d → %q; raise WatchdogTicks",
				limit, l.delay, l.from.name, l.fromPort, l.to.name)
		}
		if l.delay > maxDelay {
			maxDelay = l.delay
		}
	}
	w := int64(2)
	for w < maxDelay+1 {
		w <<= 1
	}
	n.wheel = make([][]int32, w)
	n.wheelMask = w - 1
	n.wheelSpan = maxDelay
	n.ready = true
	return nil
}

// Step advances the network one time unit: due fault events fire, due
// link packets are delivered (into the next switch's pipeline, or to
// their sink host), due trace packets are injected at their source
// hosts, and every running switch drains its ports onto its links. The
// first Step validates the topology (Start) and returns its error —
// this is the error-returning stepping API that Run, Drain and harness
// loops build on.
func (n *Network) Step() error {
	if !n.ready {
		if err := n.Start(); err != nil {
			return err
		}
	}
	n.step()
	return nil
}

// Steps reports how many simulation steps this network has processed.
// Run and Drain skip ticks on which provably nothing can happen, so
// Steps() ≤ Now(); the gap is the skipped idle time (a driver stepping
// tick-by-tick has Steps() == Now()).
func (n *Network) Steps() int64 { return n.steps }

// step processes tick now+1. The phase order is the polled core's:
// faults, link deliveries, injections, switch service, queue-depth
// publication. Same-tick deliveries pop from the calendar in (tick,
// link-creation-index) order — exactly the order the old
// poll-every-link loop visited them — so the two drivers are
// byte-identical. Every phase costs what holds a packet, not what the
// fabric contains: due links, the active switches, the dirty depths.
func (n *Network) step() {
	n.now++
	n.steps++
	n.applyFaults()
	// Deliveries: two interchangeable strategies over the same wheel
	// state, both visiting due links in link-creation order — so the
	// choice is pure cost, never behavior. A dense tick (most links due)
	// takes the poll-every-link scan, which is exactly the pre-event-core
	// loop and keeps per-tick harness drivers at their old cost; a sparse
	// tick (the event core's bread and butter: a handful of links due in
	// a big, mostly idle fabric) touches only its bucket. The scan earns
	// its keep: with the bucket path alone the busy-every-tick leaf-spine
	// benchmark loses 3.4% (the bucket's sort over ~100 due links).
	bidx := n.now & n.wheelMask
	if b := n.wheel[bidx]; 4*len(b) >= len(n.links) {
		for _, l := range n.links {
			if l.calAt >= 0 && l.calAt <= n.now {
				l.calAt = -1
			}
			if l.n > 0 {
				if l.ring[l.head].at <= n.now {
					n.deliveriesC.Inc()
					l.deliver(n)
				}
				// Keep the armed-while-loaded invariant a later sparse
				// step relies on: any link still holding packets has a
				// live wakeup at its ring head's tick.
				if l.n > 0 && l.calAt < 0 {
					n.armLink(l, l.ring[l.head].at)
				}
			}
		}
		n.wheel[bidx] = b[:0]
	} else if len(b) > 0 {
		// Insertion sort by link-creation index: buckets fill in transmit
		// order, which is already nearly sorted, and the pass restores the
		// exact (tick, index) order a min-heap would pop. Re-arms during
		// the loop always target a different (future) bucket, so iterating
		// while arming is safe.
		for i := 1; i < len(b); i++ {
			for j := i; j > 0 && b[j] < b[j-1]; j-- {
				b[j], b[j-1] = b[j-1], b[j]
			}
		}
		for _, idx := range b {
			l := n.links[idx]
			if l.calAt == n.now {
				l.calAt = -1
			}
			if l.n > 0 && l.ring[l.head].at <= n.now {
				n.deliveriesC.Inc()
				l.deliver(n)
			} else {
				n.ghostsC.Inc() // superseded entry: its packets were blackholed
			}
			if l.n > 0 {
				n.armLink(l, l.ring[l.head].at)
			}
		}
		n.wheel[bidx] = b[:0]
	}
	if n.transport != nil {
		// The transport owns injection: window, pacing and retransmit
		// timers replace the trace's arrival clock (arrivals become
		// not-before times).
		n.transport.tick()
	} else if n.trace != nil {
		pkts := n.trace.Packets
		for n.traceNext < len(pkts) && pkts[n.traceNext].Arrival <= n.now {
			n.injectTrace(&pkts[n.traceNext])
			n.traceNext++
		}
	}
	// Service emits onto links only, so the set gains no member while it
	// is walked; a serviced switch that ends empty leaves it.
	for wi, word := range n.active {
		for ; word != 0; word &= word - 1 {
			w := n.switches[wi<<6|bits.TrailingZeros64(word)]
			if w.frozen() {
				continue // queues hold, no service budget accrues
			}
			n.servicesC.Inc()
			w.sw.TickAt(n.now-w.lag, w.emit)
			if w.sw.QueuedPkts() == 0 {
				n.active.del(w.idx)
			}
		}
	}
	for wi, word := range n.dirty {
		for ; word != 0; word &= word - 1 {
			n.switches[wi<<6|bits.TrailingZeros64(word)].publishQueueDepths()
		}
		n.dirty[wi] = 0
	}
}

// touched notes that w's queue depths (or the state arrays holding their
// published copy) changed this step.
func (n *Network) touched(w *netSwitch) {
	if w.qdPorts > 0 {
		n.dirty.add(w.idx)
	}
}

// armLink schedules a delivery wakeup for l at tick at, deduping
// against an already-armed earlier-or-equal wakeup so each link keeps
// at most one live calendar entry. Every arm satisfies
// now < at ≤ now + maxDelay, so the target bucket is always a future
// one that fires exactly at tick at — never the bucket being processed.
func (n *Network) armLink(l *link, at int64) {
	if l.calAt >= 0 && l.calAt <= at {
		return
	}
	l.calAt = at
	b := at & n.wheelMask
	n.wheel[b] = append(n.wheel[b], l.idx)
}

// nextEventTick reports the earliest future tick at which anything can
// happen, or -1 when nothing at all is scheduled: the minimum over (a)
// switches holding packets — next tick when a head is serviceable or
// the switch/port is wedged (per-tick stepping keeps the no-progress
// watchdog's accounting identical to the polled core's), else the
// earliest shaper send time; (b) the link calendar's minimum; (c) the
// transport's earliest timer-wheel wake, or the next trace arrival; (d)
// the next fault event. Answering early is always safe — a step that
// finds nothing to do changes nothing — so every component may be
// conservative; answering late would skip work and is the one
// forbidden direction.
func (n *Network) nextEventTick() int64 {
	ne := int64(-1)
	m := func(t int64) {
		if t > n.now && (ne < 0 || t < ne) {
			ne = t
		}
	}
	for wi, word := range n.active {
		for ; word != 0; word &= word - 1 {
			w := n.switches[wi<<6|bits.TrailingZeros64(word)]
			if w.sw.QueuedPkts() == 0 {
				continue // restarted while frozen: empty until it thaws
			}
			if w.frozen() {
				return n.now + 1
			}
			if et := w.sw.NextEventTick(n.now - w.lag); et >= 0 {
				t := et + w.lag // switch clock → fabric clock
				if t <= n.now+1 {
					return n.now + 1
				}
				m(t)
			}
		}
	}
	// Wheel entries are confined to (now, now+len(wheel)-1], so the first
	// non-empty bucket scanning forward is the calendar minimum. A ghost
	// bucket (all entries superseded) wakes a step that delivers nothing —
	// answering early, which the contract allows.
	for d := int64(1); d <= n.wheelSpan; d++ {
		if len(n.wheel[(n.now+d)&n.wheelMask]) > 0 {
			m(n.now + d)
			break
		}
	}
	if n.transport != nil {
		if t := n.transport.peekWake(); t >= 0 {
			m(t)
		}
	} else if n.trace != nil && n.traceNext < len(n.trace.Packets) {
		// An arrival already due (a trace installed mid-run) injects on
		// the very next step, like the polled core's catch-up loop.
		if t := n.trace.Packets[n.traceNext].Arrival; t <= n.now {
			return n.now + 1
		} else {
			m(t)
		}
	}
	if n.faultNext < len(n.faultEvents) {
		t := n.faultEvents[n.faultNext].Tick
		if t <= n.now {
			return n.now + 1
		}
		m(t)
	}
	return ne
}

// publishQueueDepths publishes the switch's real output-queue depths
// into its program's queue_depth observable (PR 5/6 visibility
// convention): next tick's packets see this tick's closing depths, one
// RTT-free hop behind reality like a real egress-queue sample would be.
// This is the single feed for every depth consumer — the ECN marking
// comparison and the INT qmax/qdelay stamps read the same array, so the
// two signals cannot drift. Only switches in the dirty set are
// republished: an untouched switch's array already holds its depths.
func (w *netSwitch) publishQueueDepths() {
	for p := 0; p < w.qdPorts; p++ {
		d := w.sw.PortQueueBytes(p)
		if d > int64(maxInt32) {
			d = int64(maxInt32)
		}
		w.qdepth.Set(p, int32(d))
	}
}

// maxInt32 saturates queue-depth pokes.
const maxInt32 = int32(^uint32(0) >> 1)

// watchdog tracks Run/Drain progress between processed steps.
type watchdog struct {
	last  NetTotals
	armed bool
	stuck int64
}

// watch fails when the network has made no progress for WatchdogTicks
// consecutive processed steps — totals frozen while packets are queued
// or in flight, with no pending trace or fault event that could
// unfreeze them. The watchdog is keyed to steps, not wall ticks, so the
// event core's legal idle skips never count against it; in the one
// state that can trip it — queues wedged behind a downed port or a
// stalled switch with no recovery scheduled — nextEventTick forces
// per-tick stepping, so steps and ticks coincide and the trip tick is
// identical to the polled core's. A link delivery always changes the
// totals within its delay, so only a genuinely wedged network trips it.
func (n *Network) watch(w *watchdog) error {
	limit := n.WatchdogTicks
	if limit <= 0 {
		limit = defaultWatchdogTicks
	}
	t := n.runningTotals()
	pendingWork := t.QueuedPkts > 0 || t.InFlightPkts > 0
	pendingEvents := (n.trace != nil && n.traceNext < len(n.trace.Packets)) ||
		n.faultNext < len(n.faultEvents) ||
		(n.transport != nil && !n.transport.Done())
	if w.armed && t == w.last && pendingWork && !pendingEvents {
		w.stuck++
		if w.stuck >= limit {
			return fmt.Errorf("netsim: no progress for %d ticks, wedged since tick %d (now %d): %d packets queued [%s], %d in flight, and no recovery event pending (downed link or stalled switch never brought back?)",
				limit, n.now-w.stuck, n.now, t.QueuedPkts, n.queueReport(), t.InFlightPkts)
		}
	} else {
		w.stuck = 0
	}
	w.last, w.armed = t, true
	return nil
}

// queueReport renders per-node queue depths for the watchdog's error, so
// a wedged soak run is diagnosable from the message alone: every switch
// holding packets, with its queued-packet and queued-byte counts.
func (n *Network) queueReport() string {
	var b strings.Builder
	for _, w := range n.switches {
		if w.sw.QueuedPkts() > 0 {
			if b.Len() > 0 {
				b.WriteString(", ")
			}
			tot := w.sw.Totals()
			fmt.Fprintf(&b, "%s: %d pkts/%d bytes", w.name, tot.QueuedPkts, tot.QueuedBytes)
		}
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// Run advances the clock to the given tick (inclusive), failing on
// invalid wiring or when the no-progress watchdog trips (see
// WatchdogTicks). It is event-driven: ticks on which provably nothing
// can happen (nextEventTick) are skipped by advancing now directly, so
// idle-heavy horizons cost events, not wall-clock ticks — with results
// byte-identical to stepping every tick.
func (n *Network) Run(until int64) error {
	if err := n.Start(); err != nil {
		return err
	}
	var wd watchdog
	for n.now < until {
		ne := n.nextEventTick()
		if ne < 0 || ne > until {
			// Nothing scheduled inside the horizon: the rest is pure idle
			// time. (With packets queued or in flight anywhere, ne is
			// never -1 — every such packet has a wakeup armed.)
			n.now = until
			break
		}
		n.now = ne - 1
		n.step()
		if err := n.watch(&wd); err != nil {
			return err
		}
	}
	return nil
}

// Drain ticks until the trace is fully injected and no packet remains
// queued in a switch or in flight on a link, or until limit ticks have
// elapsed (an error). Drops are fine — a dropped packet is gone, not
// pending. The no-progress watchdog turns a wedged network (frozen
// queues, nothing left that could move them) into an early error instead
// of a silent spin to the limit.
func (n *Network) Drain(limit int64) error {
	if err := n.Start(); err != nil {
		return err
	}
	var wd watchdog
	for limit > 0 {
		if n.idle() {
			return nil
		}
		ne := n.nextEventTick()
		if ne < 0 {
			// Not idle yet nothing scheduled — should be unreachable (every
			// pending packet arms a wakeup); degrade to per-tick stepping
			// and let the watchdog produce the diagnosis.
			ne = n.now + 1
		}
		// Skipped idle ticks spend the limit exactly as stepped ticks
		// would, so the not-drained horizon (and the tick in its error)
		// matches the polled core's.
		if skip := ne - 1 - n.now; skip > 0 {
			if skip >= limit {
				n.now += limit
				limit = 0
				break
			}
			n.now = ne - 1
			limit -= skip
		}
		n.step()
		limit--
		if err := n.watch(&wd); err != nil {
			return err
		}
	}
	if !n.idle() {
		return fmt.Errorf("netsim: network not drained at tick %d", n.now)
	}
	return nil
}

func (n *Network) idle() bool {
	if n.transport != nil {
		if !n.transport.Done() {
			return false
		}
	} else if n.trace != nil && n.traceNext < len(n.trace.Packets) {
		return false
	}
	return n.queuedPkts == 0 && n.inFlightPkts == 0
}

// stamp writes v into slot s of h when the program declares the field.
func stamp(h banzai.Header, s int, v int32) {
	if s >= 0 {
		h[s] = v
	}
}

// injectTrace injects one trace packet at its source host's leaf.
func (n *Network) injectTrace(p *workload.NetPacket) {
	src := n.traceHost[p.Src]
	w := src.leaf
	h := w.sw.Machine().AcquireHeader()
	in := &w.in
	stamp(h, in.sport, p.Sport)
	stamp(h, in.dport, p.Dport)
	stamp(h, in.arrival, int32(uint32(n.now)))
	stamp(h, in.src, p.Src)
	stamp(h, in.dst, p.Dst)
	stamp(h, in.size, p.Size)
	stamp(h, in.flow, p.Flow)
	n.inject(w, h, int64(p.Size))
}

// InjectNow injects p at its source host's leaf at the current tick
// (p.Arrival is ignored) — the direct, allocation-free injection path for
// harnesses that pace traffic themselves instead of replaying a trace.
// The hosts must have been bound with MapHosts (or SetTrace) first.
func (n *Network) InjectNow(p *workload.NetPacket) error {
	if err := n.Start(); err != nil {
		return err
	}
	if n.transport != nil {
		return fmt.Errorf("netsim: InjectNow: the transport owns injection when enabled")
	}
	if int(p.Src) < 0 || int(p.Src) >= len(n.traceHost) {
		return fmt.Errorf("netsim: InjectNow: source host %d not mapped (call MapHosts)", p.Src)
	}
	// An out-of-band injection lands after the current tick's service,
	// not before it like an in-step arrival: sync the leaf's clock to the
	// serviced tick so the Arrived stamp is the same whether the driver
	// stepped or skipped the idle ticks leading here.
	n.traceHost[p.Src].leaf.syncTo(n.now)
	n.injectTrace(p)
	return nil
}

// inject hands a stamped header to a leaf pipeline, counting it into the
// network conservation identity. A crashed leaf blackholes the packet —
// still counted injected (the host offered it) and blackholed, so the
// identity holds through the crash.
func (n *Network) inject(w *netSwitch, h banzai.Header, size int64) {
	n.injectedPkts++
	n.injectedBytes += size
	if n.ring != nil {
		flow, seq := int32(-1), int32(-1)
		if w.in.flow >= 0 {
			flow = h[w.in.flow]
		}
		if w.in.seq >= 0 {
			seq = h[w.in.seq]
		}
		n.ring.Record(n.now, telemetry.EvInject, int32(w.id), -1, flow, seq, int32(size), 0)
	}
	if w.crashed {
		w.sw.Machine().ReleaseHeader(h)
		n.blackholedPkts++
		n.blackholedBytes += size
		return
	}
	n.enqueue(w, h, size)
}

// enqueue runs a header through w's pipeline into an output queue — the
// one door into a switch, for host injections and forwarded packets
// alike. An arrival of step T lands before T's service, so the clock it
// is stamped by is T-1's; a queued packet puts the switch in the service
// set, a tail drop goes straight to the dropped terms.
func (n *Network) enqueue(w *netSwitch, h banzai.Header, size int64) {
	w.syncTo(n.now - 1)
	_, dropped, err := w.sw.InjectH(h, size)
	if err != nil {
		// The pipeline programs netsim drives are guard-free and sizes
		// are validated by the trace generators, so a rejection here is a
		// harness bug, not a data-plane event.
		panic(fmt.Sprintf("netsim: enqueue into %q: %v", w.name, err))
	}
	if dropped {
		n.droppedPkts++
		n.droppedBytes += size
		return
	}
	n.queuedPkts++
	n.queuedBytes += size
	n.active.add(w.idx)
	n.touched(w)
}

// transmit is the TickFunc sink: a packet departing switch w on port p
// enters the bound link.
func (n *Network) transmit(w *netSwitch, p int, qh switchsim.QueuedHeader) {
	n.queuedPkts--
	n.queuedBytes -= qh.Size
	n.touched(w)
	l := w.links[p]
	h := qh.H
	if l.to.sw != nil {
		// Re-home the header into the receiver's pool (see the package
		// comment's ownership contract). The copy fast path overwrites
		// every slot, so it can skip the acquire-time zeroing; the by-name
		// bridge fills only the declared fields and needs a cleared header.
		m := l.to.sw.sw.Machine()
		var nh banzai.Header
		if l.samePool {
			nh = m.AcquireHeaderUnzeroed()
			copy(nh, h)
		} else {
			nh = m.AcquireHeader()
			for _, c := range l.bridge {
				nh[c.dst] = h[c.src]
			}
		}
		w.sw.Machine().ReleaseHeader(h)
		h = nh
	}
	// Catch up the decay for every tick since this link last folded one
	// in: the polled core decayed after service, so a transmit at tick T
	// must see the decays of ticks dreTick+1 … T-1. One decay is
	// dre -= dre>>dreShift, the identity once dre>>dreShift == 0 — the
	// early exit — so skipping idle ticks cannot change any util stamp.
	if k := n.now - 1 - l.dreTick; k > 0 {
		for ; k > 0; k-- {
			d := l.dre >> dreShift
			if d == 0 {
				break
			}
			l.dre -= d
		}
		l.dreTick = n.now - 1
	}
	l.dre += qh.Size
	if l.utilSlot >= 0 {
		// A degraded link carries fewer bytes, so its raw DRE would look
		// *less* utilized; utilScale (healthy: 1) inflates the stamp in
		// proportion to the lost capacity.
		u64 := l.dre * l.utilScale
		if u64 > maxUtilStamp {
			u64 = maxUtilStamp
		}
		if u := int32(u64); u > h[l.utilSlot] {
			h[l.utilSlot] = u
		}
	}
	l.pkts++
	l.bytes += qh.Size
	l.push(inflight{at: n.now + l.delay, h: h, size: qh.Size})
	n.inFlightPkts++
	n.inFlightBytes += qh.Size
	n.armLink(l, n.now+l.delay)
	if l.dup != 0 && uint64(l.rng.Uint32()) < l.dup {
		// The wire materializes a byte-exact second copy: a fresh header
		// from the owning pool (same layout — copy covers every slot), on
		// the same delivery tick, counted as dup-injected so the physical
		// identity gains it as a second injection source.
		dh := l.ownerMachine().AcquireHeaderUnzeroed()
		copy(dh, h)
		l.pkts++
		l.bytes += qh.Size
		l.push(inflight{at: n.now + l.delay, h: dh, size: qh.Size})
		n.inFlightPkts++
		n.inFlightBytes += qh.Size
		n.dupInjPkts++
		n.dupInjBytes += qh.Size
	}
	if l.reorderWin > 0 && l.n > 1 {
		// Swap payloads (header + size) with a seeded-random packet among
		// the last reorderWin in flight. Delivery ticks stay where they
		// are — order stays monotone, only contents shuffle — so the
		// conservation terms never notice.
		win := int(l.reorderWin)
		if win > l.n {
			win = l.n
		}
		last := (l.head + l.n - 1) % len(l.ring)
		off := int(l.rng.Uint32() % uint32(win))
		pick := (l.head + l.n - 1 - off) % len(l.ring)
		if pick != last {
			a, b := &l.ring[last], &l.ring[pick]
			a.h, b.h = b.h, a.h
			a.size, b.size = b.size, a.size
		}
	}
	n.linkOccH.Observe(int64(l.n))
	if n.ring != nil {
		n.ring.Record(n.now, telemetry.EvLinkTraverse, int32(w.id), int32(p), -1, -1, int32(qh.Size), int32(l.n))
	}
}

// maxUtilStamp saturates poisoned DRE stamps inside int32.
const maxUtilStamp = int64(^uint32(0) >> 1)

func (l *link) push(f inflight) {
	if l.n == len(l.ring) {
		grown := make([]inflight, max(8, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.ring[(l.head+i)%len(l.ring)]
		}
		l.ring = grown
		l.head = 0
	}
	l.ring[(l.head+l.n)%len(l.ring)] = f
	l.n++
}

// pop takes l's oldest in-flight packet off the link (transmit, the only
// pusher, counts its own packets into the running in-flight terms).
func (n *Network) pop(l *link) inflight {
	f := l.ring[l.head]
	l.ring[l.head] = inflight{}
	l.head = (l.head + 1) % len(l.ring)
	l.n--
	n.inFlightPkts--
	n.inFlightBytes -= f.size
	return f
}

// deliver hands every due in-flight packet to the link's far end: a
// crashed destination switch blackholes it; a corrupting link may
// scramble header slots, after which the arrival-edge guard either drops
// the packet (CorruptDropped) or lets a still-plausible header proceed.
func (l *link) deliver(n *Network) {
	for l.n > 0 && l.ring[l.head].at <= n.now {
		f := n.pop(l)
		if l.to.sw != nil && l.to.sw.crashed {
			n.blackhole(l, f.h, f.size)
			continue
		}
		if l.corrupt != 0 {
			if uint64(l.rng.Uint32()) < l.corrupt {
				l.scramble(f.h)
			}
			if !l.guardOK(n, f.h, f.size) {
				n.corruptDrop(l, f.h, f.size)
				continue
			}
		}
		if l.to.sw != nil {
			// Forwarded, not injected: its host counted it at the source.
			n.enqueue(l.to.sw, f.h, f.size)
		} else {
			l.to.host.sink(l, f.h, f.size)
		}
	}
}

// scramble flips 1–3 random slots of a corrupted header. The inflight
// record's size — not the header's size field — drives all byte
// accounting, so corruption can damage what programs and sinks read but
// never the conservation identity itself.
func (l *link) scramble(h banzai.Header) {
	k := 1 + int(l.rng.Uint32()%3)
	for i := 0; i < k; i++ {
		slot := int(l.rng.Uint32() % uint32(len(h)))
		h[slot] ^= int32(l.rng.Uint32())
	}
}

// guardOK is the arrival-edge validation guard, run on every packet
// crossing a corrupt-enabled link: declared fields must stay inside the
// bounds the fabric relies on (src/dst a mapped host, fb a boolean, the
// size field matching the carried size). A corrupted header that passes —
// damage confined to unchecked fields — proceeds like real silent
// corruption would; everything downstream is index-safe regardless
// because state arrays mask and sinks bounds-check.
func (l *link) guardOK(n *Network, h banzai.Header, size int64) bool {
	hosts := int32(len(n.traceHost))
	if l.gSrc >= 0 && (h[l.gSrc] < 0 || h[l.gSrc] >= hosts) {
		return false
	}
	if l.gDst >= 0 && (h[l.gDst] < 0 || h[l.gDst] >= hosts) {
		return false
	}
	if l.gFb >= 0 && h[l.gFb] != 0 && h[l.gFb] != 1 {
		return false
	}
	if l.gSize >= 0 && int64(h[l.gSize]) != size {
		return false
	}
	return true
}

// blackhole destroys an in-flight packet (downed link, crashed receiver):
// the header goes back to its owning pool and the loss is accounted.
func (n *Network) blackhole(l *link, h banzai.Header, size int64) {
	l.ownerMachine().ReleaseHeader(h)
	n.blackholedPkts++
	n.blackholedBytes += size
	if n.ring != nil {
		n.ring.Record(n.now, telemetry.EvDrop, int32(l.from.id), int32(l.fromPort), -1, -1, int32(size), 1)
	}
}

// corruptDrop destroys a packet the arrival-edge guard rejected.
func (n *Network) corruptDrop(l *link, h banzai.Header, size int64) {
	l.ownerMachine().ReleaseHeader(h)
	n.corruptPkts++
	n.corruptBytes += size
	if n.ring != nil {
		n.ring.Record(n.now, telemetry.EvCorrupt, int32(l.from.id), int32(l.fromPort), -1, -1, int32(size), 0)
	}
}

// ownerMachine is the machine whose pool owns a header in flight on this
// link: the receiver's for switch links (transmit re-homed it), the
// sender's for host links.
func (l *link) ownerMachine() *banzai.Machine {
	if l.to.sw != nil {
		return l.to.sw.sw.Machine()
	}
	return l.from.sw.Machine()
}

// sink consumes a delivered packet at a host: counts it, records flow
// completion, optionally reflects CONGA feedback, and releases the header
// back to the sending machine's pool. In transport mode the packet first
// passes end-to-end validation (checksum + misdelivery check), data
// packets go through duplicate suppression, the reflected feedback packet
// doubles as the cumulative ACK, and arriving ACKs drive the sender.
func (h *Host) sink(l *link, hd banzai.Header, size int64) {
	n := h.net
	tp := n.transport
	if tp != nil && !tp.admit(h, l, hd) {
		// Corruption the link-level guard could not see (damage to
		// transport fields, or a scrambled out_port delivering to the
		// wrong host): classified with the corruption drops, never
		// counted delivered.
		n.corruptDrop(l, hd, size)
		return
	}
	n.deliveredPkts++
	n.deliveredBytes += size
	isFb := l.rFb >= 0 && hd[l.rFb] != 0
	flow := int32(-1)
	if l.rFlow >= 0 {
		flow = hd[l.rFlow]
	}
	seq := int32(-1)
	if l.rSeq >= 0 {
		seq = hd[l.rSeq]
	}
	hops, digest := int32(-1), int32(0)
	if l.rHops >= 0 {
		hops = hd[l.rHops]
	}
	if l.rDigest >= 0 {
		digest = hd[l.rDigest]
	}
	dup := false
	if isFb {
		h.FbPkts++
		h.FbBytes += size
		n.fbDelivPkts++
		n.fbDelivBytes += size
		if tp != nil {
			tp.onAck(flow, hd[l.rFbAck], seq, hd[l.rFbEcn] != 0)
		}
	} else {
		if l.rEcn >= 0 && hd[l.rEcn] != 0 {
			n.ecnMarked++
			n.ecnC.Inc()
		}
		if n.sink != nil {
			// Decode the packet's in-band telemetry record: the header
			// carries its own path and queueing history, stamped hop by
			// hop by the int_stamp transaction.
			if l.rHops >= 0 {
				n.hopsH.Observe(int64(hops))
				n.qmaxH.Observe(int64(hd[l.rQMax]))
				n.qdelayH.Observe(int64(hd[l.rQDelay]))
			}
			if l.rDigest >= 0 {
				n.pathPkts[digest]++
			}
			if l.rArrival >= 0 {
				n.latencyH.Observe(n.now - int64(hd[l.rArrival]))
			}
		}
		if tp != nil && !tp.onData(flow, seq) {
			dup = true
			n.dupPkts++
			n.dupBytes += size
		} else {
			h.RcvdPkts++
			h.RcvdBytes += size
			n.acceptedPkts++
			n.acceptedBytes += size
			if flow >= 0 && n.trace != nil && int(flow) < len(n.flowSeen) {
				n.flowSeen[flow]++
				if int(n.flowSeen[flow]) == int(n.trace.FlowPkts[flow]) {
					n.flowDone[flow] = n.now
					n.fctH.Observe(n.now - n.flowStart[flow])
				}
			}
		}
		if n.Feedback {
			// Reflected even for duplicates: the re-ACK is how a sender
			// whose ACKs were lost learns to stop retransmitting.
			h.reflect(l, hd)
		}
	}
	l.from.sw.Machine().ReleaseHeader(hd)
	if n.ring != nil {
		n.ring.Record(n.now, telemetry.EvDeliver, int32(h.id), -1, flow, seq, int32(size), digest)
	}
	if n.OnDeliver != nil {
		n.OnDeliver(Delivery{Host: h.id, Flow: flow, Seq: seq, Size: size, Fb: isFb, Dup: dup, Hops: hops, Digest: digest})
	}
}

// reflect answers a delivered data packet with a feedback packet to the
// sender, carrying the forward path's uplink id and max utilization. In
// transport mode the same packet is the ACK: it carries the flow id, the
// receiver's cumulative ack, the echoed sequence number (selective ack),
// the echoed ECN mark, and an end-to-end checksum over those fields.
func (h *Host) reflect(l *link, hd banzai.Header) {
	if l.rSrc < 0 {
		return
	}
	n := h.net
	dst := hd[l.rSrc]
	if int(dst) < 0 || int(dst) >= len(n.traceHost) {
		return
	}
	w := h.leaf
	fb := w.sw.Machine().AcquireHeader()
	in := &w.in
	// Reverse the port pair so transit ECMP spreads feedback like reverse
	// traffic, not like the forward flow.
	var sp, dp int32
	if l.rDport >= 0 {
		sp = hd[l.rDport]
		stamp(fb, in.sport, sp)
	}
	if l.rSport >= 0 {
		dp = hd[l.rSport]
		stamp(fb, in.dport, dp)
	}
	stamp(fb, in.arrival, int32(uint32(n.now)))
	stamp(fb, in.src, h.traceIdx)
	stamp(fb, in.dst, dst)
	stamp(fb, in.size, int32(n.FeedbackBytes))
	stamp(fb, in.fb, 1)
	if tp := n.transport; tp != nil {
		flow := hd[l.rFlow]
		echo := hd[l.rSeq]
		ack := tp.cumAck(flow)
		var ecn int32
		if l.rEcn >= 0 && hd[l.rEcn] != 0 {
			ecn = 1
		}
		stamp(fb, in.flow, flow)
		stamp(fb, in.seq, echo)
		stamp(fb, in.fbAck, ack)
		stamp(fb, in.fbEcn, ecn)
		stamp(fb, in.csum, csumOf(sp, dp, h.traceIdx, dst, flow, echo, 1, ack, ecn))
	} else {
		stamp(fb, in.flow, -1)
	}
	if l.rPathID >= 0 {
		stamp(fb, in.fbPath, hd[l.rPathID])
	}
	if l.rUtil >= 0 {
		stamp(fb, in.fbUtil, hd[l.rUtil])
	}
	n.fbInjPkts++
	n.fbInjBytes += n.FeedbackBytes
	n.inject(w, fb, n.FeedbackBytes)
}

// ID returns the host's node id.
func (h *Host) ID() NodeID { return h.id }

// Name returns the host's node name.
func (h *Host) Name() string { return h.name }

// NetTotals aggregates the network-wide conservation terms. Blackholed
// covers fault destruction (in flight when a link went down, delivered or
// injected into a crashed switch); CorruptDropped covers arrival-edge
// guard rejections on corrupting links plus transport-mode sink
// rejections (checksum mismatch, misdelivery). Delivered splits exactly
// into Accepted (data counted once at its sink) + DupDropped (retransmit
// copies the sink suppressed) + FbDelivered (feedback/ACK packets);
// FbInjected is the reflected-feedback share of Injected.
type NetTotals struct {
	InjectedPkts, InjectedBytes             int64
	DeliveredPkts, DeliveredBytes           int64
	DroppedPkts, DroppedBytes               int64
	QueuedPkts, QueuedBytes                 int64
	InFlightPkts, InFlightBytes             int64
	BlackholedPkts, BlackholedBytes         int64
	CorruptDroppedPkts, CorruptDroppedBytes int64
	AcceptedPkts, AcceptedBytes             int64
	DupDroppedPkts, DupDroppedBytes         int64
	FbDeliveredPkts, FbDeliveredBytes       int64
	FbInjectedPkts, FbInjectedBytes         int64
	// DupInjected counts extra wire copies a FaultLinkDuplicate lottery
	// materialized — a second injection source alongside Injected in the
	// physical identity (the transport split stays over Injected alone,
	// since link duplication happens past the injection edge).
	DupInjectedPkts, DupInjectedBytes int64
	// EcnMarkedPkts counts delivered data packets (accepted or dup)
	// carrying an ECN mark — congestion-signal activity, not a
	// conservation term.
	EcnMarkedPkts int64
}

// runningTotals is the conservation terms as the network counted them
// while packets moved — O(1), what the step loop's watchdog reads.
func (n *Network) runningTotals() NetTotals {
	return NetTotals{
		InjectedPkts: n.injectedPkts, InjectedBytes: n.injectedBytes,
		DeliveredPkts: n.deliveredPkts, DeliveredBytes: n.deliveredBytes,
		DroppedPkts: n.droppedPkts, DroppedBytes: n.droppedBytes,
		QueuedPkts: n.queuedPkts, QueuedBytes: n.queuedBytes,
		InFlightPkts: n.inFlightPkts, InFlightBytes: n.inFlightBytes,
		BlackholedPkts: n.blackholedPkts, BlackholedBytes: n.blackholedBytes,
		CorruptDroppedPkts: n.corruptPkts, CorruptDroppedBytes: n.corruptBytes,
		AcceptedPkts: n.acceptedPkts, AcceptedBytes: n.acceptedBytes,
		DupDroppedPkts: n.dupPkts, DupDroppedBytes: n.dupBytes,
		FbDeliveredPkts: n.fbDelivPkts, FbDeliveredBytes: n.fbDelivBytes,
		FbInjectedPkts: n.fbInjPkts, FbInjectedBytes: n.fbInjBytes,
		DupInjectedPkts: n.dupInjPkts, DupInjectedBytes: n.dupInjBytes,
		EcnMarkedPkts: n.ecnMarked,
	}
}

// Totals sums the conservation terms over every switch and link. The
// dropped, queued and in-flight terms are re-derived from the switches'
// port statistics and the link rings, packet by packet, on purpose: this
// is the oracle CheckConservation holds runningTotals against, so it
// must not share the running counters' bookkeeping.
func (n *Network) Totals() NetTotals {
	t := n.runningTotals()
	t.DroppedPkts, t.DroppedBytes = 0, 0
	t.QueuedPkts, t.QueuedBytes = 0, 0
	t.InFlightPkts, t.InFlightBytes = 0, 0
	for _, w := range n.switches {
		st := w.sw.Totals()
		t.DroppedPkts += st.DroppedPkts
		t.DroppedBytes += st.DroppedBytes
		t.QueuedPkts += st.QueuedPkts
		t.QueuedBytes += st.QueuedBytes
	}
	for _, l := range n.links {
		t.InFlightPkts += int64(l.n)
		for i := 0; i < l.n; i++ {
			t.InFlightBytes += l.ring[(l.head+i)%len(l.ring)].size
		}
	}
	return t
}

// CheckConservation verifies the network-wide identity — every packet a
// host injected is delivered at a sink, dropped at a switch byte cap,
// still queued in a switch, in flight on a link, blackholed by a fault,
// or rejected by the corruption guard — plus each switch's local
// identity. It holds at every tick boundary, under any fault schedule.
// It also audits the step loop's own bookkeeping against that ground
// truth: the running totals must equal the from-scratch sum, and every
// switch holding packets must be in the service set.
func (n *Network) CheckConservation() error {
	for _, w := range n.switches {
		if err := w.sw.CheckConservation(); err != nil {
			return fmt.Errorf("switch %q: %w", w.name, err)
		}
		if q := w.sw.QueuedPkts(); q > 0 && !n.active.has(w.idx) {
			return fmt.Errorf("switch %q holds %d packets but is not in the service set", w.name, q)
		}
	}
	t := n.Totals()
	if rt := n.runningTotals(); rt != t {
		return fmt.Errorf("netsim running totals drifted from the from-scratch sum: running %+v, summed %+v", rt, t)
	}
	if got := t.DeliveredPkts + t.DroppedPkts + t.QueuedPkts + t.InFlightPkts + t.BlackholedPkts + t.CorruptDroppedPkts; got != t.InjectedPkts+t.DupInjectedPkts {
		return fmt.Errorf("netsim packet conservation violated: injected %d + dup-injected %d != delivered %d + dropped %d + queued %d + in-flight %d + blackholed %d + corrupt-dropped %d (= %d)",
			t.InjectedPkts, t.DupInjectedPkts, t.DeliveredPkts, t.DroppedPkts, t.QueuedPkts, t.InFlightPkts, t.BlackholedPkts, t.CorruptDroppedPkts, got)
	}
	if got := t.DeliveredBytes + t.DroppedBytes + t.QueuedBytes + t.InFlightBytes + t.BlackholedBytes + t.CorruptDroppedBytes; got != t.InjectedBytes+t.DupInjectedBytes {
		return fmt.Errorf("netsim byte conservation violated: injected %d + dup-injected %d != delivered %d + dropped %d + queued %d + in-flight %d + blackholed %d + corrupt-dropped %d (= %d)",
			t.InjectedBytes, t.DupInjectedBytes, t.DeliveredBytes, t.DroppedBytes, t.QueuedBytes, t.InFlightBytes, t.BlackholedBytes, t.CorruptDroppedBytes, got)
	}
	if got := t.AcceptedPkts + t.DupDroppedPkts + t.FbDeliveredPkts; got != t.DeliveredPkts {
		return fmt.Errorf("netsim delivery split violated: delivered %d != accepted %d + dup-dropped %d + fb-delivered %d (= %d)",
			t.DeliveredPkts, t.AcceptedPkts, t.DupDroppedPkts, t.FbDeliveredPkts, got)
	}
	if got := t.AcceptedBytes + t.DupDroppedBytes + t.FbDeliveredBytes; got != t.DeliveredBytes {
		return fmt.Errorf("netsim delivery byte split violated: delivered %d != accepted %d + dup-dropped %d + fb-delivered %d (= %d)",
			t.DeliveredBytes, t.AcceptedBytes, t.DupDroppedBytes, t.FbDeliveredBytes, got)
	}
	if tp := n.transport; tp != nil {
		tt := tp.Totals()
		// Every physical injection is a first-time send, a retransmit
		// copy, or a reflected feedback packet — byte-exact.
		if got := tt.OfferedPkts + tt.RetransPkts + t.FbInjectedPkts; got != t.InjectedPkts {
			return fmt.Errorf("transport injection split violated: injected %d != offered %d + retransmits %d + fb %d (= %d)",
				t.InjectedPkts, tt.OfferedPkts, tt.RetransPkts, t.FbInjectedPkts, got)
		}
		if got := tt.OfferedBytes + tt.RetransBytes + t.FbInjectedBytes; got != t.InjectedBytes {
			return fmt.Errorf("transport injection byte split violated: injected %d != offered %d + retransmits %d + fb %d (= %d)",
				t.InjectedBytes, tt.OfferedBytes, tt.RetransBytes, t.FbInjectedBytes, got)
		}
		// Sender-side resolution: every offered packet is acked, given
		// up, or still outstanding.
		if got := tt.AckedPkts + tt.GivenUpPkts + tt.OutstandingPkts; got != tt.OfferedPkts {
			return fmt.Errorf("transport resolution violated: offered %d != acked %d + given-up %d + outstanding %d (= %d)",
				tt.OfferedPkts, tt.AckedPkts, tt.GivenUpPkts, tt.OutstandingPkts, got)
		}
		if got := tt.AckedBytes + tt.GivenUpBytes + tt.OutstandingBytes; got != tt.OfferedBytes {
			return fmt.Errorf("transport resolution bytes violated: offered %d != acked %d + given-up %d + outstanding %d (= %d)",
				tt.OfferedBytes, tt.AckedBytes, tt.GivenUpBytes, tt.OutstandingBytes, got)
		}
	}
	return nil
}

// LiveHeaders sums every switch machine's checked-out header count — the
// network-wide pool-leak oracle. At any tick boundary it must equal
// QueuedPkts + InFlightPkts (every live header is either queued in a
// switch or riding a link), and 0 after a successful Drain.
func (n *Network) LiveHeaders() int {
	live := 0
	for _, w := range n.switches {
		live += w.sw.Machine().LiveHeaders()
	}
	return live
}

// LinkStats reports every link's accounting in creation order.
func (n *Network) LinkStats() []LinkStats {
	out := make([]LinkStats, len(n.links))
	for i, l := range n.links {
		out[i] = LinkStats{
			From: l.from.name, To: l.to.name, Port: l.fromPort,
			Delay: l.delay, Capacity: l.capacity,
			Pkts: l.pkts, Bytes: l.bytes,
		}
	}
	return out
}

// CoreLinks is LinkStats restricted to the fabric core: the links that do
// not end at a host — classified by the wiring, so it holds for any
// topology and when uplink and downlink capacities coincide.
func (n *Network) CoreLinks() []LinkStats {
	var core []LinkStats
	for i, st := range n.LinkStats() {
		if n.links[i].to.host == nil {
			core = append(core, st)
		}
	}
	return core
}

// SwitchStats returns a switch's per-port statistics.
func (n *Network) SwitchStats(id NodeID) ([]switchsim.PortStats, error) {
	sw, err := n.Switch(id)
	if err != nil {
		return nil, err
	}
	return sw.Stats(), nil
}

// Switch exposes the underlying switchsim instance (state inspection,
// conservation checks in tests), for use between steps. Its clock is
// synced to the fabric's first, so Now() never shows how long the switch
// has sat idle.
func (n *Network) Switch(id NodeID) (*switchsim.Switch, error) {
	w, err := n.switchAt(id)
	if err != nil {
		return nil, err
	}
	w.syncTo(n.now)
	return w.sw, nil
}

// HostByID returns the host node.
func (n *Network) HostByID(id NodeID) (*Host, error) {
	if int(id) < 0 || int(id) >= len(n.nodes) || n.nodes[id].host == nil {
		return nil, fmt.Errorf("netsim: node %d is not a host", id)
	}
	return n.nodes[id].host, nil
}

// FlowFCTs returns each flow's completion time (last packet's delivery
// tick minus the flow's first arrival tick), or -1 for flows that lost
// packets and never completed.
func (n *Network) FlowFCTs() []int64 {
	out := make([]int64, len(n.flowDone))
	for f, done := range n.flowDone {
		if done < 0 {
			out[f] = -1
		} else {
			out[f] = done - n.flowStart[f]
		}
	}
	return out
}

// Imbalance summarizes a load spread: (max-min)/mean; 0 is perfectly
// balanced. It is switchsim's metric applied to arbitrary byte counts —
// typically parallel links' Bytes.
func Imbalance(bytes []int64) float64 { return switchsim.Imbalance(bytes) }
