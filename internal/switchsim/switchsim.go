// Package switchsim is a small output-queued switch model that embeds a
// compiled Banzai pipeline, so data-plane algorithms can be exercised in a
// realistic packet-flow context: packets traverse the ingress pipeline,
// are steered to an output port (possibly by a field the algorithm
// computed, e.g. flowlet switching's next_hop), queue there, and drain at
// the port's service rate.
//
// Internally the switch runs on the banzai header fast path: packets sit
// in the output queues as slot-vector headers (no per-dequeue slice
// shifting, no per-packet map), and headers are recycled through the
// embedded machine's free list when they depart or drop. The interp.Packet
// codec runs only at the Inject/Departure edges.
//
// Each output port's service order is pluggable (Config.Scheduler): the
// default is a FIFO ring with tail drop, and internal/pifo provides PIFO
// scheduling trees whose ranks are computed by compiled Domino
// transactions (the "Programmable Packet Scheduling" companion model).
//
// Contracts, each with the tests that enforce it:
//
//   - Conservation: injected = departed + dropped + queued, in packets and
//     bytes, at every tick boundary; a flush counts its packets as the
//     port's own drops, so a restart adds no term (conservation.go; the tests
//     here assert it through mustConserve). Sizes outside [0, 2^31) are
//     rejected at injection, before they enter the identity
//     (TestInjectRejectsOutOfRangeSize, TestAdmissionByteCapBoundary).
//   - Ownership: InjectH takes the header; it goes back to the machine's
//     pool on departure, drop or flush unless an emit callback takes it
//     over. Inject is InjectH behind the codec
//     (TestInjectInjectHEquivalence), and the steady state allocates
//     nothing (TestFIFOSwitchZeroAlloc).
//   - One service loop, chosen once: New observes Config.Scheduler == nil
//     and binds the default rings by concrete type — no Config field, flag
//     or environment variable selects it; a custom scheduler keeps the
//     PortScheduler interface loop. The two share the port prologue and
//     the departure accounting and must be indistinguishable
//     (TestFIFOFastPathEqualsInterfacePath; pifo's
//     TestConstRankPIFOEqualsFIFO across schedulers).
//   - Service: fits-or-waits per tick, store-and-forward credit only for a
//     head larger than one tick's budget, per-port rates, a downed port
//     skipped with budget and credit untouched (TestServiceRate,
//     TestOversizedPacketStoreAndForward, TestPerPortServiceRates,
//     TestPortLiveness). The route field is reduced modulo the port count,
//     negatives corrected into range — which is why scrambled state can
//     misroute but not crash (TestMultiPortFanOut).
//   - Event driving: NextEventTick may answer early, never late; a FIFO
//     switch answers now+1 when it holds anything, else −1; AdvanceTo
//     never rewinds the clock (TestNextEventTickFIFO,
//     TestAdvanceToNeverRewinds).
package switchsim

import (
	"fmt"
	"math"

	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/interp"
	"domino/internal/telemetry"
)

// Config sizes the switch.
type Config struct {
	// Ports is the number of output ports (uplinks/paths).
	Ports int
	// QueueCapBytes bounds each output queue; arrivals beyond it tail-drop.
	QueueCapBytes int64
	// ServiceBytesPerTick is each port's drain rate.
	ServiceBytesPerTick int64
	// RouteField is the packet field (after pipeline processing) that
	// selects the output port, reduced modulo Ports. Empty routes by a
	// round-robin spray.
	RouteField string
	// PortServiceBytesPerTick overrides ServiceBytesPerTick per port (0
	// entries keep the default). In a network, each output port feeds one
	// link, so the port's rate is the link's capacity. Must be empty or
	// Ports long.
	PortServiceBytesPerTick []int64
	// Scheduler chooses each port's service order. Nil means FIFO with
	// tail drop (the pre-PIFO behavior). The byte cap (QueueCapBytes) is
	// enforced by the switch regardless of scheduler.
	Scheduler Scheduler
	// Telemetry, when non-nil, receives the switch's metrics: enqueue/
	// dequeue/drop counters plus per-port queue-depth (at enqueue) and
	// queueing-delay (at dequeue) histograms. Instruments are resolved
	// once at construction under TelemetryPrefix; a nil sink costs the
	// hot path only nil checks and allocates nothing.
	Telemetry telemetry.Sink
	// TelemetryPrefix namespaces this switch's instruments (e.g.
	// "sw.leaf0"); empty means "sw".
	TelemetryPrefix string
	// Trace, when non-nil, records sampled enqueue/dequeue/drop events
	// with TraceNode as the node id.
	Trace     *telemetry.Ring
	TraceNode int32
}

// QueuedHeader is a header waiting in an output queue plus its queueing
// metadata. The header stays owned by the switch: it returns to the
// machine's free list when the packet departs or drops.
type QueuedHeader struct {
	H       banzai.Header
	Size    int64
	Arrived int64 // tick of enqueue
	Seq     int64 // injection sequence number, for reordering analysis
}

// PortScheduler orders one output port's packets. Implementations are
// single-caller (the switch) and must be FIFO among equal-priority
// packets. Enqueue never rejects — admission (the byte cap) is the
// switch's job. Head/Dequeue take the current tick so shaping schedulers
// can hold packets until their send time; Head must return exactly the
// packet the next Dequeue at the same tick would remove. Len counts every
// packet held, including ones a shaper is currently hiding.
type PortScheduler interface {
	Enqueue(q QueuedHeader)
	Head(now int64) (QueuedHeader, bool)
	Dequeue(now int64) (QueuedHeader, bool)
	Len() int
}

// Scheduler builds one PortScheduler per output port at switch
// construction time. The ingress machine's layout is passed so rank
// computations can locate packet fields in the departing headers.
type Scheduler interface {
	Build(l *banzai.Layout, ports int) ([]PortScheduler, error)
}

// EventScheduler is the optional calendar-queue extension of
// PortScheduler: a scheduler that can report, without mutating itself,
// the earliest future tick at which a service pass could dequeue
// something — so an event-driven driver can sleep through the gap
// instead of polling Head every tick. NextEventTick returns -1 when the
// scheduler holds nothing; when it holds packets it must return a tick
// > now that is never later than the first tick Head would succeed at
// (earlier is safe — the driver just finds nothing and re-asks). Plain
// FIFO queues don't implement it: a queued packet there is always
// serviceable next tick.
type EventScheduler interface {
	NextEventTick(now int64) int64
}

// QueuedPacket is a packet waiting in an output queue, in map form (the
// Departure edge representation).
type QueuedPacket struct {
	Pkt     interp.Packet
	Size    int64
	Arrived int64 // tick of enqueue
	Seq     int64 // injection sequence number, for reordering analysis
}

// Departure is a packet leaving the switch.
type Departure struct {
	QueuedPacket
	Port     int
	Departed int64
}

// PortStats accumulates per-port load figures.
type PortStats struct {
	// Enqueues and Bytes count packets/bytes accepted into the queue.
	Enqueues int64
	Bytes    int64
	// Drops and DroppedBytes count arrivals rejected by the byte cap.
	Drops        int64
	DroppedBytes int64
	// Departures and DepartedBytes count packets/bytes served.
	Departures    int64
	DepartedBytes int64
	// MaxQueue is the peak queued bytes; MaxDepth the peak queued packets.
	MaxQueue int64
	MaxDepth int64
	// QueueBytes is the bytes currently queued.
	QueueBytes int64
}

// fifoRing is the default port scheduler: a growable circular FIFO of
// QueuedHeaders — enqueue at the tail, dequeue at the head, no element
// shifting, no rank computation.
type fifoRing struct {
	buf  []QueuedHeader
	head int
	n    int
}

func (r *fifoRing) Len() int { return r.n }

func (r *fifoRing) Enqueue(q QueuedHeader) {
	if r.n == len(r.buf) {
		grown := make([]QueuedHeader, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = q
	r.n++
}

func (r *fifoRing) Head(now int64) (QueuedHeader, bool) {
	if r.n == 0 {
		return QueuedHeader{}, false
	}
	return r.buf[r.head], true
}

func (r *fifoRing) Dequeue(now int64) (QueuedHeader, bool) {
	if r.n == 0 {
		return QueuedHeader{}, false
	}
	return r.pop(), true
}

// pop removes the head of a non-empty ring, zeroing the vacated slot so
// the ring retains no header past its release.
func (r *fifoRing) pop() QueuedHeader {
	q := r.buf[r.head]
	r.buf[r.head] = QueuedHeader{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return q
}

// Switch is an output-queued switch with a Banzai ingress pipeline.
type Switch struct {
	cfg       Config
	machine   *banzai.Machine
	routeSlot int // slot of RouteField's departing value; -1 → round-robin
	queues    []PortScheduler
	stats     []PortStats
	rates     []int64 // per-port service bytes/tick (link capacity)
	carry     []int64 // per-port store-and-forward credit (see TickFunc)
	portDown  []bool  // per-port service stall (a downed link's feeding port)
	now       int64
	seq       int64
	rr        int
	// Bound once in New, so no service pass dispatches or type-asserts to
	// find out what a port's queue is. With the default scheduler
	// (Config.Scheduler == nil) fifos holds the very rings queues holds,
	// as their concrete type, and enqueue, service and flush call them
	// directly; it is nil with a custom scheduler, whose ports go through
	// the PortScheduler interface and whose events[p] is queues[p]'s
	// EventScheduler side (nil where the scheduler has none).
	fifos  []*fifoRing
	events []EventScheduler
	// queued is the packets currently held across all port queues,
	// maintained at enqueue, dequeue and flush so QueuedPkts is O(1);
	// Totals re-sums the schedulers' Len() and CheckConservation compares.
	queued int64
	// injected counts packets/bytes accepted by Inject/InjectH (enqueued
	// or byte-cap dropped; pipeline errors and size rejections excluded) —
	// the left side of the conservation identity.
	injectedPkts  int64
	injectedBytes int64

	// Telemetry instruments, resolved once at construction (nil without a
	// sink — every method on them is a nil-safe no-op).
	enqC, deqC, dropC *telemetry.Counter
	qdepthH, qdelayH  []*telemetry.Histogram // per port
	trace             *telemetry.Ring
	traceNode         int32
	flowSlot, seqSlot int // header slots of flow/seq for trace records; -1 if absent
}

// New builds a switch around a compiled program.
func New(prog *codegen.Program, cfg Config) (*Switch, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("switchsim: need at least one port")
	}
	if cfg.ServiceBytesPerTick <= 0 {
		cfg.ServiceBytesPerTick = 1500
	}
	if cfg.QueueCapBytes <= 0 {
		cfg.QueueCapBytes = 1 << 20
	}
	m, err := banzai.New(prog)
	if err != nil {
		return nil, err
	}
	routeSlot := -1
	if cfg.RouteField != "" {
		slot, ok := m.Layout().OutputSlot(cfg.RouteField)
		if !ok {
			return nil, fmt.Errorf("switchsim: program has no packet field %q to route by", cfg.RouteField)
		}
		routeSlot = slot
	}
	var (
		queues []PortScheduler
		fifos  []*fifoRing
		events []EventScheduler
	)
	if cfg.Scheduler == nil {
		queues = make([]PortScheduler, cfg.Ports)
		fifos = make([]*fifoRing, cfg.Ports)
		for p := range fifos {
			fifos[p] = &fifoRing{}
			queues[p] = fifos[p]
		}
	} else {
		queues, err = cfg.Scheduler.Build(m.Layout(), cfg.Ports)
		if err != nil {
			return nil, fmt.Errorf("switchsim: building scheduler: %w", err)
		}
		if len(queues) != cfg.Ports {
			return nil, fmt.Errorf("switchsim: scheduler built %d port queues, want %d", len(queues), cfg.Ports)
		}
		events = make([]EventScheduler, cfg.Ports)
		for p, q := range queues {
			events[p], _ = q.(EventScheduler)
		}
	}
	rates := make([]int64, cfg.Ports)
	for p := range rates {
		rates[p] = cfg.ServiceBytesPerTick
	}
	if n := len(cfg.PortServiceBytesPerTick); n != 0 {
		if n != cfg.Ports {
			return nil, fmt.Errorf("switchsim: %d per-port rates for %d ports", n, cfg.Ports)
		}
		for p, r := range cfg.PortServiceBytesPerTick {
			if r > 0 {
				rates[p] = r
			}
		}
	}
	s := &Switch{
		cfg:       cfg,
		machine:   m,
		routeSlot: routeSlot,
		queues:    queues,
		fifos:     fifos,
		events:    events,
		rates:     rates,
		carry:     make([]int64, cfg.Ports),
		portDown:  make([]bool, cfg.Ports),
		stats:     make([]PortStats, cfg.Ports),
		qdepthH:   make([]*telemetry.Histogram, cfg.Ports),
		qdelayH:   make([]*telemetry.Histogram, cfg.Ports),
		trace:     cfg.Trace,
		traceNode: cfg.TraceNode,
		flowSlot:  -1,
		seqSlot:   -1,
	}
	if pre := cfg.TelemetryPrefix; cfg.Telemetry != nil {
		if pre == "" {
			pre = "sw"
		}
		s.enqC = telemetry.GetCounter(cfg.Telemetry, pre+".enq_pkts")
		s.deqC = telemetry.GetCounter(cfg.Telemetry, pre+".deq_pkts")
		s.dropC = telemetry.GetCounter(cfg.Telemetry, pre+".drop_pkts")
		for p := 0; p < cfg.Ports; p++ {
			s.qdepthH[p] = telemetry.GetHistogram(cfg.Telemetry, fmt.Sprintf("%s.qdepth_bytes.p%d", pre, p))
			s.qdelayH[p] = telemetry.GetHistogram(cfg.Telemetry, fmt.Sprintf("%s.qdelay_ticks.p%d", pre, p))
		}
	}
	if s.trace != nil {
		// Best-effort flow/seq identification in trace records: resolve
		// the conventional field slots if this program declares them.
		if slot, ok := m.Layout().OutputSlot("flow"); ok {
			s.flowSlot = slot
		}
		if slot, ok := m.Layout().OutputSlot("seq"); ok {
			s.seqSlot = slot
		}
	}
	return s, nil
}

// traceIDs pulls (flow, seq) out of a header for a trace record, -1 when
// the program has no such fields.
func (s *Switch) traceIDs(h banzai.Header) (flow, seq int32) {
	flow, seq = -1, -1
	if s.flowSlot >= 0 {
		flow = h[s.flowSlot]
	}
	if s.seqSlot >= 0 {
		seq = h[s.seqSlot]
	}
	return flow, seq
}

// Machine exposes the embedded pipeline (for state inspection).
func (s *Switch) Machine() *banzai.Machine { return s.machine }

// Now returns the current tick.
func (s *Switch) Now() int64 { return s.now }

// InjectH runs a header through the ingress pipeline (in place) and
// enqueues it at its output port — the allocation-free fast path.
// Ownership of h passes to the switch: it is recycled into the machine's
// free list when the packet departs or drops, so acquire it from
// Machine().AcquireHeader(). Avoid injecting slab-backed trace headers:
// once pooled, one of them keeps its whole trace slab reachable (copy
// into an acquired header instead). Returns the chosen port, or
// dropped=true if the queue was full.
func (s *Switch) InjectH(h banzai.Header, size int64) (port int, dropped bool, err error) {
	if err := checkSize(size); err != nil {
		s.machine.ReleaseHeader(h)
		return 0, false, err
	}
	if err := s.process(h); err != nil {
		return 0, false, err
	}
	port, dropped = s.enqueue(h, size)
	return port, dropped, nil
}

// checkSize rejects packet sizes the scheduler bridge cannot represent:
// rank transactions stamp the size into an int32 packet field, so a
// negative or >2^31-1 size would be silently truncated into a wrong (or
// nonsensical) rank. Rejecting here, at the switch's admission edge,
// keeps the per-packet rank path free of range checks.
func checkSize(size int64) error {
	if size < 0 || size > math.MaxInt32 {
		return fmt.Errorf("switchsim: packet size %d outside [0, %d] (scheduler rank fields are int32)",
			size, math.MaxInt32)
	}
	return nil
}

// process runs a header through the ingress pipeline, recycling it into
// the pool on failure — the one place the ProcessH error path lives, so
// Inject and InjectH cannot diverge.
func (s *Switch) process(h banzai.Header) error {
	if err := s.machine.ProcessH(h); err != nil {
		s.machine.ReleaseHeader(h)
		return err
	}
	return nil
}

// enqueue steers a processed header to its port and queues or drops it,
// taking ownership of h either way.
func (s *Switch) enqueue(h banzai.Header, size int64) (port int, dropped bool) {
	if s.routeSlot >= 0 {
		port = int(h[s.routeSlot]) % s.cfg.Ports
		if port < 0 {
			port += s.cfg.Ports
		}
	} else {
		port = s.rr % s.cfg.Ports
		s.rr++
	}
	s.injectedPkts++
	s.injectedBytes += size
	st := &s.stats[port]
	if st.QueueBytes+size > s.cfg.QueueCapBytes {
		st.Drops++
		st.DroppedBytes += size
		s.dropC.Inc()
		if s.trace != nil {
			flow, seq := s.traceIDs(h)
			s.trace.Record(s.now, telemetry.EvDrop, s.traceNode, int32(port), flow, seq, int32(size), 0)
		}
		s.machine.ReleaseHeader(h)
		return port, true
	}
	s.seq++
	qh := QueuedHeader{H: h, Size: size, Arrived: s.now, Seq: s.seq}
	var depth int64
	if s.fifos != nil {
		r := s.fifos[port]
		r.Enqueue(qh)
		depth = int64(r.n)
	} else {
		q := s.queues[port]
		q.Enqueue(qh)
		depth = int64(q.Len())
	}
	s.queued++
	st.Enqueues++
	st.Bytes += size
	st.QueueBytes += size
	if st.QueueBytes > st.MaxQueue {
		st.MaxQueue = st.QueueBytes
	}
	if depth > st.MaxDepth {
		st.MaxDepth = depth
	}
	s.enqC.Inc()
	s.qdepthH[port].Observe(st.QueueBytes)
	if s.trace != nil {
		flow, seq := s.traceIDs(h)
		s.trace.Record(s.now, telemetry.EvEnqueue, s.traceNode, int32(port), flow, seq, int32(size), 0)
	}
	return port, false
}

// Inject runs a packet through the ingress pipeline and enqueues it at its
// output port. It returns the processed packet and the chosen port, or
// dropped=true if the queue was full. This is the map-based wrapper over
// InjectH; the codec runs only here, at the edge.
func (s *Switch) Inject(pkt interp.Packet, size int64) (out interp.Packet, port int, dropped bool, err error) {
	if err := checkSize(size); err != nil {
		return nil, 0, false, err
	}
	h := s.machine.EncodeHeader(pkt)
	if err := s.process(h); err != nil {
		return nil, 0, false, err
	}
	out = s.machine.Layout().Output(h)
	port, dropped = s.enqueue(h, size)
	return out, port, dropped, nil
}

// TickFunc advances time one unit: each port drains up to its service
// rate in the order its scheduler dictates, handing each departing
// QueuedHeader to emit without decoding it — the harness-facing step
// function a network simulator drives. Ownership of qh.H passes to emit,
// which must eventually hand it back via Machine().ReleaseHeader (or keep
// it under its own pooling regime).
//
// A packet larger than one full tick's service rate is transmitted
// store-and-forward style: while it sits at the head, the port's unused
// budget carries over, so it departs after ceil(size/rate) ticks instead
// of deadlocking the queue. Packets that fit a fresh tick's budget keep
// the strict fits-or-waits rule (no residual credit), so ordinary
// scenarios are unchanged; the credit never accumulates past the blocked
// packet's size and is forfeited when the head no longer needs it.
func (s *Switch) TickFunc(emit func(port int, qh QueuedHeader)) {
	s.TickAt(s.now+1, emit)
}

// AdvanceTo moves the switch clock forward to now without running a
// service pass — how an event-driven driver keeps a switch's notion of
// time (Arrived stamps, queueing-delay observations, shaper send times)
// in step with the fabric clock across skipped idle ticks. Moving
// backwards is a no-op: time never rewinds.
func (s *Switch) AdvanceTo(now int64) {
	if now > s.now {
		s.now = now
	}
}

// TickAt is TickFunc with an explicit clock: it advances the switch to
// tick now (never backwards) and runs one service pass there. An
// event-driven driver that skips idle ticks calls this with the fabric
// tick; TickFunc(emit) is exactly TickAt(s.now+1, emit).
//
// The default FIFO rings are served in place — head read where it sits,
// popped directly — and a custom scheduler through the PortScheduler
// interface; the two loops differ in nothing but how they peek at and
// take a port's head.
func (s *Switch) TickAt(now int64, emit func(port int, qh QueuedHeader)) {
	s.AdvanceTo(now)
	for p, q := range s.queues {
		if s.portDown[p] {
			continue // downed port: queue frozen, no budget accrues
		}
		rate := s.rates[p]
		budget := rate + s.carry[p]
		s.carry[p] = 0
		if s.fifos != nil {
			for r := s.fifos[p]; r.n > 0; {
				size := r.buf[r.head].Size
				if size > budget {
					if size > rate {
						s.carry[p] = budget
					}
					break
				}
				budget -= size
				qh := r.pop()
				s.departed(p, &qh)
				emit(p, qh)
			}
			continue
		}
		for {
			head, ok := q.Head(s.now)
			if !ok {
				break
			}
			if head.Size > budget {
				if head.Size > rate {
					s.carry[p] = budget
				}
				break
			}
			qh, _ := q.Dequeue(s.now)
			budget -= qh.Size
			s.departed(p, &qh)
			emit(p, qh)
		}
	}
}

// departed accounts for a packet a service pass just took off port p's
// queue, before it is handed to emit. It takes the packet by pointer and
// leaves the emit call to the loop: too big to inline, it cost the PIFO
// switch 7% when the 56-byte QueuedHeader and the callback rode along.
func (s *Switch) departed(p int, qh *QueuedHeader) {
	s.queued--
	st := &s.stats[p]
	st.QueueBytes -= qh.Size
	st.Departures++
	st.DepartedBytes += qh.Size
	s.deqC.Inc()
	s.qdelayH[p].Observe(s.now - qh.Arrived)
	if s.trace != nil {
		flow, seq := s.traceIDs(qh.H)
		s.trace.Record(s.now, telemetry.EvDequeue, s.traceNode, int32(p), flow, seq, int32(qh.Size), int32(s.now-qh.Arrived))
	}
}

// Tick advances time one unit and returns the decoded departures — the
// map-form wrapper over TickFunc; the codec runs only here, at the edge.
func (s *Switch) Tick() []Departure {
	var deps []Departure
	s.TickFunc(func(port int, qh QueuedHeader) {
		deps = append(deps, Departure{
			QueuedPacket: QueuedPacket{
				Pkt:     s.machine.Layout().Output(qh.H),
				Size:    qh.Size,
				Arrived: qh.Arrived,
				Seq:     qh.Seq,
			},
			Port:     port,
			Departed: s.now,
		})
		s.machine.ReleaseHeader(qh.H)
	})
	return deps
}

// FlushQueues empties every port queue without serving the packets —
// power-cycle semantics for a restarting switch. Each flushed packet is
// accounted as a drop on its port, so the conservation identity
// (injected = departed + dropped + queued) holds across the flush, and
// is handed to emit, which owns the header exactly as TickFunc's emit
// does (nil emit recycles into the machine pool directly). With a
// shaping scheduler only packets the scheduler surrenders via Dequeue
// are flushed; anything it withholds stays queued — and stays counted.
func (s *Switch) FlushQueues(emit func(port int, qh QueuedHeader)) (pkts, bytes int64) {
	for p, q := range s.queues {
		for {
			var (
				qh QueuedHeader
				ok bool
			)
			if s.fifos != nil {
				qh, ok = s.fifos[p].Dequeue(s.now)
			} else {
				qh, ok = q.Dequeue(s.now)
			}
			if !ok {
				break
			}
			s.queued--
			st := &s.stats[p]
			st.QueueBytes -= qh.Size
			st.Drops++
			st.DroppedBytes += qh.Size
			s.dropC.Inc()
			if s.trace != nil {
				flow, seq := s.traceIDs(qh.H)
				s.trace.Record(s.now, telemetry.EvDrop, s.traceNode, int32(p), flow, seq, int32(qh.Size), 2)
			}
			pkts++
			bytes += qh.Size
			if emit != nil {
				emit(p, qh)
			} else {
				s.machine.ReleaseHeader(qh.H)
			}
		}
	}
	return pkts, bytes
}

// Drain ticks until every queue is empty, returning all departures. With a
// shaping scheduler this includes idle ticks spent waiting for send times
// to arrive.
func (s *Switch) Drain() []Departure {
	var deps []Departure
	for s.queued > 0 {
		deps = append(deps, s.Tick()...)
	}
	return deps
}

// QueuedPkts reports the number of packets currently held across all
// port queues (including packets a shaping scheduler is withholding) —
// a running counter, so an event-driven driver can ask every step.
func (s *Switch) QueuedPkts() int64 { return s.queued }

// NextEventTick reports the earliest future tick at which a service pass
// could dequeue something, or -1 when every queue is empty. A port with
// a visible head (any FIFO, or a shaper with a due packet) needs service
// next tick — store-and-forward credit accrues per serviced tick, so the
// driver must not skip over it. A downed port with queued packets also
// answers now+1: nothing will move, but per-tick stepping keeps the
// no-progress watchdog's accounting identical to the polled core's. Only
// a port whose scheduler is withholding everything until a future send
// time lets the driver sleep to that tick — which a FIFO never does, so
// the default scheduler's answer is just "anything queued?".
func (s *Switch) NextEventTick(now int64) int64 {
	if s.queued == 0 {
		return -1
	}
	if s.fifos != nil {
		return now + 1
	}
	at := int64(-1)
	for p, q := range s.queues {
		if q.Len() == 0 {
			continue
		}
		t := now + 1
		if es := s.events[p]; es != nil && !s.portDown[p] {
			if et := es.NextEventTick(now); et > t {
				t = et
			}
		}
		if t == now+1 {
			return now + 1
		}
		if at < 0 || t < at {
			at = t
		}
	}
	return at
}

// PortRate returns port p's service rate in bytes per tick (the capacity
// of the link the port feeds), or 0 for a port the switch does not have.
func (s *Switch) PortRate(p int) int64 {
	if p < 0 || p >= len(s.rates) {
		return 0
	}
	return s.rates[p]
}

// SetPortRate overrides one port's service rate — how a network harness
// binds a link's capacity to the port that feeds it after construction.
// Non-positive rates and unknown ports are ignored.
func (s *Switch) SetPortRate(p int, bytesPerTick int64) {
	if p >= 0 && p < len(s.rates) && bytesPerTick > 0 {
		s.rates[p] = bytesPerTick
	}
}

// SetPortUp raises or stalls one port's service — how a network harness
// reflects the feeding link's liveness. While a port is down its queue is
// frozen: arrivals still land (and tail-drop at the byte cap), nothing
// departs, no store-and-forward credit accrues. Unknown ports are
// ignored; conservation holds throughout (frozen packets stay queued).
func (s *Switch) SetPortUp(p int, up bool) {
	if p >= 0 && p < len(s.portDown) {
		s.portDown[p] = !up
		if !up {
			s.carry[p] = 0
		}
	}
}

// PortUp reports whether port p is serving (false for unknown ports).
func (s *Switch) PortUp(p int) bool {
	return p >= 0 && p < len(s.portDown) && !s.portDown[p]
}

// PortQueueBytes reports the bytes currently queued for one output port
// without copying the stats slice — the allocation-free read a network
// harness uses every tick to publish queue depths into a marking
// transaction's queue_depth array. Unknown ports read as empty.
func (s *Switch) PortQueueBytes(p int) int64 {
	if p < 0 || p >= len(s.stats) {
		return 0
	}
	return s.stats[p].QueueBytes
}

// Stats returns a copy of the per-port statistics.
func (s *Switch) Stats() []PortStats {
	out := make([]PortStats, len(s.stats))
	copy(out, s.stats)
	return out
}

// Imbalance summarizes a load spread: (max-min)/mean over byte counts;
// 0 is perfectly balanced. Shared by the per-switch port metric below
// and netsim's link-level balance reports.
func Imbalance(bytes []int64) float64 {
	if len(bytes) == 0 {
		return 0
	}
	min, max, sum := bytes[0], bytes[0], int64(0)
	for _, b := range bytes {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
		sum += b
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(bytes))
	return (float64(max) - float64(min)) / mean
}

// LoadImbalance summarizes load spread: (max-min)/mean of per-port bytes.
// 0 is perfectly balanced.
func (s *Switch) LoadImbalance() float64 {
	bytes := make([]int64, len(s.stats))
	for p := range s.stats {
		bytes[p] = s.stats[p].Bytes
	}
	return Imbalance(bytes)
}

// CountReordering reports, for departures belonging to one flow keyed by
// key(pkt), how many packets departed out of injection order — the metric
// flowlet switching must keep at zero for well-spaced bursts.
func CountReordering(deps []Departure, key func(interp.Packet) int64) int {
	lastSeq := map[int64]int64{}
	reordered := 0
	for _, d := range deps {
		k := key(d.Pkt)
		if d.Seq < lastSeq[k] {
			reordered++
		} else {
			lastSeq[k] = d.Seq
		}
	}
	return reordered
}
