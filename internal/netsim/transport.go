package netsim

// transport.go is the end-to-end reliable delivery layer (PR 7): hosts
// stop trusting the fabric. Each trace packet gets a per-flow sequence
// number and an end-to-end checksum stamped at injection; the sink
// validates, suppresses duplicates, and answers every data packet with a
// cumulative ACK riding the existing CONGA feedback reflection; the
// sender paces injections (AIMD on a per-flow send gap), retransmits on
// a timer wheel keyed to the tick clock with exponential backoff and
// deterministic seeded jitter, and gives up loudly — never silently —
// when a packet exhausts its retry budget.
//
// Division of labor, per the paper's thesis: loss detection, pacing and
// retransmission are host behavior and live here; the congestion
// *signal* is switch behavior and stays a packet transaction — the
// ecn_mark block (internal/algorithms) marks pkt.ecn when the queue
// depth the harness pokes into its queue_depth array crosses a
// threshold, the sink echoes the mark on the ACK (fb_ecn), and the
// sender treats the echo like a timeout: multiplicative gap increase.
//
// Determinism: all transport state is a pure function of the trace, the
// config seed and the tick clock. Jitter comes from a splitmix64 hash of
// (seed, flow, seq, retries), not a shared RNG, so fixed-seed runs are
// byte-identical regardless of event interleaving. The hot path (wheel
// service, send, ack, dedup) is allocation-free in steady state: flat
// arrays indexed by flow and by global packet index, and a bitset for
// receiver-side dedup (TestReliableHotPathZeroAlloc, TestReliableDeterminism).
//
// The rest of the contract, with the enforcing tests:
//
//   - Wiring: EnableTransport runs after SetTrace and before the first
//     tick; Start rejects a watchdog no longer than the longest link delay
//     (TestTransportValidation, TestWatchdogBelowLinkDelay).
//   - Fields: data carries seq (the packet's index in its flow's arrival
//     order) and csum (xor over sport/dport/src/dst/flow/seq/fb/fb_ack/
//     fb_ecn plus a salt — fields no program writes, so it survives any
//     pipeline; the program-written INT fields are not in it). An ACK is
//     the reflected fb=1 packet: it echoes seq (selective ack), fb_ack is
//     the receiver's cumulative frontier, fb_ecn the data packet's ecn
//     bit. Every host-facing program must declare all of them.
//   - Ownership: the transport retains no header; every (re)send acquires
//     a fresh one from the source leaf's pool, so the link rules of the
//     package comment are untouched.
//   - Sender: unsent → outstanding → acked | given-up (sticky). Backoff is
//     min(RTO<<r, RTOMax) plus jitter; the gap doubles on timeout or ECN
//     echo at most once per RTO and shrinks by 1 per 8 clean ACKs
//     (TestReliableECNBackoff); an exhausted retry budget is a counted
//     GivenUp, never silence (TestReliableGivesUpLoudly). Fast retransmit
//     resends the base packet on FastRetransmit duplicate cumulative ACKs
//     that carry selective-ack evidence of a gap, so a reorder window
//     shorter than that cannot trigger it (TestRunGrayFailure,
//     TestMeanAckTicksAccounting).
//   - Sink admission, in order: flow range, csum, seq range, and the
//     flow's declared endpoint must be this host (misdelivery a checksum
//     cannot see). Failures count CorruptDropped, duplicates DupDropped —
//     and are still re-ACKed, which is how a lost ACK recovers
//     (TestReliableExactlyOnceUnderFaults, FuzzReliableTransport).
//   - Three more identities join the physical one in CheckConservation,
//     all byte-exact: delivered = accepted + dup-dropped + fb-delivered,
//     injected = offered + retransmits + fb-injected, offered = acked +
//     given-up + outstanding (TestReliableHealthyDelivery and every test
//     above). Done is per epoch: Reset re-arms a finished transport for a
//     replay loop while cumulative totals keep growing.

import (
	"fmt"

	"domino/internal/banzai"
	"domino/internal/telemetry"
)

// TransportConfig tunes the reliable delivery layer. Zero values take
// the documented defaults.
type TransportConfig struct {
	// RTO is the base retransmission timeout in ticks (default 32); the
	// deadline for retry r is min(RTO<<r, RTOMax) plus jitter in
	// [0, RTO/2].
	RTO int64
	// RTOMax caps the exponential backoff (default 2048).
	RTOMax int64
	// MaxRetries is the per-packet retransmit budget (default 8); a
	// packet that exhausts it is counted GivenUp and its window slot
	// released.
	MaxRetries int
	// Window caps a flow's unresolved (sent, neither acked nor given-up)
	// packets (default 64).
	Window int32
	// MinGap/MaxGap bound the per-flow pacing gap in ticks between fresh
	// sends (defaults 1 and 64). The gap doubles on a timeout or ECN
	// echo (at most once per RTO) and shrinks by one per eight clean
	// cumulative ACKs — AIMD on the send rate.
	MinGap, MaxGap int64
	// Seed drives the retransmit jitter (default 1).
	Seed int64
	// FastRetransmit is the duplicate-ACK threshold (default 3): that
	// many consecutive ACKs that fail to advance a flow's base while
	// selectively acking past it — SACK-gap evidence the base packet is
	// lost, not late — resend it immediately instead of waiting out the
	// RTO. Negative disables (RTO-only recovery, the PR 7 behavior).
	FastRetransmit int
}

func (c *TransportConfig) defaults() {
	if c.RTO <= 0 {
		c.RTO = 32
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 2048
	}
	if c.RTOMax < c.RTO {
		c.RTOMax = c.RTO
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MinGap <= 0 {
		c.MinGap = 1
	}
	if c.MaxGap < c.MinGap {
		c.MaxGap = 64
	}
	if c.MaxGap < c.MinGap {
		c.MaxGap = c.MinGap
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FastRetransmit == 0 {
		c.FastRetransmit = 3
	}
}

// Per-packet sender states.
const (
	stUnsent = uint8(iota)
	stOutstanding
	stAcked
	stGivenUp
)

// cleanAcksPerInc is the additive-increase pace: clean cumulative ACKs
// per one-tick gap decrease.
const cleanAcksPerInc = 8

// TransportTotals is the transport's half of the conservation story (see
// Network.CheckConservation). Offered counts each trace packet's first
// send; Retrans counts every extra copy; every offered packet is acked,
// given up, or outstanding. RateCuts counts multiplicative gap
// increases (timeouts + ECN echoes, rate-limited to one per RTO).
type TransportTotals struct {
	OfferedPkts, OfferedBytes         int64
	RetransPkts, RetransBytes         int64
	AckedPkts, AckedBytes             int64
	GivenUpPkts, GivenUpBytes         int64
	OutstandingPkts, OutstandingBytes int64
	RateCuts                          int64
	// FastRetransPkts is the share of RetransPkts triggered by the
	// duplicate-ACK threshold rather than an RTO expiry.
	FastRetransPkts int64
}

// Transport is the per-network reliable delivery state. Create one with
// Network.EnableTransport; all further interaction happens through the
// network's Step/Run/Drain and the sink path.
type Transport struct {
	n   *Network
	cfg TransportConfig

	// Flow-major layout of the trace: packets of flow f are the global
	// packet indices [off[f], off[f+1]), in send (= arrival) order, and
	// pkt[gi] maps a global index back to its trace position. seq s of
	// flow f is global index off[f]+s.
	off     []int32
	pkt     []int32
	flowSrc []int32
	flowDst []int32
	total   int64

	// Sender state, per flow.
	base      []int32 // lowest unresolved seq
	next      []int32 // next never-sent seq
	gap       []int64 // current pacing gap
	nextSend  []int64 // earliest tick for the next fresh send
	cleanAcks []int32
	lastCut   []int64
	wake      []int64 // scheduled wheel wake (-1 none)
	dupAcks   []int32 // consecutive base-stalled ACKs with SACK-gap evidence

	// Sender state, per global packet index.
	pstate  []uint8
	retries []uint8
	due     []int64

	// Receiver state: accepted-bit per global packet index, plus each
	// flow's cumulative-ack frontier (every seq < rbase accepted).
	rbits []uint64
	rbase []int32

	// Timer wheel: slot t&mask heads an intrusive list of the flows
	// waking at tick t (each flow is in at most one slot; nextF chains
	// them). Span exceeds the longest single wait (RTOMax + jitter, or a
	// pacing gap); farther wakes (a flow whose next packet arrives much
	// later) clamp to span-1 and lazily re-arm when they fire. The
	// intrusive layout keeps scheduling allocation-free forever — no
	// slot slice ever grows.
	slotHead []int32
	nextF    []int32
	mask     int64

	// wheap mirrors the wheel as a min-heap of (tick, flow) so the event
	// core can ask "when does the next wake fire?" without scanning span
	// slots. Entries are never removed eagerly: an entry is live iff it
	// still matches wake[f]; rescheduling just pushes a new entry and the
	// stale one is pruned lazily when it reaches the top (peekWake).
	wheap []flowWake

	// epoch offsets trace arrival times after a Reset, so a warmed
	// transport can replay its trace from a nonzero tick; resolved
	// counts this epoch's acked-or-given-up packets (the cumulative
	// counters below survive Reset, so Done cannot use them).
	epoch    int64
	resolved int64

	offeredPkts, offeredBytes int64
	retransPkts, retransBytes int64
	ackedPkts, ackedBytes     int64
	givenUpPkts, givenUpBytes int64
	outPkts, outBytes         int64
	rateCuts                  int64
	fastRetransPkts           int64
	// resolveSum accumulates first-send→ack latency over every acked
	// packet (retransmitted or not) — MeanAckTicks' numerator, the
	// recovery-time metric fast retransmit is meant to cut.
	resolveSum int64

	// Observability (nil instruments no-op, so the uninstrumented hot
	// path stays allocation-free). sent records each packet's fresh-send
	// tick; RTT samples follow Karn's rule — only never-retransmitted
	// packets, so a retransmit can't be mistaken for its original.
	sent     []int64
	rttH     *telemetry.Histogram
	gapH     *telemetry.Histogram
	retriesH *telemetry.Histogram
	cutsC    *telemetry.Counter
}

// EnableTransport switches the network from raw trace replay to reliable
// delivery. It must run after SetTrace and before the first tick; it
// forces Feedback on (ACKs ride the reflection path) and requires every
// host-facing program to carry the transport fields (seq, csum, fb_ack,
// fb_ecn — declared by the PR 7 routing catalog).
func (n *Network) EnableTransport(cfg TransportConfig) (*Transport, error) {
	if n.trace == nil {
		return nil, fmt.Errorf("netsim: EnableTransport needs a trace (call SetTrace first)")
	}
	if n.now != 0 {
		return nil, fmt.Errorf("netsim: EnableTransport must run before the first tick")
	}
	if n.transport != nil {
		return nil, fmt.Errorf("netsim: transport already enabled")
	}
	cfg.defaults()
	for _, h := range n.traceHost {
		in := &h.leaf.in
		for _, s := range []struct {
			name string
			slot int
		}{
			{FieldSport, in.sport}, {FieldDport, in.dport}, {FieldSrc, in.src},
			{FieldDst, in.dst}, {FieldSize, in.size}, {FieldFlow, in.flow},
			{FieldFb, in.fb}, {FieldSeq, in.seq}, {FieldFbAck, in.fbAck},
			{FieldFbEcn, in.fbEcn}, {FieldCsum, in.csum},
		} {
			if s.slot < 0 {
				return nil, fmt.Errorf("netsim: transport needs field %q in switch %q's program", s.name, h.leaf.name)
			}
		}
	}
	for _, l := range n.links {
		if l.to.host == nil || l.to.host.traceIdx < 0 {
			continue
		}
		for _, s := range []struct {
			name string
			slot int
		}{
			{FieldSport, l.rSport}, {FieldDport, l.rDport}, {FieldSrc, l.rSrc},
			{FieldDst, l.rDst}, {FieldFlow, l.rFlow}, {FieldFb, l.rFb},
			{FieldSeq, l.rSeq}, {FieldFbAck, l.rFbAck}, {FieldFbEcn, l.rFbEcn},
			{FieldCsum, l.rCsum},
		} {
			if s.slot < 0 {
				return nil, fmt.Errorf("netsim: transport needs field %q readable on the link to host %q", s.name, l.to.name)
			}
		}
	}

	tr := n.trace
	flows := int(tr.NumFlows)
	tp := &Transport{n: n, cfg: cfg, total: int64(len(tr.Packets))}
	tp.off = make([]int32, flows+1)
	for i := range tr.Packets {
		f := tr.Packets[i].Flow
		if f < 0 || int(f) >= flows {
			return nil, fmt.Errorf("netsim: transport: trace packet %d has flow %d outside [0, %d)", i, f, flows)
		}
		tp.off[f+1]++
	}
	for f := 0; f < flows; f++ {
		tp.off[f+1] += tp.off[f]
	}
	fill := make([]int32, flows)
	tp.pkt = make([]int32, len(tr.Packets))
	tp.flowSrc = make([]int32, flows)
	tp.flowDst = make([]int32, flows)
	seen := make([]bool, flows)
	for i := range tr.Packets {
		p := &tr.Packets[i]
		f := p.Flow
		tp.pkt[tp.off[f]+fill[f]] = int32(i)
		fill[f]++
		if !seen[f] {
			seen[f] = true
			tp.flowSrc[f], tp.flowDst[f] = p.Src, p.Dst
		} else if tp.flowSrc[f] != p.Src || tp.flowDst[f] != p.Dst {
			return nil, fmt.Errorf("netsim: transport: flow %d changes endpoints mid-trace (%d→%d vs %d→%d); one host pair per flow",
				f, tp.flowSrc[f], tp.flowDst[f], p.Src, p.Dst)
		}
	}

	tp.base = make([]int32, flows)
	tp.next = make([]int32, flows)
	tp.gap = make([]int64, flows)
	tp.nextSend = make([]int64, flows)
	tp.cleanAcks = make([]int32, flows)
	tp.lastCut = make([]int64, flows)
	tp.wake = make([]int64, flows)
	tp.dupAcks = make([]int32, flows)
	tp.pstate = make([]uint8, len(tr.Packets))
	tp.retries = make([]uint8, len(tr.Packets))
	tp.due = make([]int64, len(tr.Packets))
	tp.rbits = make([]uint64, (len(tr.Packets)+63)/64)
	tp.rbase = make([]int32, flows)
	tp.sent = make([]int64, len(tr.Packets))
	tp.rttH = telemetry.GetHistogram(n.sink, "tp.rtt_ticks")
	tp.gapH = telemetry.GetHistogram(n.sink, "tp.pacing_gap_ticks")
	tp.retriesH = telemetry.GetHistogram(n.sink, "tp.retries_per_pkt")
	tp.cutsC = telemetry.GetCounter(n.sink, "tp.rate_cuts")

	span := int64(1024)
	for span < 2*(cfg.RTOMax+cfg.RTO+cfg.MaxGap) {
		span <<= 1
	}
	tp.slotHead = make([]int32, span)
	for i := range tp.slotHead {
		tp.slotHead[i] = -1
	}
	tp.nextF = make([]int32, flows)
	tp.mask = span - 1

	for f := 0; f < flows; f++ {
		tp.gap[f] = cfg.MinGap
		tp.lastCut[f] = -cfg.RTO
		tp.wake[f] = -1
		if tp.off[f+1] > tp.off[f] {
			t := int64(tr.Packets[tp.pkt[tp.off[f]]].Arrival)
			if t < 1 {
				t = 1
			}
			tp.schedule(int32(f), t)
		}
	}
	n.Feedback = true
	n.transport = tp
	return tp, nil
}

// Totals reports the transport-side conservation terms.
func (tp *Transport) Totals() TransportTotals {
	return TransportTotals{
		OfferedPkts: tp.offeredPkts, OfferedBytes: tp.offeredBytes,
		RetransPkts: tp.retransPkts, RetransBytes: tp.retransBytes,
		AckedPkts: tp.ackedPkts, AckedBytes: tp.ackedBytes,
		GivenUpPkts: tp.givenUpPkts, GivenUpBytes: tp.givenUpBytes,
		OutstandingPkts: tp.outPkts, OutstandingBytes: tp.outBytes,
		RateCuts: tp.rateCuts, FastRetransPkts: tp.fastRetransPkts,
	}
}

// MeanAckTicks reports the mean ticks from a packet's first send to its
// acknowledgment, over every acked packet. Unlike the Karn-filtered RTT
// histogram it includes retransmitted packets, so it measures loss
// recovery time — the latency fast retransmit exists to cut.
func (tp *Transport) MeanAckTicks() float64 {
	if tp.ackedPkts == 0 {
		return 0
	}
	return float64(tp.resolveSum) / float64(tp.ackedPkts)
}

// Done reports whether every trace packet is resolved at the sender in
// the current replay epoch: acknowledged or given up. (Packets and ACKs
// may still ride the fabric; Drain also waits for links and queues to
// empty.)
func (tp *Transport) Done() bool {
	return tp.resolved == tp.total
}

// Reset re-arms a finished transport to replay its trace from the
// current tick (arrival times shift by the current clock). Cumulative
// counters keep growing — throughput harnesses measure deltas. It is
// allocation-free: the wheel and state arrays are reused.
func (tp *Transport) Reset() error {
	if !tp.Done() {
		return fmt.Errorf("netsim: transport reset with %d packets unresolved", tp.total-tp.resolved)
	}
	tp.epoch = tp.n.now
	tp.resolved = 0
	for i := range tp.pstate {
		tp.pstate[i] = stUnsent
		tp.retries[i] = 0
		tp.due[i] = 0
	}
	for i := range tp.rbits {
		tp.rbits[i] = 0
	}
	for i := range tp.slotHead {
		tp.slotHead[i] = -1
	}
	tp.wheap = tp.wheap[:0]
	for f := range tp.base {
		tp.base[f], tp.next[f], tp.rbase[f] = 0, 0, 0
		tp.gap[f] = tp.cfg.MinGap
		tp.nextSend[f] = 0
		tp.cleanAcks[f] = 0
		tp.dupAcks[f] = 0
		tp.lastCut[f] = tp.epoch - tp.cfg.RTO
		tp.wake[f] = -1
		if tp.off[f+1] > tp.off[f] {
			t := tp.epoch + int64(tp.n.trace.Packets[tp.pkt[tp.off[f]]].Arrival)
			if t <= tp.epoch {
				t = tp.epoch + 1
			}
			tp.schedule(int32(f), t)
		}
	}
	return nil
}

// schedule arms flow f's wheel wake at tick t (keeping an existing
// earlier one; an existing later one is unlinked first, so each flow
// lives in at most one slot). Wakes beyond the wheel's span clamp and
// re-arm on fire.
func (tp *Transport) schedule(f int32, t int64) {
	now := tp.n.now
	if t <= now {
		t = now + 1
	}
	if t-now > tp.mask {
		t = now + tp.mask
	}
	if w := tp.wake[f]; w != -1 {
		if w <= t {
			return
		}
		tp.unlink(f, w)
	}
	tp.wake[f] = t
	idx := t & tp.mask
	tp.nextF[f] = tp.slotHead[idx]
	tp.slotHead[idx] = f
	tp.wheap = append(tp.wheap, flowWake{at: t, f: f})
	siftUpWake(tp.wheap)
}

// flowWake is one wake-heap entry: flow f claims a wake at tick at. The
// claim is live only while wake[f] == at.
type flowWake struct {
	at int64
	f  int32
}

func siftUpWake(h []flowWake) {
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDownWake(h []flowWake) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// peekWake reports the tick of the earliest armed wheel wake, or -1 when
// no flow is scheduled — the transport's contribution to the event
// core's next-event calculation. Stale heap entries (superseded by a
// reschedule or already fired) are pruned as they surface.
func (tp *Transport) peekWake() int64 {
	for len(tp.wheap) > 0 {
		top := tp.wheap[0]
		if tp.wake[top.f] == top.at {
			return top.at
		}
		last := len(tp.wheap) - 1
		tp.wheap[0] = tp.wheap[last]
		tp.wheap = tp.wheap[:last]
		siftDownWake(tp.wheap)
	}
	return -1
}

// unlink removes flow f from the slot its wake at tick w lives in.
func (tp *Transport) unlink(f int32, w int64) {
	idx := w & tp.mask
	p := tp.slotHead[idx]
	if p == f {
		tp.slotHead[idx] = tp.nextF[f]
		return
	}
	for p != -1 {
		q := tp.nextF[p]
		if q == f {
			tp.nextF[p] = tp.nextF[f]
			return
		}
		p = q
	}
}

// tick services every flow whose wake fires now.
func (tp *Transport) tick() {
	now := tp.n.now
	idx := now & tp.mask
	f := tp.slotHead[idx]
	tp.slotHead[idx] = -1
	for f != -1 {
		nf := tp.nextF[f]
		if tp.wake[f] == now {
			tp.wake[f] = -1
			tp.service(f)
		} else if tp.wake[f] != -1 {
			// A wake one wheel revolution out (cannot happen with the
			// clamp, kept for safety): put it back.
			i2 := tp.wake[f] & tp.mask
			tp.nextF[f] = tp.slotHead[i2]
			tp.slotHead[i2] = f
		}
		f = nf
	}
}

// splitmix64 is the jitter hash (Steele et al.'s SplitMix64 finalizer).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deadline is the retransmit wait after try r (0 = first send):
// exponential backoff capped at RTOMax, plus deterministic per-(flow,
// seq, retry) jitter in [0, RTO/2] to desynchronize flows that lost
// packets on the same tick.
func (tp *Transport) deadline(f, s int32, r uint8) int64 {
	d := tp.cfg.RTO << r
	if d <= 0 || d > tp.cfg.RTOMax {
		d = tp.cfg.RTOMax
	}
	h := splitmix64(uint64(tp.cfg.Seed) ^ uint64(uint32(f))<<32 ^ uint64(uint32(s))<<8 ^ uint64(r))
	return d + int64(h%uint64(tp.cfg.RTO/2+1))
}

// cut is the multiplicative decrease: double the pacing gap, at most
// once per RTO per flow (a burst of timeouts or ECN echoes is one
// congestion event, not many).
func (tp *Transport) cut(f int32) {
	now := tp.n.now
	if now-tp.lastCut[f] < tp.cfg.RTO {
		return
	}
	tp.lastCut[f] = now
	tp.cleanAcks[f] = 0
	g := tp.gap[f] * 2
	if g > tp.cfg.MaxGap {
		g = tp.cfg.MaxGap
	}
	tp.gap[f] = g
	tp.rateCuts++
	tp.cutsC.Inc()
	tp.gapH.Observe(g)
}

func (tp *Transport) size(gi int32) int64 {
	return int64(tp.n.trace.Packets[tp.pkt[gi]].Size)
}

// send injects one copy of flow f's packet s: the trace fields, the
// sequence number and the end-to-end checksum (over exactly the fields
// no switch program writes, so it survives any pipeline).
func (tp *Transport) send(f, s int32, retrans bool) {
	p := &tp.n.trace.Packets[tp.pkt[tp.off[f]+s]]
	host := tp.n.traceHost[p.Src]
	w := host.leaf
	h := w.sw.Machine().AcquireHeader()
	in := &w.in
	stamp(h, in.sport, p.Sport)
	stamp(h, in.dport, p.Dport)
	stamp(h, in.arrival, int32(uint32(tp.n.now)))
	stamp(h, in.src, p.Src)
	stamp(h, in.dst, p.Dst)
	stamp(h, in.size, p.Size)
	stamp(h, in.flow, p.Flow)
	stamp(h, in.seq, s)
	stamp(h, in.csum, csumOf(p.Sport, p.Dport, p.Src, p.Dst, p.Flow, s, 0, 0, 0))
	sz := int64(p.Size)
	if retrans {
		tp.retransPkts++
		tp.retransBytes += sz
	} else {
		tp.offeredPkts++
		tp.offeredBytes += sz
		tp.outPkts++
		tp.outBytes += sz
		tp.sent[tp.off[f]+s] = tp.n.now
	}
	tp.n.inject(w, h, sz)
}

// service runs flow f's sender: fire due retransmits (or give up),
// then fresh sends as window, pacing and packet availability allow,
// then re-arm the wheel for the earliest future event.
func (tp *Transport) service(f int32) {
	now := tp.n.now
	off := tp.off[f]
	npk := tp.off[f+1] - off
	// Due retransmits first: they hold the oldest window slots.
	for s := tp.base[f]; s < tp.next[f]; s++ {
		gi := off + s
		if tp.pstate[gi] != stOutstanding || tp.due[gi] > now {
			continue
		}
		if int(tp.retries[gi]) >= tp.cfg.MaxRetries {
			tp.pstate[gi] = stGivenUp
			tp.givenUpPkts++
			tp.givenUpBytes += tp.size(gi)
			tp.outPkts--
			tp.outBytes -= tp.size(gi)
			tp.resolved++
			tp.retriesH.Observe(int64(tp.retries[gi]))
			continue
		}
		tp.retries[gi]++
		tp.due[gi] = now + tp.deadline(f, s, tp.retries[gi])
		tp.send(f, s, true)
		tp.cut(f) // a timeout is a congestion signal
	}
	tp.advanceBase(f)
	// Fresh sends.
	for tp.next[f] < npk && tp.next[f]-tp.base[f] < tp.cfg.Window &&
		tp.nextSend[f] <= now && tp.arrival(f, tp.next[f]) <= now {
		s := tp.next[f]
		gi := off + s
		tp.pstate[gi] = stOutstanding
		tp.retries[gi] = 0
		tp.due[gi] = now + tp.deadline(f, s, 0)
		tp.send(f, s, false)
		tp.next[f] = s + 1
		tp.nextSend[f] = now + tp.gap[f]
	}
	tp.rearm(f)
}

// arrival is packet s's earliest send tick (trace arrival, epoch-shifted
// after a Reset).
func (tp *Transport) arrival(f, s int32) int64 {
	return tp.epoch + int64(tp.n.trace.Packets[tp.pkt[tp.off[f]+s]].Arrival)
}

// rearm schedules flow f's next wake: the earliest retransmit deadline,
// or the next fresh send (pacing- or arrival-gated) when the window has
// room. A window-full flow with no outstanding deadline needs no wake —
// an ACK will service it directly.
func (tp *Transport) rearm(f int32) {
	now := tp.n.now
	off := tp.off[f]
	npk := tp.off[f+1] - off
	at := int64(-1)
	for s := tp.base[f]; s < tp.next[f]; s++ {
		gi := off + s
		if tp.pstate[gi] == stOutstanding && (at < 0 || tp.due[gi] < at) {
			at = tp.due[gi]
		}
	}
	if tp.next[f] < npk && tp.next[f]-tp.base[f] < tp.cfg.Window {
		t := tp.nextSend[f]
		if a := tp.arrival(f, tp.next[f]); a > t {
			t = a
		}
		if t <= now {
			t = now + 1
		}
		if at < 0 || t < at {
			at = t
		}
	}
	if at >= 0 {
		tp.schedule(f, at)
	}
}

func (tp *Transport) advanceBase(f int32) {
	off := tp.off[f]
	for tp.base[f] < tp.next[f] {
		st := tp.pstate[off+tp.base[f]]
		if st != stAcked && st != stGivenUp {
			break
		}
		tp.base[f]++
	}
}

// ackOne resolves one outstanding packet as acknowledged.
func (tp *Transport) ackOne(gi int32) {
	if tp.pstate[gi] != stOutstanding {
		return // unsent, already acked, or given up (sticky)
	}
	tp.pstate[gi] = stAcked
	tp.ackedPkts++
	tp.ackedBytes += tp.size(gi)
	tp.outPkts--
	tp.outBytes -= tp.size(gi)
	tp.resolved++
	tp.resolveSum += tp.n.now - tp.sent[gi]
	tp.retriesH.Observe(int64(tp.retries[gi]))
	if tp.retries[gi] == 0 {
		tp.rttH.Observe(tp.n.now - tp.sent[gi])
	}
}

// onAck applies an arriving ACK at the sender: cumulative ack below
// ackTo, selective ack of the echoed sequence, AIMD reaction to the
// echoed ECN bit, then an immediate service pass so the freed window
// refills this tick.
func (tp *Transport) onAck(f, ackTo, echo int32, ecn bool) {
	off := tp.off[f]
	npk := tp.off[f+1] - off
	if ackTo > npk {
		ackTo = npk
	}
	oldBase := tp.base[f]
	for s := tp.base[f]; s < ackTo && s < tp.next[f]; s++ {
		tp.ackOne(off + s)
	}
	if echo >= 0 && echo < npk {
		tp.ackOne(off + echo)
	}
	tp.advanceBase(f)
	if tp.base[f] > oldBase {
		tp.dupAcks[f] = 0
	} else if k := tp.cfg.FastRetransmit; k > 0 && tp.base[f] < tp.next[f] &&
		ackTo <= tp.base[f] && echo > tp.base[f] {
		// The frontier is stuck while the sink selectively acks past it:
		// SACK-gap evidence the base packet is lost, not merely late. k
		// such ACKs trigger an immediate resend — a reorder window shorter
		// than k data packets only stalls the frontier briefly and never
		// accumulates k duplicates, so reordering costs a gap, not a
		// retransmit storm.
		gi := off + tp.base[f]
		if tp.pstate[gi] == stOutstanding {
			tp.dupAcks[f]++
			if int(tp.dupAcks[f]) >= k {
				tp.dupAcks[f] = 0
				if int(tp.retries[gi]) < tp.cfg.MaxRetries {
					tp.retries[gi]++
					tp.due[gi] = tp.n.now + tp.deadline(f, tp.base[f], tp.retries[gi])
					tp.fastRetransPkts++
					tp.send(f, tp.base[f], true)
					tp.cut(f) // fast retransmit is still a congestion signal
				}
			}
		}
	}
	if ecn {
		tp.cut(f)
	} else {
		tp.cleanAcks[f]++
		if tp.cleanAcks[f] >= cleanAcksPerInc {
			tp.cleanAcks[f] = 0
			if tp.gap[f] > tp.cfg.MinGap {
				tp.gap[f]-- // additive increase of the send rate
			}
		}
	}
	tp.service(f)
}

// onData runs receiver-side duplicate suppression: it reports whether
// flow f's packet s is accepted (first copy) and advances the
// cumulative-ack frontier.
func (tp *Transport) onData(f, s int32) bool {
	gi := uint32(tp.off[f] + s)
	if tp.rbits[gi>>6]&(1<<(gi&63)) != 0 {
		return false
	}
	tp.rbits[gi>>6] |= 1 << (gi & 63)
	npk := tp.off[f+1] - tp.off[f]
	for tp.rbase[f] < npk {
		bi := uint32(tp.off[f] + tp.rbase[f])
		if tp.rbits[bi>>6]&(1<<(bi&63)) == 0 {
			break
		}
		tp.rbase[f]++
	}
	return true
}

// cumAck is flow f's cumulative-ack frontier: every seq below it has
// been accepted at the sink.
func (tp *Transport) cumAck(f int32) int32 { return tp.rbase[f] }

// csumSalt keeps the all-zero header from checksumming to zero.
const csumSalt = 0x5ca1ab1e

// csumOf is the end-to-end checksum over the transport-relevant fields —
// exactly the ones no switch program writes, so the value stamped at
// injection is the value read at the sink on any path.
func csumOf(sport, dport, src, dst, flow, seq, fb, ack, ecn int32) int32 {
	return sport ^ dport ^ src ^ dst ^ flow ^ seq ^ fb ^ ack ^ ecn ^ csumSalt
}

// admit is the sink-side end-to-end validation in transport mode: the
// flow must exist, the checksum must match, the sequence must be in the
// flow's range, and the packet must have reached the host the flow
// names (a scrambled out_port is invisible to checksums — the identity
// check is what catches misdelivery). Failures are corruption drops.
func (tp *Transport) admit(h *Host, l *link, hd banzai.Header) bool {
	flow := hd[l.rFlow]
	if flow < 0 || int(flow) >= len(tp.flowSrc) {
		return false
	}
	fb := hd[l.rFb]
	seq := hd[l.rSeq]
	if csumOf(hd[l.rSport], hd[l.rDport], hd[l.rSrc], hd[l.rDst], flow, seq,
		fb, hd[l.rFbAck], hd[l.rFbEcn]) != hd[l.rCsum] {
		return false
	}
	npk := tp.off[flow+1] - tp.off[flow]
	if seq < 0 || seq >= npk {
		return false
	}
	if fb != 0 {
		return tp.flowSrc[flow] == h.traceIdx
	}
	return tp.flowDst[flow] == h.traceIdx
}
