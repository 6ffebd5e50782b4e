package main

import (
	"fmt"
	"time"

	"domino/internal/algorithms"
	"domino/internal/netsim"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

// chaosWorkload: the reliable transport and the fault model do most of
// the work — the raw replay path of leafspine-dense runs neither. The
// routing programs are compiled once in set-up; every repetition then
// builds fresh 4x2 fabrics, one per seeded fault schedule, because a
// fault schedule can only be installed before a fabric's first tick.
type chaosWorkload struct {
	trace *workload.NetTrace
	progs []*compiled
	stats compileStats
	last  setupTimes

	// The fixed block: fixedReps blocks of chaosPerBlock schedules.
	tot       netsim.NetTotals
	tt        netsim.TransportTotals
	ackTicks  float64 // Σ mean-ack-ticks × acked, for the pooled mean
	events    int64
	schedules int64
	hops      int64
	fcts      []int64
	busy      time.Duration
	pending   []pendingCheck
}

// pendingCheck is one schedule's verdict, held until finish files it.
type pendingCheck struct {
	n   int64
	err error
}

const (
	chLeaves, chSpines, chHostsPerLeaf = 4, 2, 2
	chaosPerBlock                      = 36 // × fixedReps ≈ 400 schedules
	chaosHorizon                       = 2000
	chaosDrainTicks                    = 1 << 20
)

func (w *chaosWorkload) setupReps() int { return 3 }

// cycle: the blocks differ in how hard their schedules are, so the rate
// is taken over all fixedReps of them.
func (w *chaosWorkload) cycle() int { return fixedReps }

// generate makes netsim's default leaf-spine experiment traffic: a
// cross-leaf permutation, two bursty flows of 64 packets per host.
func (w *chaosWorkload) generate(e *env) {
	perm := workload.CrossLeafPermutation(e.seed, chLeaves, chHostsPerLeaf)
	pairs := make([][2]int, len(perm))
	for h, p := range perm {
		pairs[h] = [2]int{h, p}
	}
	w.trace = workload.HostPairTrace(e.seed, pairs, 2, e.scaled(64, 4), fabPktBytes, 8, 40)
}

func (w *chaosWorkload) perBlock(e *env) int { return e.scaled(chaosPerBlock, 1) }

func (w *chaosWorkload) setup(e *env, pass int) (setupTimes, error) {
	var st setupTimes
	var srcs []source
	params := algorithms.RouteParams{Leaves: chLeaves, Spines: chSpines, HostsPerLeaf: chHostsPerLeaf, ECN: true}
	for l := 0; l < chLeaves; l++ {
		params.LeafID = l
		text, err := algorithms.FlowletRouteSource(params)
		if err != nil {
			return st, err
		}
		srcs = append(srcs, source{name: "flowlet_route", text: text})
	}
	params.LeafID = 0
	text, err := algorithms.SpineRouteSource(params)
	if err != nil {
		return st, err
	}
	srcs = append(srcs, source{name: "spine_route", text: text})

	w.stats = compileStats{}
	t := time.Now()
	if w.progs, err = compileSet(e, srcs, pass, &w.stats); err != nil {
		return st, err
	}
	st.compile = w.stats.total()
	for _, c := range w.progs {
		if c.prog == nil {
			return st, fmt.Errorf("%s: rejected on every target", c.src.name)
		}
	}

	// Build and warm-up are one throw-away schedule: its fabric cannot
	// be kept, so the split is the build inside it against the rest.
	t = time.Now()
	fab, err := w.wire(e.tr, nil, nil)
	if err != nil {
		return st, err
	}
	st.build = time.Since(t)
	t = time.Now()
	if _, err := w.schedule(e, fab, -1, nil); err != nil {
		return st, err
	}
	st.warm = time.Since(t)
	w.last = st
	w.tot, w.tt = netsim.NetTotals{}, netsim.TransportTotals{}
	w.ackTicks, w.events, w.schedules, w.hops, w.fcts, w.busy, w.pending = 0, 0, 0, 0, nil, 0, nil
	return st, nil
}

func (w *chaosWorkload) wire(tr *tracer, sink telemetry.Sink, ring *telemetry.Ring) (*fabric, error) {
	id := tr.begin("netsim.NewLeafSpine")
	ls, err := netsim.NewLeafSpine(netsim.LeafSpineConfig{
		Leaves: chLeaves, Spines: chSpines, HostsPerLeaf: chHostsPerLeaf,
		LeafProgram:        progFunc(w.progs, func(l int) int { return l }),
		SpineProgram:       progFunc(w.progs, func(int) int { return chLeaves }),
		UplinkBytesPerTick: fabUplink, DownlinkBytesPerTick: fabDownlink,
		QueueCapBytes: fabQueueCap, RouteField: algorithms.RouteOutPort,
		Telemetry: sink, Trace: ring,
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	sw := append(append([]netsim.NodeID(nil), ls.Spines...), ls.Leaves...)
	return &fabric{net: ls.Net, hosts: ls.Hosts, switches: sw}, nil
}

// schedule runs fault schedule idx on a fresh fabric: trace, reliable
// transport, faults, run through the fault horizon, heal, drain. idx < 0
// runs fault-free. It returns the transport so the caller can check it.
func (w *chaosWorkload) schedule(e *env, fab *fabric, idx int, events *int64) (*netsim.Transport, error) {
	net, tr := fab.net, e.tr
	id := tr.begin("netsim.SetTrace")
	err := net.SetTrace(w.trace, fab.hosts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("netsim.EnableTransport")
	tp, err := net.EnableTransport(netsim.TransportConfig{Seed: e.seed})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if idx >= 0 {
		id = tr.begin("netsim.SetFaults")
		sched := net.RandomFaults(e.seed+int64(idx), chaosHorizon)
		err = net.SetFaults(sched)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if events != nil {
			*events += int64(len(sched.Events))
		}
	}
	id = tr.begin("netsim.Run")
	err = net.Run(chaosHorizon)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	net.ClearFaults()
	id = tr.begin("netsim.Drain")
	err = net.Drain(chaosDrainTicks)
	tr.end(id)
	return tp, err
}

// rep runs one block of schedules, each on its own fabric, and completes
// the packets sinks accepted exactly once (goodput: retransmitted copies
// and ACKs do not count). Blocks cycle, so repetition i and i+fixedReps
// do identical work.
func (w *chaosWorkload) rep(e *env, i int) (int64, time.Duration, error) {
	block := i % fixedReps
	var pkts int64
	var busy time.Duration
	for j := 0; j < w.perBlock(e); j++ {
		idx := block*w.perBlock(e) + j
		var events int64
		t := time.Now()
		fab, err := w.wire(e.tr, nil, nil)
		if err != nil {
			return 0, 0, err
		}
		tp, err := w.schedule(e, fab, idx, &events)
		if err != nil {
			return 0, 0, fmt.Errorf("schedule %d: %w", idx, err)
		}
		d := time.Since(t)
		busy += d
		tot := fab.net.Totals()
		pkts += tot.AcceptedPkts
		if err := w.account(e, fab, tp, idx, events, d, i < fixedReps); err != nil {
			return 0, 0, err
		}
	}
	return pkts, busy, nil
}

// account checks one finished schedule and, for the fixed block, pools
// its counters. It runs outside the timed part of rep.
func (w *chaosWorkload) account(e *env, fab *fabric, tp *netsim.Transport, idx int, events int64, d time.Duration, pool bool) error {
	s, err := fab.snap()
	if err != nil {
		return err
	}
	tt := tp.Totals()
	if pool {
		w.busy += d
		w.schedules++
		w.events += events
		w.hops += s.hops
		w.ackTicks += tp.MeanAckTicks() * float64(tt.AckedPkts)
		addTotals(&w.tot, s.tot)
		addTransport(&w.tt, tt)
		for _, fct := range fab.net.FlowFCTs() {
			if fct >= 0 {
				w.fcts = append(w.fcts, fct)
			}
		}
	}

	id := e.tr.begin("netsim.CheckConservation")
	err = fab.net.CheckConservation()
	e.tr.end(id)
	if err == nil {
		switch live := fab.net.LiveHeaders(); {
		case live != 0:
			err = fmt.Errorf("%d headers leaked", live)
		case tt.OutstandingPkts != 0:
			err = fmt.Errorf("%d packets still outstanding after the drain", tt.OutstandingPkts)
		case tt.AckedPkts+tt.GivenUpPkts != tt.OfferedPkts:
			err = fmt.Errorf("acked %d + given up %d != offered %d", tt.AckedPkts, tt.GivenUpPkts, tt.OfferedPkts)
		case s.tot.AcceptedPkts < tt.AckedPkts || s.tot.AcceptedPkts > tt.OfferedPkts:
			err = fmt.Errorf("accepted %d outside [acked %d, offered %d]", s.tot.AcceptedPkts, tt.AckedPkts, tt.OfferedPkts)
		}
	}
	if err != nil {
		err = fmt.Errorf("schedule %d (fault seed %d): %w", idx, e.seed+int64(idx), err)
	}
	w.pending = append(w.pending, pendingCheck{n: tt.OfferedPkts, err: err})
	return nil
}

func (w *chaosWorkload) finish(e *env, r *result) error {
	d := newDigest()
	d.netTrace(w.trace)
	r.TraceDigest = d.String()
	for _, c := range w.pending {
		r.check(c.n, c.err)
	}
	fctStats(r, w.fcts)
	r.EndToEnd["sim_retrans_share"] = single("share", float64(w.tt.RetransPkts)/float64(w.tt.OfferedPkts))

	if m := r.PerLayer; m != nil {
		m["transport.retrans_pkts"] = float64(w.tt.RetransPkts)
		m["transport.fast_retrans_pkts"] = float64(w.tt.FastRetransPkts)
		m["transport.dup_dropped_pkts"] = float64(w.tot.DupDroppedPkts)
		m["transport.given_up_pkts"] = float64(w.tt.GivenUpPkts)
		m["transport.rate_cuts"] = float64(w.tt.RateCuts)
		m["transport.mean_ack_ticks"] = w.ackTicks / float64(w.tt.AckedPkts)
		m["faults.schedules"] = float64(w.schedules)
		m["faults.events"] = float64(w.events)
		m["faults.blackholed_pkts"] = float64(w.tot.BlackholedPkts)
		m["faults.corrupt_dropped_pkts"] = float64(w.tot.CorruptDroppedPkts)
		m["netsim.hops"] = float64(w.hops)
		m["netsim.delivered_pkts"] = float64(w.tot.AcceptedPkts)
		m["netsim.fb_pkts"] = float64(w.tot.FbDeliveredPkts)
		m["netsim.dropped_pkts"] = float64(w.tot.DroppedPkts)
		m["ladder.fabric_ns_per_hop"] = float64(w.busy.Nanoseconds()) / float64(w.hops)
		m["ladder.harness_ns_per_hop"] = m["ladder.fabric_ns_per_hop"] - m["ladder.switch_ns_per_hop"]
	}
	return nil
}

func (w *chaosWorkload) layers(e *env, r *result) error {
	if err := probeMachines(e.tr, w.progs, &w.stats); err != nil {
		return err
	}
	w.stats.layerMetrics(r.PerLayer)
	m := r.PerLayer
	m["netsim.compile_s"] = w.last.compile.Seconds()
	m["netsim.build_s"] = w.last.build.Seconds()

	var err error
	m["ladder.banzai_ns_per_hop"], m["ladder.switch_ns_per_hop"], err = ladder(e.tr, w.progs[0], chSpines+chHostsPerLeaf, w.trace.Packets)
	if err != nil {
		return err
	}

	// What reliability costs on a healthy fabric: the same trace replayed
	// raw and through the transport, no faults, per accepted packet.
	perAccept := func(reliable bool) (float64, error) {
		rate, err := medianRate(func() (int64, time.Duration, error) {
			fab, err := w.wire(e.tr, nil, nil)
			if err != nil {
				return 0, 0, err
			}
			t := time.Now()
			if reliable {
				_, err = w.schedule(e, fab, -1, nil)
			} else {
				if err = fab.net.SetTrace(w.trace, fab.hosts); err == nil {
					err = fab.net.Drain(chaosDrainTicks)
				}
			}
			return fab.net.Totals().AcceptedPkts, time.Since(t), err
		})
		return 1e9 / rate, err
	}
	raw, err := perAccept(false)
	if err != nil {
		return err
	}
	reliable, err := perAccept(true)
	if err != nil {
		return err
	}
	m["transport.self_ns_per_accept"] = reliable - raw

	// Block 0 again, with and without a registry and an event ring.
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(4096, 16, uint64(e.seed))
	block := func(sink telemetry.Sink, ring *telemetry.Ring) (float64, error) {
		t := time.Now()
		for j := 0; j < w.perBlock(e); j++ {
			fab, err := w.wire(e.tr, sink, ring)
			if err != nil {
				return 0, err
			}
			if _, err := w.schedule(e, fab, j, nil); err != nil {
				return 0, err
			}
		}
		return time.Since(t).Seconds(), nil
	}
	var onS, offS []float64
	for i := 0; i < 3; i++ {
		on, err := block(reg, ring)
		if err != nil {
			return err
		}
		off, err := block(nil, nil)
		if err != nil {
			return err
		}
		onS, offS = append(onS, on), append(offS, off)
	}
	m["telemetry.on_ratio"] = summarize("", onS).Median / summarize("", offS).Median
	m["telemetry.qdepth_p99_bytes"] = float64(mergedQuantile(reg, ".qdepth_bytes.", 0.99))
	m["telemetry.rtt_p99_ticks"] = float64(reg.Histogram("tp.rtt_ticks").Quantile(0.99))
	return nil
}

func addTotals(a *netsim.NetTotals, b netsim.NetTotals) {
	a.InjectedPkts += b.InjectedPkts
	a.DeliveredPkts += b.DeliveredPkts
	a.DroppedPkts += b.DroppedPkts
	a.BlackholedPkts += b.BlackholedPkts
	a.CorruptDroppedPkts += b.CorruptDroppedPkts
	a.AcceptedPkts += b.AcceptedPkts
	a.DupDroppedPkts += b.DupDroppedPkts
	a.FbDeliveredPkts += b.FbDeliveredPkts
}

func addTransport(a *netsim.TransportTotals, b netsim.TransportTotals) {
	a.OfferedPkts += b.OfferedPkts
	a.RetransPkts += b.RetransPkts
	a.AckedPkts += b.AckedPkts
	a.GivenUpPkts += b.GivenUpPkts
	a.RateCuts += b.RateCuts
	a.FastRetransPkts += b.FastRetransPkts
}
