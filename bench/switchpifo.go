package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"domino/internal/algorithms"
	"domino/internal/banzai"
	"domino/internal/pifo"
	"domino/internal/switchsim"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

// switchWorkload: one switch, where pifo and switchsim do most of the
// work at the smallest packets, so per-packet cost dominates; the
// compiler and the fabric do none of pkts_per_s. Offered load is 1.25x
// the aggregate service rate into bounded queues, so every PIFO stays a
// few hundred entries deep (a push or pop costs a real heap walk) and a
// steady fifth of the arrivals tail-drop.
type switchWorkload struct {
	progs []*compiled
	stats compileStats
	sw    *switchsim.Switch
	hs    []banzai.Header
	dig   string

	base, fixed switchsim.Totals // after the warm-up, after the fixed block
	minDepth    int64            // shallowest port queue seen at a repetition's end
	shareErr    float64
}

const (
	swPorts     = 4
	swPktBytes  = 256
	swService   = 2 * swPktBytes   // two packets per port per tick: eight in all
	swPerTick   = 10               // injected per tick: 1.25x of eight
	swQueueCap  = 256 * swPktBytes // 256 entries per port
	swPasses    = 4                // trace passes per repetition
	swFairTick  = 20               // injected per tick in the fairness replay: 2.5x
	swFairWarm  = 256              // ticks before the fairness window opens
	swMinDepth  = 128
	swShareTol  = 0.10
	swDropLo    = 0.10
	swDropHi    = 0.30
	swSpanBatch = 4096
)

var swTenants = []workload.TenantSpec{{Weight: 1, Flows: 4}, {Weight: 2, Flows: 4}, {Weight: 4, Flows: 4}}

func (w *switchWorkload) setupReps() int  { return 3 }
func (w *switchWorkload) cycle() int      { return 1 }
func (w *switchWorkload) generate(e *env) {}

func stfqTree(sink telemetry.Sink) (*pifo.Tree, error) {
	spec, err := pifo.NamedSpec("stfq_rank")
	if err != nil {
		return nil, err
	}
	tree := pifo.Flat(spec)
	tree.Telemetry = sink
	return tree, nil
}

// newSwitch builds the 4-port switch around the compiled ingress. sched
// nil means FIFO ports.
func (w *switchWorkload) newSwitch(tr *tracer, sched switchsim.Scheduler, capBytes int64, sink telemetry.Sink, ring *telemetry.Ring) (*switchsim.Switch, error) {
	id := tr.begin("switchsim.New")
	defer tr.end(id)
	return switchsim.New(w.progs[0].prog, switchsim.Config{
		Ports:               swPorts,
		ServiceBytesPerTick: swService,
		QueueCapBytes:       capBytes,
		Scheduler:           sched,
		Telemetry:           sink,
		Trace:               ring,
	})
}

func (w *switchWorkload) setup(e *env, pass int) (setupTimes, error) {
	var st setupTimes
	stfq, err := algorithms.SchedulerByName("stfq_rank")
	if err != nil {
		return st, err
	}
	srcs := []source{
		{name: "sched_ingress", text: algorithms.SchedIngress},
		// The switch compiles its own copy of the rank transaction per
		// port inside pifo (that is build time); this one is the
		// compile the workload is charged for and checked on.
		{name: stfq.Name, text: stfq.Source, outputs: []string{stfq.RankField}},
	}
	w.stats = compileStats{}
	t := time.Now()
	if w.progs, err = compileSet(e, srcs, pass, &w.stats); err != nil {
		return st, err
	}
	st.compile = w.stats.total()

	t = time.Now()
	tree, err := stfqTree(nil)
	if err != nil {
		return st, err
	}
	if w.sw, err = w.newSwitch(e.tr, tree, swQueueCap, nil, nil); err != nil {
		return st, err
	}
	st.build = time.Since(t)

	t = time.Now()
	w.hs, _ = workload.MultiTenantTraceHeaders(w.sw.Machine().Layout(), e.seed, swTenants, e.scaled(64<<10, 2*swSpanBatch), swPerTick)
	d := newDigest()
	for _, h := range w.hs {
		d.int32s(h)
	}
	w.dig = d.String()
	st.gen = time.Since(t)

	t = time.Now()
	if _, _, err := drive(e.tr, w.sw, w.hs, swPktBytes, swPerTick, nil); err != nil {
		return st, err
	}
	st.warm = time.Since(t)
	w.base = w.sw.Totals()
	w.minDepth = math.MaxInt64
	return st, nil
}

// drive injects hs into sw as pktBytes-sized packets, perTick per tick, and returns the
// packets that departed and the host time taken. onDepart, when set,
// sees each departing header before it is recycled.
func drive(tr *tracer, sw *switchsim.Switch, hs []banzai.Header, pktBytes int64, perTick int, onDepart func(qh switchsim.QueuedHeader)) (int64, time.Duration, error) {
	m := sw.Machine()
	var departed int64
	emit := func(port int, qh switchsim.QueuedHeader) {
		departed++
		if onDepart != nil {
			onDepart(qh)
		}
		m.ReleaseHeader(qh.H)
	}
	n := 0
	t := time.Now()
	for off := 0; off < len(hs); off += swSpanBatch {
		id := tr.begin("switchsim.InjectH/TickFunc")
		for _, src := range hs[off:min(off+swSpanBatch, len(hs))] {
			h := m.AcquireHeader()
			copy(h, src)
			if _, _, err := sw.InjectH(h, pktBytes); err != nil {
				tr.end(id)
				return 0, 0, err
			}
			if n++; n == perTick {
				n = 0
				sw.TickFunc(emit)
			}
		}
		tr.end(id)
	}
	return departed, time.Since(t), nil
}

func (w *switchWorkload) rep(e *env, i int) (int64, time.Duration, error) {
	var pkts int64
	var busy time.Duration
	for p := 0; p < swPasses; p++ {
		n, d, err := drive(e.tr, w.sw, w.hs, swPktBytes, swPerTick, nil)
		if err != nil {
			return 0, 0, err
		}
		pkts += n
		busy += d
	}
	if i < fixedReps {
		for _, ps := range w.sw.Stats() {
			w.minDepth = min(w.minDepth, ps.QueueBytes/swPktBytes)
		}
	}
	if i == fixedReps-1 {
		w.fixed = w.sw.Totals()
	}
	return pkts, busy, nil
}

func (w *switchWorkload) finish(e *env, r *result) error {
	r.TraceDigest = w.dig
	tot := w.sw.Totals()
	r.check(tot.InjectedPkts, w.sw.CheckConservation())

	for _, c := range w.progs {
		var err error
		if c.prog == nil {
			err = fmt.Errorf("%s: rejected on every target", c.src.name)
		}
		r.check(1, err)
	}

	// The regime the workload promises: deep PIFOs and a steady drop
	// share. Outside it the numbers measure something else.
	injected := w.fixed.InjectedPkts - w.base.InjectedPkts
	dropped := w.fixed.DroppedPkts - w.base.DroppedPkts
	share := float64(dropped) / float64(injected)
	r.EndToEnd["sim_drop_share"] = single("share", share)
	var err error
	if share < swDropLo || share > swDropHi {
		err = fmt.Errorf("drop share %.3f outside [%.2f, %.2f]", share, swDropLo, swDropHi)
	}
	r.check(1, err)
	err = nil
	if w.minDepth < swMinDepth {
		err = fmt.Errorf("a port queue fell to %d entries, below %d", w.minDepth, swMinDepth)
	}
	r.check(swPorts, err)

	if err := w.fairness(r); err != nil {
		return err
	}
	if r.PerLayer != nil {
		var maxDepth int64
		for _, ps := range w.sw.Stats() {
			maxDepth = max(maxDepth, ps.MaxDepth)
		}
		r.PerLayer["pifo.max_depth"] = float64(maxDepth)
		r.PerLayer["pifo.share_err"] = w.shareErr
		r.PerLayer["switchsim.enqueues"] = float64(injected - dropped)
		r.PerLayer["switchsim.drops"] = float64(dropped)
		r.PerLayer["switchsim.departures"] = float64(w.fixed.DepartedPkts - w.base.DepartedPkts)
	}
	return nil
}

// fairness replays the trace through a fresh, lossless switch at 2.5x
// the service rate — every tenant offers more than its weighted share,
// the regime weighted fair queueing is defined on — and checks the
// departed-byte shares against the weights. The measured switch cannot
// show this: behind a tenant-blind tail drop, long-run shares follow
// admission, not the scheduler.
func (w *switchWorkload) fairness(r *result) error {
	tree, err := stfqTree(nil)
	if err != nil {
		return err
	}
	sw, err := w.newSwitch(nil, tree, 1<<40, nil, nil)
	if err != nil {
		return err
	}
	l := sw.Machine().Layout()
	slot, ok := l.OutputSlot("tenant")
	if !ok {
		if slot, ok = l.Slot("tenant"); !ok {
			return fmt.Errorf("ingress layout has no tenant field")
		}
	}
	bytes := make([]int64, len(swTenants))
	if _, _, err := drive(nil, sw, w.hs, swPktBytes, swFairTick, func(qh switchsim.QueuedHeader) {
		if sw.Now() >= swFairWarm {
			bytes[qh.H[slot]] += qh.Size
		}
	}); err != nil {
		return err
	}
	var total, weights int64
	for i, b := range bytes {
		total += b
		weights += int64(swTenants[i].Weight)
	}
	w.shareErr = 0
	for i, b := range bytes {
		got := float64(b) / float64(total)
		want := float64(swTenants[i].Weight) / float64(weights)
		rel := math.Abs(got/want - 1)
		w.shareErr = max(w.shareErr, rel)
		var err error
		if !(rel <= swShareTol) {
			err = fmt.Errorf("tenant %d (weight %d): departed share %.4f, want %.4f within %.0f%%",
				i, swTenants[i].Weight, got, want, 100*swShareTol)
		}
		r.check(1, err)
	}
	return nil
}

// nsPerPkt is the median host time per injected packet of driving hs
// through sw.
func nsPerPkt(tr *tracer, sw *switchsim.Switch, hs []banzai.Header) (float64, error) {
	rate, err := medianRate(func() (int64, time.Duration, error) {
		_, d, err := drive(tr, sw, hs, swPktBytes, swPerTick, nil)
		return int64(len(hs)), d, err
	})
	return 1e9 / rate, err
}

func (w *switchWorkload) layers(e *env, r *result) error {
	if err := probeMachines(e.tr, w.progs, &w.stats); err != nil {
		return err
	}
	w.stats.layerMetrics(r.PerLayer)
	m := r.PerLayer

	// The ladder below one switch: ingress pipeline alone, then a FIFO
	// switch around it, then the PIFO switch that was measured.
	mach, err := banzai.New(w.progs[0].prog)
	if err != nil {
		return err
	}
	ingress, err := medianRate(func() (int64, time.Duration, error) {
		t := time.Now()
		for off := 0; off < len(w.hs); off += swSpanBatch {
			id := e.tr.begin("banzai.ProcessH")
			for _, h := range w.hs[off:min(off+swSpanBatch, len(w.hs))] {
				if err := mach.ProcessH(h); err != nil {
					return 0, 0, err
				}
			}
			e.tr.end(id)
		}
		return int64(len(w.hs)), time.Since(t), nil
	})
	if err != nil {
		return err
	}
	fifoSw, err := w.newSwitch(e.tr, nil, swQueueCap, nil, nil)
	if err != nil {
		return err
	}
	fifo, err := nsPerPkt(e.tr, fifoSw, w.hs)
	if err != nil {
		return err
	}
	stfq, err := nsPerPkt(e.tr, w.sw, w.hs)
	if err != nil {
		return err
	}
	m["switchsim.fifo_ns_per_pkt"] = fifo
	m["switchsim.self_ns_per_pkt"] = fifo - 1e9/ingress
	m["pifo.self_ns_per_pkt"] = stfq - fifo

	// One port scheduler on its own, held 256 deep.
	tree, err := stfqTree(nil)
	if err != nil {
		return err
	}
	qs, err := tree.Build(w.sw.Machine().Layout(), 1)
	if err != nil {
		return err
	}
	q := qs[0]
	for i := 0; i < 256; i++ {
		q.Enqueue(switchsim.QueuedHeader{H: w.hs[i], Size: swPktBytes, Arrived: int64(i), Seq: int64(i)})
	}
	tick := int64(256)
	rate, err := medianRate(func() (int64, time.Duration, error) {
		t := time.Now()
		for off := 0; off < len(w.hs); off += swSpanBatch {
			id := e.tr.begin("pifo.Enqueue/Dequeue")
			for _, h := range w.hs[off:min(off+swSpanBatch, len(w.hs))] {
				q.Enqueue(switchsim.QueuedHeader{H: h, Size: swPktBytes, Arrived: tick, Seq: tick})
				if _, ok := q.Dequeue(tick); !ok {
					return 0, 0, fmt.Errorf("port scheduler refused to dequeue at depth %d", q.Len())
				}
				tick++
			}
			e.tr.end(id)
		}
		return int64(len(w.hs)), time.Since(t), nil
	})
	if err != nil {
		return err
	}
	m["pifo.enq_deq_ns_per_pkt"] = 1e9 / rate

	// The same switch with a registry and an event ring attached.
	reg := telemetry.NewRegistry()
	tree, err = stfqTree(reg)
	if err != nil {
		return err
	}
	onSw, err := w.newSwitch(e.tr, tree, swQueueCap, reg, telemetry.NewRing(4096, 16, uint64(e.seed)))
	if err != nil {
		return err
	}
	on, err := nsPerPkt(e.tr, onSw, w.hs)
	if err != nil {
		return err
	}
	m["telemetry.on_ratio"] = on / stfq
	m["telemetry.qdepth_p99_bytes"] = float64(mergedQuantile(reg, ".qdepth_bytes.", 0.99))
	return nil
}

// mergedQuantile merges every histogram of reg whose name contains part
// and returns the q-quantile of the union.
func mergedQuantile(reg *telemetry.Registry, part string, q float64) int64 {
	var all telemetry.Histogram
	for _, name := range reg.HistogramNames() {
		if strings.Contains(name, part) {
			all.Merge(reg.Histogram(name))
		}
	}
	return all.Quantile(q)
}
