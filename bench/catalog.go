package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"domino/internal/algorithms"
	"domino/internal/atoms"
	"domino/internal/banzai"
	"domino/internal/interp"
	"domino/internal/workload"
)

// catalogWorkload: the compiler does all of compile_s and the bare
// machine all of pkts_per_s; there is no switch and no fabric. It exists
// so that a compiler change (caching, a faster synthesizer) and a machine
// change (the optimizer, the batch loop) each have a workload that
// nothing else dilutes.
type catalogWorkload struct {
	srcs []source
	// refTraces are the map-form traces the interpreter check replays;
	// they draw the same sequence as the header traces.
	refTraces map[string][]interp.Packet

	// The measured system: the last set-up's compilations and machines.
	progs    []*compiled
	machines map[string]*banzai.Machine
	headers  map[string][]banzai.Header
	digest   string
	stats    compileStats
}

const (
	catalogBatch  = 1024
	catalogPrefix = 4096 // packets the interpreter check replays
)

func (w *catalogWorkload) setupReps() int { return 5 }
func (w *catalogWorkload) cycle() int     { return 1 }

// catalogSources is the 21-program set: the eleven Table 4 algorithms,
// the scheduler rank and shaping transactions with their ingress, and
// the fabric routing transactions with ECN marking and INT stamping on.
func catalogSources() ([]source, error) {
	var srcs []source
	for _, a := range algorithms.All() {
		srcs = append(srcs, source{name: a.Name, text: a.Source})
	}
	for _, s := range algorithms.Schedulers() {
		srcs = append(srcs, source{name: s.Name, text: s.Source, outputs: []string{s.RankField}})
	}
	srcs = append(srcs, source{name: "sched_ingress", text: algorithms.SchedIngress})
	params := algorithms.RouteParams{Leaves: 8, Spines: 4, HostsPerLeaf: 4, ECN: true, INT: true}
	for _, r := range algorithms.Routings() {
		text, err := r.Source(params)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, source{name: r.Name, text: text})
	}
	return srcs, nil
}

func (w *catalogWorkload) packets(e *env) int {
	return e.scaled(64<<10, 2*catalogBatch) / catalogBatch * catalogBatch
}

func (w *catalogWorkload) generate(e *env) {
	hh, _ := workload.HeavyHitterTrace(e.seed, 1000, catalogPrefix, 1.2)
	w.refTraces = map[string][]interp.Packet{
		"flowlets":      workload.FlowletTrace(e.seed, 100, catalogPrefix, 10, 50),
		"heavy_hitters": hh,
		"conga":         workload.CongaTrace(e.seed, 16, 64, catalogPrefix),
	}
}

// traceHeaders generates one machine program's slab trace.
func (w *catalogWorkload) traceHeaders(e *env, prog string, l *banzai.Layout) []banzai.Header {
	n := w.packets(e)
	switch prog {
	case "flowlets":
		return workload.FlowletTraceHeaders(l, e.seed, 100, n, 10, 50)
	case "heavy_hitters":
		hs, _ := workload.HeavyHitterTraceHeaders(l, e.seed, 1000, n, 1.2)
		return hs
	default:
		return workload.CongaTraceHeaders(l, e.seed, 16, 64, n)
	}
}

func (w *catalogWorkload) setup(e *env, pass int) (setupTimes, error) {
	var st setupTimes
	if w.srcs == nil {
		srcs, err := catalogSources()
		if err != nil {
			return st, err
		}
		w.srcs = srcs
	}
	w.stats = compileStats{}

	t := time.Now()
	progs, err := compileSet(e, w.srcs, pass, &w.stats)
	if err != nil {
		return st, err
	}
	st.compile = w.stats.total()

	t = time.Now()
	machines := map[string]*banzai.Machine{}
	for _, c := range progs {
		if c.prog == nil {
			continue
		}
		m, err := buildMachine(e.tr, c, &w.stats)
		if err != nil {
			return st, err
		}
		machines[c.src.name] = m
	}
	st.build = time.Since(t)

	t = time.Now()
	headers := map[string][]banzai.Header{}
	for _, p := range machinePrograms {
		headers[p] = w.traceHeaders(e, p, machines[p].Layout())
	}
	// Fingerprint the inputs now: processing writes into the headers.
	d := newDigest()
	for _, p := range machinePrograms {
		for _, h := range headers[p] {
			d.int32s(h)
		}
	}
	w.digest = d.String()
	st.gen = time.Since(t)

	t = time.Now()
	w.progs, w.machines, w.headers = progs, machines, headers
	for _, p := range machinePrograms {
		if _, err := w.batchPass(e.tr, p); err != nil {
			return st, err
		}
	}
	st.warm = time.Since(t)
	return st, nil
}

// batchPass runs one program's whole slab through ProcessBatch and
// returns the host time it took.
func (w *catalogWorkload) batchPass(tr *tracer, prog string) (time.Duration, error) {
	m, hs := w.machines[prog], w.headers[prog]
	t := time.Now()
	for off := 0; off < len(hs); off += catalogBatch {
		id := tr.begin("banzai.ProcessBatch")
		err := m.ProcessBatch(hs[off : off+catalogBatch])
		tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t), nil
}

// rep runs each machine program's trace once. The packet count it
// returns is scaled so that pkts/busy is the geometric mean of the three
// per-program rates, which no single slow program dominates.
func (w *catalogWorkload) rep(e *env, i int) (int64, time.Duration, error) {
	var busy time.Duration
	logRate := 0.0
	for _, p := range machinePrograms {
		d, err := w.batchPass(e.tr, p)
		if err != nil {
			return 0, 0, err
		}
		busy += d
		logRate += math.Log(float64(len(w.headers[p])) / d.Seconds())
	}
	geo := math.Exp(logRate / float64(len(machinePrograms)))
	return int64(geo * busy.Seconds()), busy, nil
}

func (w *catalogWorkload) finish(e *env, r *result) error {
	r.TraceDigest = w.digest

	// Every program lands on the atom its hand-written catalog row names;
	// CoDel lands nowhere.
	want := map[string]atoms.Kind{}
	rejected := map[string]bool{}
	for _, a := range algorithms.All() {
		if a.Maps {
			want[a.Name] = a.LeastAtom
		} else {
			rejected[a.Name] = true
		}
	}
	for _, s := range algorithms.Schedulers() {
		want[s.Name] = s.LeastAtom
	}
	for _, c := range w.progs {
		var err error
		switch {
		case rejected[c.src.name]:
			if c.prog != nil || c.tried != len(atoms.StatefulHierarchy) {
				err = fmt.Errorf("%s: want rejection on all %d targets, tried %d, accepted %v",
					c.src.name, len(atoms.StatefulHierarchy), c.tried, c.prog != nil)
			}
		case c.prog == nil:
			err = fmt.Errorf("%s: rejected on every target", c.src.name)
		default:
			if k, ok := want[c.src.name]; ok && c.prog.LeastAtom != k {
				err = fmt.Errorf("%s: least atom %s, catalog says %s", c.src.name, c.prog.LeastAtom, k)
			}
		}
		r.check(1, err)
	}

	mismatches, err := w.diffInterp(r)
	if err != nil {
		return err
	}
	if r.PerLayer != nil {
		r.PerLayer["interp.mismatches"] = float64(mismatches)
	}
	return nil
}

// diffInterp replays each machine program's trace prefix through a fresh
// machine and the reference interpreter; every packet and the final
// state must agree.
func (w *catalogWorkload) diffInterp(r *result) (int64, error) {
	var mismatches int64
	for _, c := range w.progs {
		trace, ok := w.refTraces[c.src.name]
		if !ok {
			continue
		}
		m, err := banzai.New(c.prog)
		if err != nil {
			return 0, err
		}
		ref := interp.New(c.info)
		bad := int64(0)
		for _, pkt := range trace {
			want := pkt.Clone()
			if err := ref.Run(want); err != nil {
				return 0, err
			}
			got, err := m.Process(pkt)
			if err != nil {
				return 0, err
			}
			for _, f := range c.info.Fields {
				if got[f] != want[f] {
					bad++
					break
				}
			}
		}
		r.Attempted += int64(len(trace))
		if bad > 0 {
			r.fail(bad, fmt.Sprintf("%s: %d of %d packets differ from the interpreter", c.src.name, bad, len(trace)))
		}
		var stateErr error
		if !ref.State().Equal(m.State()) {
			stateErr = fmt.Errorf("%s: final state differs from the interpreter", c.src.name)
			bad++
		}
		r.check(1, stateErr)
		mismatches += bad
	}
	return mismatches, nil
}

func (w *catalogWorkload) layers(e *env, r *result) error {
	w.stats.layerMetrics(r.PerLayer)
	m := r.PerLayer

	var batchFlowlets float64
	for _, p := range machinePrograms {
		rate, err := medianRate(func() (int64, time.Duration, error) {
			d, err := w.batchPass(e.tr, p)
			return int64(len(w.headers[p])), d, err
		})
		if err != nil {
			return err
		}
		m["banzai.batch."+p+".pkts_per_s"] = rate
		if p == "flowlets" {
			batchFlowlets = rate
		}

		// TickH is the one-header-per-cycle path a switch's ingress takes
		// when it is not batching. Departing headers are not recycled
		// here: the slab is the pool.
		mach, hs := w.machines[p], w.headers[p]
		rate, err = medianRate(func() (int64, time.Duration, error) {
			t := time.Now()
			for off := 0; off < len(hs); off += 4096 {
				id := e.tr.begin("banzai.TickH")
				for _, h := range hs[off:min(off+4096, len(hs))] {
					mach.TickH(h)
				}
				e.tr.end(id)
			}
			d := time.Since(t)
			mach.DrainH()
			return int64(len(hs)), d, nil
		})
		if err != nil {
			return err
		}
		m["banzai.tickh."+p+".pkts_per_s"] = rate
	}

	// The two execution orders ROADMAP 2(a) wants evidence on, both as
	// ratios to ProcessBatch on flowlets (above 1 means faster).
	fm, fh := w.machines["flowlets"], w.headers["flowlets"]
	stage, err := medianRate(func() (int64, time.Duration, error) {
		t := time.Now()
		for off := 0; off < len(fh); off += catalogBatch {
			if err := fm.ProcessBatchStageMajor(fh[off : off+catalogBatch]); err != nil {
				return 0, 0, err
			}
		}
		return int64(len(fh)), time.Since(t), nil
	})
	if err != nil {
		return err
	}
	m["banzai.batch_stage.ratio"] = stage / batchFlowlets

	var flowlets *compiled
	for _, c := range w.progs {
		if c.src.name == "flowlets" {
			flowlets = c
		}
	}
	sm, err := banzai.NewSharded(flowlets.prog, 2, "sport", "dport")
	if err != nil {
		return err
	}
	defer sm.Close()
	sh := w.traceHeaders(e, "flowlets", sm.Layout())
	sharded, err := medianRate(func() (int64, time.Duration, error) {
		t := time.Now()
		for off := 0; off < len(sh); off += 4096 {
			if err := sm.ProcessBatch(sh[off:min(off+4096, len(sh))]); err != nil {
				return 0, 0, err
			}
		}
		return int64(len(sh)), time.Since(t), nil
	})
	if err != nil {
		return err
	}
	m["banzai.sharded2.ratio"] = sharded / batchFlowlets

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := w.batchPass(nil, "flowlets"); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m["banzai.allocs_per_pkt"] = float64(after.Mallocs-before.Mallocs) / float64(len(fh))

	// The reference interpreter on the same packets, for scale.
	ref := interp.New(flowlets.info)
	trace := w.refTraces["flowlets"]
	rate, err := medianRate(func() (int64, time.Duration, error) {
		t := time.Now()
		for _, pkt := range trace {
			if err := ref.Run(pkt.Clone()); err != nil {
				return 0, 0, err
			}
		}
		return int64(len(trace)), time.Since(t), nil
	})
	if err != nil {
		return err
	}
	m["interp.pkts_per_s"] = rate
	return nil
}

// medianRate runs f minReps times and returns the median of count/time.
func medianRate(f func() (int64, time.Duration, error)) (float64, error) {
	var rates []float64
	for i := 0; i < minReps; i++ {
		n, d, err := f()
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(n)/d.Seconds())
	}
	return summarize("", rates).Median, nil
}
