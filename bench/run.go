package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

const (
	// minReps is the fewest repetitions a timing median is taken over.
	minReps = 11
	// fixedReps is how many leading repetitions feed every count and
	// every simulated-time metric, so those repeat exactly however many
	// more repetitions --seconds leaves room for.
	fixedReps = 11
)

// env is what a workload needs from the run around it.
type env struct {
	seed int64
	// scale shrinks every workload for the smoke test; 1 in a run whose
	// numbers may be compared.
	scale float64
	// tr is nil while end-to-end metrics are measured.
	tr *tracer
}

// scaled shrinks a count by the smoke-test scale, never below min.
func (e *env) scaled(n, min int) int {
	v := int(float64(n) * e.scale)
	if v < min {
		return min
	}
	return v
}

// setupTimes splits one set-up. Trace generation that had to wait for a
// layout is reported in gen and is not part of the set-up.
type setupTimes struct {
	compile, build, warm, gen time.Duration
}

func (s setupTimes) total() time.Duration { return s.compile + s.build + s.warm }

// benchWorkload is one of the five benchmark workloads. A run calls generate
// once, setup several times (each on fresh objects; the last system is
// the one measured), rep until time is up, then finish; a traced run
// also calls layers.
type benchWorkload interface {
	// setupReps is how many times set-up runs in an untraced run.
	setupReps() int
	// cycle is how many consecutive repetitions make one pass over the
	// workload's inputs: repetition i and i+cycle do identical work. A
	// rate is taken per complete cycle, so it weighs every input alike.
	cycle() int
	// generate makes the seed-dependent inputs that need no layout.
	generate(e *env)
	// setup takes source text to a ready system, one warm-up replay
	// included.
	setup(e *env, pass int) (setupTimes, error)
	// rep runs one closed-loop repetition of fixed work and returns the
	// packets it completed and the host time it measured.
	rep(e *env, i int) (pkts int64, busy time.Duration, err error)
	// finish runs the correctness checks and files counts and simulated
	// metrics.
	finish(e *env, r *result) error
	// layers measures the per-layer metrics of a traced run.
	layers(e *env, r *result) error
}

func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "catalog":
		return &catalogWorkload{}, nil
	case "switch-pifo":
		return &switchWorkload{}, nil
	case "leafspine-dense":
		return newLeafSpineDense(), nil
	case "fattree-sparse":
		return newFatTreeSparse(), nil
	case "reliable-chaos":
		return &chaosWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

var workloadNames = []string{"catalog", "switch-pifo", "leafspine-dense", "fattree-sparse", "reliable-chaos"}

// result is one workload's outcome in one run.
type result struct {
	Workload string `json:"workload"`
	// EndToEnd holds the gated metrics plus whichever simulated ones the
	// workload has; PerLayer is filled by a traced run only.
	EndToEnd  map[string]stat    `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Reps      int                `json:"reps"`
	// TraceDigest fingerprints the generated inputs: same seed, same
	// digest; another seed, another digest.
	TraceDigest string `json:"trace_digest"`

	tracer *tracer
}

// check records n attempted operations that one check covers; a non-nil
// err fails all n, since an identity that breaks does not say which
// packet broke it.
func (r *result) check(n int64, err error) {
	r.Attempted += n
	if err != nil {
		r.fail(n, err.Error())
	}
}

func (r *result) fail(n int64, msg string) {
	r.Failed += n
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, msg)
	}
}

func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// sinkInt keeps a measured call's result observable, so the compiler
// cannot drop the call.
var sinkInt int

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runWorkload measures one workload. With trace off it reports the
// end-to-end metrics; with trace on it runs one traced set-up, an
// untraced and a traced block of repetitions (their ratio is the tracing
// overhead), and the per-layer measurements.
func runWorkload(name string, seed int64, seconds, scale float64, trace bool) (*result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, scale: scale}
	r := &result{Workload: name, EndToEnd: map[string]stat{}}
	runtime.GC()

	t := time.Now()
	w.generate(e)
	gen := time.Since(t)

	setups := w.setupReps()
	if trace {
		setups = 1
		r.tracer = newTracer(name)
		e.tr = r.tracer
	}
	var setupS, compileS, setupAlloc []float64
	for k := 0; k < setups; k++ {
		a0 := totalAlloc()
		st, err := w.setup(e, k)
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", name, k, err)
		}
		setupAlloc = append(setupAlloc, mb(totalAlloc()-a0))
		setupS = append(setupS, st.total().Seconds())
		compileS = append(compileS, st.compile.Seconds())
		gen += st.gen
	}
	r.EndToEnd["setup_s"] = summarize("s", setupS)
	r.EndToEnd["compile_s"] = summarize("s", compileS)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.EndToEnd["live_heap_mb"] = single("MB", mb(ms.HeapAlloc))

	// Measured run, tracing off. Closed loop: the next repetition starts
	// when the previous one returns.
	e.tr = nil
	var rates, untraced []float64
	var fixedAlloc float64
	var cyclePkts int64
	var cycleBusy time.Duration
	a0 := totalAlloc()
	start := time.Now()
	// Run for the time given, never fewer than minReps repetitions, and
	// finish the cycle that is under way when time is up.
	for i := 0; i < minReps || (!trace && (time.Since(start).Seconds() < seconds || i%w.cycle() != 0)); i++ {
		pkts, busy, err := w.rep(e, i)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", name, i, err)
		}
		cyclePkts += pkts
		cycleBusy += busy
		if (i+1)%w.cycle() == 0 {
			rates = append(rates, float64(cyclePkts)/cycleBusy.Seconds())
			cyclePkts, cycleBusy = 0, 0
		}
		untraced = append(untraced, busy.Seconds())
		if i == fixedReps-1 {
			fixedAlloc = mb(totalAlloc() - a0)
		}
	}
	r.Reps = len(untraced)
	r.EndToEnd["pkts_per_s"] = summarize("pkt/s", rates)
	// One set-up plus the fixed block of repetitions: the same work in
	// every run, and never zero even where the hot path allocates nothing.
	r.EndToEnd["alloc_mb"] = single("MB", summarize("MB", setupAlloc).Median+fixedAlloc)

	if trace {
		e.tr = r.tracer
		var traced []float64
		for i := 0; i < minReps; i++ {
			_, busy, err := w.rep(e, r.Reps+i)
			if err != nil {
				return nil, fmt.Errorf("%s traced repetition %d: %w", name, i, err)
			}
			traced = append(traced, busy.Seconds())
		}
		r.PerLayer = map[string]float64{}
		for _, d := range perLayer {
			r.PerLayer[d.Name] = 0
		}
		r.PerLayer["workload.gen_s"] = gen.Seconds()
		r.PerLayer["trace.overhead_share"] = summarize("", traced).Median/summarize("", untraced).Median - 1
		if err := w.layers(e, r); err != nil {
			return nil, fmt.Errorf("%s layers: %w", name, err)
		}
		r.PerLayer["trace.spans"] = float64(len(r.tracer.spans))
	}

	if err := w.finish(e, r); err != nil {
		return nil, fmt.Errorf("%s checks: %w", name, err)
	}
	if trace {
		for _, d := range simulated {
			if s, ok := r.EndToEnd[d.Name]; ok {
				r.PerLayer[d.Name] = s.Median
			}
		}
		for k, v := range r.PerLayer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: per-layer metric %s is %v", name, k, v)
			}
		}
	}
	return r, nil
}

// fctStats files the flow-completion-time percentiles of the fixed
// block's pooled flows.
func fctStats(r *result, fcts []int64) {
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	p50, p99 := percentile(fcts, 50), percentile(fcts, 99)
	r.EndToEnd["sim_fct_p50_ticks"] = stat{Unit: "ticks", Median: p50, Q1: percentile(fcts, 25), Q3: percentile(fcts, 75), N: len(fcts)}
	r.EndToEnd["sim_fct_p99_ticks"] = stat{Unit: "ticks", Median: p99, Q1: p99, Q3: p99, N: len(fcts)}
}
