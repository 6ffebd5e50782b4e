// Package telemetry is the zero-allocation metrics core of the
// simulator's observability layer (PR 8): fixed-bucket log2 histograms
// and monotonic counters behind a nil-safe Sink interface, plus a
// deterministic sampled event-trace ring buffer (trace.go).
//
// Design rules, shared with every instrumented package (switchsim,
// netsim, pifo, transport):
//
//   - Instruments are resolved by name ONCE, at component construction,
//     via a Sink (GetCounter/GetHistogram tolerate a nil Sink and hand
//     back nil instruments). The hot path holds plain pointers.
//   - Every mutating method is safe on a nil receiver and allocates
//     nothing, so disabled telemetry costs one nil check per event and
//     the 0 allocs/op invariant of the data path is untouched.
//   - Instruments are single-writer (the simulator is single-threaded);
//     there is no locking.
//   - A Registry owns the instruments for one run and snapshots them in
//     deterministic (sorted-name) order, JSON-marshalable.
//
// The tests that hold these: TestHotPathAllocs and TestNilRing (nil and
// live instruments, 0 allocations), TestBucketBoundaries and
// TestObserveMatchesBucketOf (bucket = bits.Len64), TestMergeAssociativity
// (Merge is exact integer addition, associative and commutative),
// TestRegistryIdentity and TestRegistrySnapshotDeterministic,
// TestRingSamplingDeterministic and TestRingWrapAndExport (sampling is a
// function of seed and event ordinal, never of buffer state). Name
// prefixes by owner: sw.<name>.* switchsim, net.*, int.* and sim.* netsim,
// tp.* the transport, pifo.* a Tree with Telemetry set.
package telemetry

import (
	"math/bits"
	"sort"
)

// Counter is a monotonic event counter.
type Counter struct {
	v int64
}

// Add increments the counter by n. Nil-safe, allocation-free.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one. Nil-safe, allocation-free.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Value reads the counter (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// NumBuckets is the histogram's fixed bucket count: bucket 0 holds the
// value 0 (and negatives, which clamp), bucket i>=1 holds values in
// [2^(i-1), 2^i), so bucket 63 tops out the int64 range.
const NumBuckets = 64

// Histogram is a fixed-bucket log2 histogram of int64 samples. The
// bucket of value v is bits.Len64(v) — no search, no float math, no
// allocation — and Count/Sum/Max ride along so means and exact maxima
// survive the bucketing.
type Histogram struct {
	count   int64
	sum     int64
	max     int64
	buckets [NumBuckets]int64
}

// Observe records one sample. Negative values clamp to 0 (queue depths,
// delays and ranks are non-negative by construction; a negative sample
// is a harness bug we keep visible in bucket 0 rather than crash on).
// Nil-safe, allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bits.Len64(uint64(v))]++
}

// Count returns the number of samples (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all samples (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Max returns the largest sample (0 for nil or empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Bucket returns bucket i's sample count.
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= NumBuckets {
		return 0
	}
	return h.buckets[i]
}

// BucketLow is the smallest value bucket i holds (0 for bucket 0,
// 2^(i-1) otherwise).
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHigh is the largest value bucket i holds (0 for bucket 0,
// 2^i - 1 otherwise; bucket 63 saturates at MaxInt64).
func BucketHigh(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<i - 1
}

// BucketOf is the bucket index of value v — the single definition the
// tests' boundary properties check Observe against.
func BucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	return bits.Len64(uint64(v))
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]): the
// high edge of the bucket the q-th sample falls in, clamped to the exact
// observed maximum. 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += h.buckets[i]
		if cum >= target {
			hi := BucketHigh(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// Merge adds o's samples into h. Bucket counts, Count and Sum are plain
// integer additions and Max is an associative maximum, so merging is
// associative and commutative — partial aggregations combine in any
// order to the same result. Nil o is a no-op; h must be non-nil.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Sink hands out named instruments. Components resolve their instruments
// once at construction and keep the pointers; asking twice for one name
// must return the same instrument. Implementations are single-caller.
type Sink interface {
	Counter(name string) *Counter
	Histogram(name string) *Histogram
}

// GetCounter resolves a named counter against a possibly-nil sink: nil
// sink, nil instrument — which every Counter method tolerates. This is
// the only way instrumented packages should touch a Sink.
func GetCounter(s Sink, name string) *Counter {
	if s == nil {
		return nil
	}
	return s.Counter(name)
}

// GetHistogram is GetCounter for histograms.
func GetHistogram(s Sink, name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.Histogram(name)
}

// Registry is the standard Sink: it owns every instrument it hands out
// and snapshots them in sorted-name order.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// CounterNames returns every registered counter name, sorted.
func (r *Registry) CounterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns every registered histogram name, sorted.
func (r *Registry) HistogramNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	Low   int64 `json:"low"`
	High  int64 `json:"high"`
	Count int64 `json:"count"`
}

// CounterSnapshot is one counter's exported state.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSnapshot is one histogram's exported state: summary moments
// plus the non-empty buckets.
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	Mean    float64       `json:"mean"`
	P50     int64         `json:"p50"`
	P99     int64         `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a registry's full exported state, deterministic for a
// deterministic run: instruments appear in sorted-name order.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// SnapshotHistogram exports one histogram under a name.
func SnapshotHistogram(name string, h *Histogram) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:  name,
		Count: h.Count(),
		Sum:   h.Sum(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
	}
	for i := 0; i < NumBuckets; i++ {
		if c := h.Bucket(i); c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Low: BucketLow(i), High: BucketHigh(i), Count: c})
		}
	}
	return s
}

// Snapshot exports every instrument, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for _, n := range r.CounterNames() {
		s.Counters = append(s.Counters, CounterSnapshot{Name: n, Value: r.counters[n].Value()})
	}
	for _, n := range r.HistogramNames() {
		s.Histograms = append(s.Histograms, SnapshotHistogram(n, r.hists[n]))
	}
	return s
}
