package banzai_test

import (
	"testing"

	"domino/internal/algorithms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/workload"
)

// TestHeaderPathsZeroAlloc pins the header data path's allocation
// contract on the bare machine: at steady state TickH, ProcessH and
// ProcessBatch allocate nothing. TickH walks a 4096-header slab as a
// ring, so every departing header comes back in as a later input and the
// pool and the codec are never touched.
func TestHeaderPathsZeroAlloc(t *testing.T) {
	const slab = 4096
	traces := map[string]func(l *banzai.Layout) []banzai.Header{
		"flowlets": func(l *banzai.Layout) []banzai.Header {
			return workload.FlowletTraceHeaders(l, 1, 100, slab, 10, 50)
		},
		"heavy_hitters": func(l *banzai.Layout) []banzai.Header {
			hs, _ := workload.HeavyHitterTraceHeaders(l, 1, 1000, slab, 1.2)
			return hs
		},
		"conga": func(l *banzai.Layout) []banzai.Header {
			return workload.CongaTraceHeaders(l, 1, 16, 64, slab)
		},
	}
	for name, headers := range traces {
		t.Run(name, func(t *testing.T) {
			a, err := algorithms.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := codegen.CompileLeastSource(a.Source)
			if err != nil {
				t.Fatal(err)
			}
			// TickH keeps packets in flight, which ProcessH and
			// ProcessBatch refuse (ErrBusy): one machine per mode.
			ticked, err := banzai.New(prog)
			if err != nil {
				t.Fatal(err)
			}
			hs := headers(ticked.Layout())
			i := 0
			if n := testing.AllocsPerRun(2*slab, func() {
				ticked.TickH(hs[i&(slab-1)])
				i++
			}); n != 0 {
				t.Errorf("TickH: %.1f allocs per packet, want 0", n)
			}

			whole, err := banzai.New(prog)
			if err != nil {
				t.Fatal(err)
			}
			hs = headers(whole.Layout())
			i = 0
			if n := testing.AllocsPerRun(2*slab, func() {
				if err := whole.ProcessH(hs[i&(slab-1)]); err != nil {
					t.Fatal(err)
				}
				i++
			}); n != 0 {
				t.Errorf("ProcessH: %.1f allocs per packet, want 0", n)
			}
			const batch = 1024
			i = 0
			if n := testing.AllocsPerRun(16, func() {
				off := (i & 3) * batch
				if err := whole.ProcessBatch(hs[off : off+batch]); err != nil {
					t.Fatal(err)
				}
				i++
			}); n != 0 {
				t.Errorf("ProcessBatch: %.1f allocs per %d-packet batch, want 0", n, batch)
			}
		})
	}
}
