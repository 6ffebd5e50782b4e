package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric registry")

const benchmarkJSON = "../BENCHMARK.json"

// benchmarkFile is the shape the driver's contract fixes for
// BENCHMARK.json.
type benchmarkFile struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []benchmarkEntry  `json:"workloads"`
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func registryFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadNames {
		f.Workloads = append(f.Workloads, benchmarkEntry{Name: w, Why: workloadWhy[w]})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		f.EndToEnd = append(f.EndToEnd, benchmarkMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, benchmarkMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return f
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metric
// registry one list: run with -update after changing the registry.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	want, err := json.MarshalIndent(registryFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(benchmarkJSON, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is out of step with the registry in metrics.go; run go test -run BenchmarkJSON -update", benchmarkJSON)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(want))
	}
	for _, w := range registryFile().Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, got %d", w.Name, len(w.Why))
		}
	}
}

// deltas are per-layer metrics computed as the difference of two
// timings; at smoke scale noise may push them below zero.
var deltas = map[string]bool{
	"pifo.self_ns_per_pkt": true, "switchsim.self_ns_per_pkt": true,
	"ladder.harness_ns_per_hop": true, "transport.self_ns_per_accept": true,
}

func smokeRun(t *testing.T, name string, seed int64) *result {
	t.Helper()
	r, err := runWorkload(name, seed, 0, 0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Errorf("seed %d: %d of %d operations failed: %v", seed, r.Failed, r.Attempted, r.Failures)
	}
	if r.Attempted < 1 {
		t.Errorf("seed %d: no operation attempted", seed)
	}
	for _, d := range endToEnd {
		s, ok := r.EndToEnd[d.Name]
		if !ok || !(s.Median > 0) || math.IsInf(s.Median, 0) {
			t.Errorf("seed %d: end-to-end metric %s = %v (present %v), want finite and above 0", seed, d.Name, s.Median, ok)
		}
	}
	for _, d := range perLayer {
		v, ok := r.PerLayer[d.Name]
		switch {
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("seed %d: per-layer metric %s = %v (present %v), want finite", seed, d.Name, v, ok)
		case d.Unit == "share" && (v < 0 || v > 1):
			t.Errorf("seed %d: %s = %v outside [0, 1]", seed, d.Name, v)
		case d.Unit != "ratio" && !deltas[d.Name] && v < 0:
			t.Errorf("seed %d: %s = %v is negative", seed, d.Name, v)
		}
	}
	return r
}

// TestSmoke runs every workload at 1/100 scale, traced: each must emit
// every metric BENCHMARK.json names, fail nothing, and repeat its counts
// and simulated values exactly on the same seed. Seed 7, which no
// workload was tuned on, must change the inputs and still pass.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := smokeRun(t, name, 1)
			b := smokeRun(t, name, 1)
			if a.TraceDigest != b.TraceDigest {
				t.Errorf("same seed, different inputs: %s vs %s", a.TraceDigest, b.TraceDigest)
			}
			for _, d := range perLayer {
				if d.Exact && a.PerLayer[d.Name] != b.PerLayer[d.Name] {
					t.Errorf("%s did not repeat on the same seed: %v vs %v", d.Name, a.PerLayer[d.Name], b.PerLayer[d.Name])
				}
			}
			held := smokeRun(t, name, 7)
			if held.TraceDigest == a.TraceDigest {
				t.Errorf("seed 7 produced the inputs of seed 1 (%s)", a.TraceDigest)
			}
		})
	}
}

// TestCompare checks the three verdicts of -compare: equal files agree, a
// timing beyond its bound is a regression, and a count that moved is a
// difference however small.
func TestCompare(t *testing.T) {
	mk := func(rate, drops float64) string {
		f := resultFile{
			Manifest: manifest{Seed: 1, GOMAXPROCS: 2, Seconds: 10, Scale: 1, Comparable: true},
			Results: []*result{{
				Workload: "switch-pifo", TraceDigest: "d",
				EndToEnd: map[string]stat{
					"pkts_per_s":     single("pkt/s", rate),
					"sim_drop_share": single("share", drops),
				},
			}},
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1000, 0.2)
	for _, tc := range []struct {
		name string
		b    string
		ok   bool
	}{
		{"same", mk(1000, 0.2), true},
		{"within bound", mk(950, 0.2), true},
		{"faster", mk(2000, 0.2), true},
		{"regression", mk(880, 0.2), false},
		{"count moved", mk(1000, 0.2001), false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare said %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
	}
}
