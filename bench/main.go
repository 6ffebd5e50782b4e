// Command bench is the repository's benchmark: five workloads that each
// load a different layer of the stack, the end-to-end metrics
// BENCHMARK.json gates, and a per-layer ladder from lexer to transport.
// See README.md in this directory.
//
//	bench/run.sh                                   # all workloads, seed 1
//	bench/run.sh --workload catalog --seed 7 --seconds 10 --trace 0
//	bench/run.sh --trace 1 --spans spans.json --out result.json
//	bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// manifest records what a result file was measured on, so two files are
// compared only when they may be.
type manifest struct {
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Traced     bool    `json:"traced"`
	// Comparable is false when -scale shrank the workloads: such numbers
	// are for the smoke test only.
	Comparable bool    `json:"comparable"`
	Started    string  `json:"started"`
	WallS      float64 `json:"wall_s"`
}

// runSeconds is BENCHMARK.json's run_seconds and the default of --seconds.
const runSeconds = 10

type resultFile struct {
	Manifest manifest  `json:"manifest"`
	Results  []*result `json:"results"`
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
		seed         = flag.Int64("seed", 1, "seed of every generated trace and fault schedule (1: working seed, 7: held-out seed)")
		seconds      = flag.Float64("seconds", runSeconds, "how long each workload's measured run lasts")
		trace        = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics, tracing off")
		spans        = flag.String("spans", "", "with -trace 1, write every span to this file when the run ends")
		out          = flag.String("out", "", "write the results and their manifest to this file")
		scale        = flag.Float64("scale", 1, "shrink every workload (smoke test only; marks the result non-comparable)")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	// The bench box has two cores and Go 1.24 does not see a container's
	// CPU quota, so the width is pinned rather than inherited.
	runtime.GOMAXPROCS(2)

	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}
	start := time.Now()
	file := resultFile{Manifest: manifest{
		GitRev: gitRev(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Seed: *seed, Seconds: *seconds, Scale: *scale,
		Traced: *trace != 0, Comparable: *scale == 1, Started: start.UTC().Format(time.RFC3339),
	}}
	var tracers []*tracer
	for _, name := range names {
		r, err := runWorkload(name, *seed, *seconds, *scale, *trace != 0)
		if err != nil {
			fatal(err)
		}
		file.Results = append(file.Results, r)
		if r.tracer != nil {
			tracers = append(tracers, r.tracer)
		}
		printResult(r, *seed)
		// The line the driver reads: the last one of a one-workload run.
		line, err := json.Marshal(driverLine(r, *trace != 0))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	file.Manifest.WallS = time.Since(start).Seconds()

	if *spans != "" {
		if err := writeSpans(*spans, tracers); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func gitRev() string {
	outp, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outp))
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the one-line result BENCHMARK.json's contract asks
// for: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

func driverLine(r *result, traced bool) driverResult {
	d := driverResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	if traced {
		for _, def := range perLayer {
			d.Metrics[def.Name] = driverMetric{Value: r.PerLayer[def.Name], Unit: def.Unit}
		}
	} else {
		for _, def := range endToEnd {
			d.Metrics[def.Name] = driverMetric{Value: r.EndToEnd[def.Name].Median, Unit: def.Unit}
		}
	}
	return d
}

func printResult(r *result, seed int64) {
	fmt.Printf("== %s  seed %d  %d repetitions  inputs %s ==\n", r.Workload, seed, r.Reps, r.TraceDigest)
	for _, def := range reported {
		s, ok := r.EndToEnd[def.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-20s %14.6g %-6s [%.6g, %.6g] n=%d\n", def.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	fmt.Printf("  %-20s %14.6g %-6s (%d failed of %d operations)\n", "failed_share", r.failedShare(), "share", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
	if r.PerLayer != nil {
		for _, def := range perLayer {
			if v := r.PerLayer[def.Name]; v != 0 {
				fmt.Printf("    %-34s %14.6g %s\n", def.Name, v, def.Unit)
			}
		}
		self := r.tracer.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		fmt.Println("    self time by span:")
		for _, n := range names {
			fmt.Printf("      %-32s %10.4f s\n", n, self[n])
		}
	}
}
