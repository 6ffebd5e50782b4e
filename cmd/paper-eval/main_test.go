package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// stdoutOf runs paper-eval with args and returns what it printed to
// standard output along with run's error.
func stdoutOf(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestRunFlagErrors: bad invocations come back as errors (main turns
// them into exit 1 + stderr) instead of being silently ignored — and
// before any report has run, however expensive the ones asked for.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-table", "99"},
		{"-figure", "nope"},
		{"stray-positional"},
		{"-seed", "0", "-faults"},
		{"-seed", "-3", "-reliable"},
		{"-soak", "-1"},
		{"-soak", "1000", "-table", "99"},
		{"-fct", "-figure", "nope"},
	} {
		out, err := stdoutOf(t, args...)
		if err == nil {
			t.Errorf("run(%v) = nil, want error", args)
		}
		if out != "" {
			t.Errorf("run(%v) printed %d bytes before failing, want none", args, len(out))
		}
	}
	if err := run([]string{"-table", "99"}); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Errorf("table error unclear: %v", err)
	}
}

// TestRunSmoke: a cheap good invocation succeeds end to end.
func TestRunSmoke(t *testing.T) {
	if err := run([]string{"-table", "6"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFaultsSeeded: the fault experiment honors a non-default -seed
// end to end (the scenario rebuilds its trace, schedule and jitter from
// it; any seed must drain clean through the conservation oracles).
func TestRunFaultsSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-routing fault sweep")
	}
	if err := run([]string{"-faults", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunNetSeeded: -net honors -seed too — a different seed draws a
// different trace, so the load-balance table moves off the seed-1 golden.
func TestRunNetSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-routing load-balance sweep")
	}
	out, err := stdoutOf(t, "-net", "-seed", "7")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/net.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out == string(golden) {
		t.Error("-net -seed 7 printed the seed-1 report: the seed is not reaching the scenario")
	}
}

// TestRunReliableSeeded: same for the raw-vs-reliable comparison.
func TestRunReliableSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("raw+reliable sweep over three routings")
	}
	if err := run([]string{"-reliable", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSoakSmall: a handful of chaos schedules end to end through the
// CLI path (the full-size soak runs via `make soak`).
func TestRunSoakSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	if err := run([]string{"-soak", "8", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
}

// wallClock matches what differs between two runs of -fct: the measured
// wall-clock lines and the speedup computed from them.
var wallClock = regexp.MustCompile(`(?m)^.* wall for .*\n|^   speedup: .*\n`)

// TestGoldenReports pins what the netsim reports print. The goldens were
// recorded at 17293da, before the five experiment runners became presets
// over netsim.Scenario, so this is the proof the presets reproduce them
// byte for byte. Every report is deterministic for a fixed seed;
// re-record one with `go run ./cmd/paper-eval <args> > testdata/<name>.golden`
// (for fct, dropping the wall-clock and speedup lines) only when a number
// is meant to move.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every netsim report")
	}
	for name, args := range map[string][]string{
		"net":       {"-net"},
		"faults":    {"-faults"},
		"reliable":  {"-reliable"},
		"telemetry": {"-telemetry"},
		"fct":       {"-fct", "-k", "4"},
		"soak":      {"-soak", "8", "-seed", "3"},
	} {
		t.Run(name, func(t *testing.T) {
			got, err := stdoutOf(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			got = wallClock.ReplaceAllString(got, "")
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("line %d differs:\n got  %q\n want %q", i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("printed %d lines, golden has %d", len(gl), len(wl))
		})
	}
}
