package codegen

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"domino/internal/algorithms"
	"domino/internal/atoms"
)

var update = flag.Bool("update", false, "rewrite testdata/targets.golden from this build's verdicts")

// shipped is every program the repo ships, in a fixed order: the Table 4
// catalog, the scheduler transactions with their ingress, and the five
// routing transactions with ECN marking and INT stamping on.
func shipped(t *testing.T) (names, srcs []string) {
	t.Helper()
	add := func(name, src string) { names, srcs = append(names, name), append(srcs, src) }
	for _, a := range algorithms.All() {
		add(a.Name, a.Source)
	}
	for _, s := range algorithms.Schedulers() {
		add(s.Name, s.Source)
	}
	add("sched_ingress", algorithms.SchedIngress)
	params := algorithms.RouteParams{Leaves: 8, Spines: 4, HostsPerLeaf: 4, ECN: true, INT: true}
	for _, r := range algorithms.Routings() {
		text, err := r.Source(params)
		if err != nil {
			t.Fatal(err)
		}
		add(r.Name, text)
	}
	return names, srcs
}

func verdict(p *Program, err error) string {
	if err != nil {
		return "REJECT " + err.Error()
	}
	return fmt.Sprintf("ok least=%s stages=%d width=%d", p.LeastAtom, p.NumStages(), p.MaxAtomsPerStage())
}

// TestGoldenPerTargetVerdicts pins, for every shipped program on each of
// the seven default targets (and CoDel with and without lookup tables), either
// the accepted pipeline's shape or the exact rejection. The table was
// recorded before codelet mappings were shared between targets: each target
// must still stop at the first codelet it cannot run, in pipeline order,
// with the words it used when every target mapped every codelet itself. All
// targets of one program compile the same IR object, bottom-up, the way
// LeastTarget walks the ladder.
func TestGoldenPerTargetVerdicts(t *testing.T) {
	var b strings.Builder
	names, srcs := shipped(t)
	for i, name := range names {
		info, irp := front(t, srcs[i])
		for _, tgt := range Targets() {
			fmt.Fprintf(&b, "%s @ %s: %s\n", name, tgt.Name, verdict(Compile(info, irp, tgt)))
		}
	}
	lut := func(k atoms.Kind) Target {
		tgt := NewTarget(k)
		tgt.Name += "+LUT"
		tgt.LookupTables = true
		return tgt
	}
	codel, err := algorithms.ByName("codel")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []struct{ name, text string }{{"codel", codel.Source}, {"codel_lut", algorithms.CoDelLUT}} {
		info, irp := front(t, src.text)
		for _, tgt := range []Target{NewTarget(atoms.Pairs), lut(atoms.Pairs), lut(atoms.Nested), NewTarget(atoms.Nested)} {
			fmt.Fprintf(&b, "%s @ %s: %s\n", src.name, tgt.Name, verdict(Compile(info, irp, tgt)))
		}
	}

	const path = "testdata/targets.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d verdicts, golden table has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("verdict moved:\n got  %s\n want %s", got[i], wantLines[i])
		}
	}
}

// TestCompileOneIRConcurrently compiles one IR object on all seven targets
// from seven goroutines; under -race this is what guards the mappings the
// targets share. Each verdict must be the one a fresh IR gets on its own.
func TestCompileOneIRConcurrently(t *testing.T) {
	conga, err := algorithms.ByName("conga")
	if err != nil {
		t.Fatal(err)
	}
	targets := Targets()
	want := make([]string, len(targets))
	for i, tgt := range targets {
		info, irp := front(t, conga.Source)
		want[i] = verdict(Compile(info, irp, tgt))
	}
	for round := 0; round < 3; round++ {
		info, irp := front(t, conga.Source)
		got := make([]string, len(targets))
		var wg sync.WaitGroup
		for i, tgt := range targets {
			wg.Add(1)
			go func(i int, tgt Target) {
				defer wg.Done()
				got[i] = verdict(Compile(info, irp, tgt))
			}(i, tgt)
		}
		wg.Wait()
		for i, tgt := range targets {
			if got[i] != want[i] {
				t.Errorf("%s: concurrent compile says %q, alone %q", tgt.Name, got[i], want[i])
			}
		}
	}
}
