package synth

import (
	"testing"

	"domino/internal/algorithms"
)

// corpus is every program the repo ships: the Table 4 catalog, the
// scheduler transactions with their ingress, and the five routing
// transactions with ECN marking and INT stamping on.
func corpus(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{"sched_ingress": algorithms.SchedIngress}
	for _, a := range algorithms.All() {
		srcs[a.Name] = a.Source
	}
	for _, s := range algorithms.Schedulers() {
		srcs[s.Name] = s.Source
	}
	params := algorithms.RouteParams{Leaves: 8, Spines: 4, HostsPerLeaf: 4, ECN: true, INT: true}
	for _, r := range algorithms.Routings() {
		text, err := r.Source(params)
		if err != nil {
			t.Fatal(err)
		}
		srcs[r.Name] = text
	}
	return srcs
}

// TestVerifyMatchesMapOracle: on every stateful codelet of the corpus the
// slot-indexed loop checks the vectors the map-based one did, reaches its
// verdict, and words a planted mismatch's first counterexample alike.
func TestVerifyMatchesMapOracle(t *testing.T) {
	codelets := 0
	for _, src := range corpus(t) {
		codelets += checkAgainstOracle(t, src)
	}
	if codelets < 40 {
		t.Errorf("compared %d stateful codelets; the corpus has over 40", codelets)
	}
}

// TestVerifyKillsMutants is the oracle-strength test: how many seeded bugs
// in a codelet's summary the sampled check catches (ROADMAP item 3), and
// that the slot-indexed loop catches every one the map oracle does.
func TestVerifyKillsMutants(t *testing.T) {
	var total mutationScore
	for _, a := range algorithms.All() {
		var s mutationScore
		checkMutants(t, a.Source, &s)
		if s.planted > 0 {
			t.Logf("%-16s killed %d/%d (map oracle %d/%d)", a.Name, s.killed, s.planted, s.oracleKilled, s.planted)
		}
		total.planted += s.planted
		total.killed += s.killed
		total.oracleKilled += s.oracleKilled
	}
	t.Logf("catalog: killed %d/%d mutants (map oracle %d/%d)", total.killed, total.planted, total.oracleKilled, total.planted)
	if total.planted == 0 || total.killed < total.oracleKilled {
		t.Errorf("slot-indexed verify killed %d of %d mutants, the map oracle %d", total.killed, total.planted, total.oracleKilled)
	}
}

// TestVerifyVectorAllocatesNothing guards the hot path the way the data
// path's are guarded: an allocation count, not a wall clock.
func TestVerifyVectorAllocatesNothing(t *testing.T) {
	conga, err := algorithms.ByName("conga")
	if err != nil {
		t.Fatal(err)
	}
	checkZeroAlloc(t, conga.Source, "best_path_util")
	wfq, err := algorithms.ByName("stfq_wfq")
	if err != nil {
		t.Fatal(err)
	}
	checkZeroAlloc(t, wfq.Source, "last_finish")
}
