package netsim

import (
	"reflect"
	"testing"
)

// TestChaosSoakSmoke is the in-tree slice of the chaos soak: enough
// seeded schedules to cover every fault kind, both transport modes and
// all three routings, with replay determinism sampled along the way.
// The full-size soak (1000+ schedules) runs via `make soak` /
// `paper-eval -soak`.
func TestChaosSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	st, err := RunSoak(SoakConfig{Runs: 30, Seed: 7, ReplayEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Coverage(); err != nil {
		t.Error(err)
	}
	// Field for field what this seed produced before the soak became a
	// Scenario preset (recorded at 17293da): the schedules bite — every
	// gray-failure effect shows up in the aggregate — and the refactor
	// moved none of it.
	want := SoakStats{
		Runs: 30, ReliableRuns: 15, RawRuns: 15, Replays: 3,
		FaultEvents: map[FaultKind]int64{
			FaultLinkDown: 57, FaultLinkUp: 65, FaultLinkDegrade: 14, FaultLinkCorrupt: 17,
			FaultSwitchStall: 13, FaultSwitchCrash: 11, FaultSwitchUp: 30,
			FaultLinkReorder: 22, FaultLinkDuplicate: 20, FaultSwitchRestart: 21,
		},
		InjectedPkts: 3376, DeliveredPkts: 3245, DupInjectedPkts: 25,
		BlackholedPkts: 154, CorruptDroppedPkts: 2,
		RetransPkts: 435, FastRetransPkts: 9, GivenUpPkts: 0,
	}
	if !reflect.DeepEqual(*st, want) {
		t.Errorf("soak aggregate moved:\n got  %+v\n want %+v", *st, want)
	}
}

// TestSoakCoverageComplains: the coverage oracle names the missing kind.
func TestSoakCoverageComplains(t *testing.T) {
	st := &SoakStats{FaultEvents: map[FaultKind]int64{}}
	for _, k := range FaultKinds() {
		st.FaultEvents[k] = 1
	}
	if err := st.Coverage(); err != nil {
		t.Fatalf("full coverage rejected: %v", err)
	}
	delete(st.FaultEvents, FaultLinkReorder)
	err := st.Coverage()
	if err == nil {
		t.Fatal("missing link-reorder coverage accepted")
	}
}
