package netsim

import (
	"strings"
	"testing"

	"domino/internal/workload"
)

// TestFatTreeTopology pins the k-ary fat-tree shape: k pods of k/2 edge
// and k/2 aggregation switches, (k/2)^2 cores, k^3/4 hosts.
func TestFatTreeTopology(t *testing.T) {
	for _, k := range []int{4, 8} {
		ft := buildFT(t, Scenario{Routing: "ecmp_route", K: k})
		half := k / 2
		if got, want := len(ft.Edges), k*half; got != want {
			t.Errorf("k=%d: %d edges, want %d", k, got, want)
		}
		if got, want := len(ft.Aggs), k*half; got != want {
			t.Errorf("k=%d: %d aggs, want %d", k, got, want)
		}
		if got, want := len(ft.Cores), half*half; got != want {
			t.Errorf("k=%d: %d cores, want %d", k, got, want)
		}
		if got, want := len(ft.Hosts), k*k*k/4; got != want {
			t.Errorf("k=%d: %d hosts, want %d", k, got, want)
		}
	}
}

// TestFatTreeFCTConservation runs the heavy-tailed FCT experiment on a
// k=4 fat tree for every leaf routing (Finish checks all four
// conservation identities) and sanity-checks the report.
func TestFatTreeFCTConservation(t *testing.T) {
	for _, routing := range []string{"ecmp_route", "flowlet_route", "conga_route"} {
		routing := routing
		t.Run(routing, func(t *testing.T) {
			t.Parallel()
			res, err := RunScenario(Scenario{
				Routing: routing, K: 4, Seed: 5,
				HeavyTailed: &workload.HeavyTailedConfig{Flows: 64, MeanGapTicks: 100, MaxPkts: 128},
			})
			if err != nil {
				t.Fatal(err)
			}
			fct, tot := res.FCT, res.Totals
			if fct.Completed != fct.Flows {
				t.Errorf("%d of %d flows completed", fct.Completed, fct.Flows)
			}
			if tot.DeliveredPkts != tot.InjectedPkts {
				t.Errorf("delivered %d of %d injected (dropped %d) on a healthy fabric",
					tot.DeliveredPkts, tot.InjectedPkts, tot.DroppedPkts)
			}
			if fct.P50 < 1 || fct.P99 < fct.P50 || fct.Max < fct.P99 {
				t.Errorf("implausible FCT percentiles: p50 %d p99 %d max %d",
					fct.P50, fct.P99, fct.Max)
			}
			t.Logf("%s: %d ticks in %d steps; FCT p50 %d p95 %d p99 %d max %d (mice p99 %d, elephant p99 %d)",
				routing, res.Ticks, res.Steps, fct.P50, fct.P95, fct.P99, fct.Max,
				fct.MiceP99, fct.ElephantP99)
		})
	}
}

// TestFatTreeWatchdogTripsOnWedge stalls an aggregation switch forever
// with traffic queued behind it: the event core must keep stepping the
// wedged state per-tick (never skipping past it) and the no-progress
// watchdog must trip with its diagnostic.
func TestFatTreeWatchdogTripsOnWedge(t *testing.T) {
	n := mustStart(t, Scenario{
		Routing: "ecmp_route", K: 4, Seed: 9,
		HeavyTailed: &workload.HeavyTailedConfig{Flows: 32, MeanGapTicks: 8, MinPkts: 4, MaxPkts: 32},
		Faults: func(f Fabric) *FaultSchedule {
			sched := &FaultSchedule{}
			for _, agg := range f.(*FatTree).Aggs {
				sched.SwitchStall(1, agg) // sever every pod's uplinks — and never recover
			}
			return sched
		},
	}).Net
	n.WatchdogTicks = 256
	err := n.Drain(1 << 20)
	if err == nil {
		t.Fatal("Drain succeeded with every aggregation switch stalled forever")
	}
	if !strings.Contains(err.Error(), "no progress for") {
		t.Fatalf("expected the no-progress watchdog, got: %v", err)
	}
	t.Logf("watchdog tripped as expected: %v", err)
}

// TestFatTreeRejectsBadConfig covers NewFatTree's validation.
func TestFatTreeRejectsBadConfig(t *testing.T) {
	if _, err := (Scenario{Routing: "ecmp_route", K: 3}).Build(); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := (Scenario{Routing: "spine_route", K: 4}).Build(); err == nil {
		t.Error("non-leaf routing accepted")
	}
	if _, err := (Scenario{Routing: "nope", K: 4}).Build(); err == nil {
		t.Error("unknown routing accepted")
	}
}
