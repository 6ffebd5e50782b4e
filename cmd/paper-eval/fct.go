package main

// The -fct experiment: flow completion times on a k-ary fat tree under a
// heavy-tailed flow-arrival workload — the datacenter evaluation shape
// the load-balancing papers (CONGA, and the transactions this repo
// compiles) report against. Flows arrive as a Poisson process and carry
// bounded-Pareto-sized bursts, so the trace is mostly idle time between
// bursts; the event-driven simulation core (PR 10) skips the idle ticks,
// and the report closes by measuring that: the same fabric and trace
// replayed once per-tick and once event-driven, equal simulated ticks,
// wall-clock side by side.

import (
	"fmt"
	"runtime"
	"time"

	"domino/internal/netsim"
	"domino/internal/workload"
)

func fctExperiment(k int, seed int64) {
	podHosts := k * k * k / 4
	fmt.Printf("== Fat-tree FCT (k=%d: %d hosts, %d edge + %d agg + %d core switches) ==\n",
		k, podHosts, k*k/2, k*k/2, k*k/4)
	fmt.Println("   heavy-tailed workload: Poisson flow arrivals, bounded-Pareto sizes (α=1.1);")
	fmt.Println("   mice are flows <10 pkts, elephants ≥100 pkts; FCTs in simulated ticks")
	fmt.Println()

	routings := []string{"ecmp_route", "flowlet_route"}
	// conga_route's leaf table is capped at 64 leaves; a k-ary fat tree
	// has k²/2 edge switches, so CONGA runs up to k=8.
	if k*k/2 <= 64 {
		routings = append(routings, "conga_route")
	} else {
		fmt.Printf("   (conga_route skipped: %d edges exceed its 64-leaf table)\n\n", k*k/2)
	}

	cfg := func(routing string) netsim.Scenario {
		return netsim.Scenario{
			Routing: routing, K: k, Seed: seed,
			HeavyTailed: &workload.HeavyTailedConfig{MeanGapTicks: 96, MaxPkts: 256},
		}
	}

	fmt.Printf("%-16s %8s %8s %8s %8s %9s %12s %10s %7s\n",
		"routing", "fct p50", "fct p95", "fct p99", "fct max", "mice p99", "elephant p99", "delivered", "drops")
	for _, routing := range routings {
		res, err := netsim.RunScenario(cfg(routing))
		if err != nil {
			fatal(err)
		}
		fct := res.FCT
		if fct.Completed != fct.Flows {
			fatal(fmt.Errorf("%s: only %d of %d flows completed", routing, fct.Completed, fct.Flows))
		}
		fmt.Printf("%-16s %8d %8d %8d %8d %9d %12d %10d %7d\n",
			routing, fct.P50, fct.P95, fct.P99, fct.Max,
			fct.MiceP99, fct.ElephantP99, res.Totals.DeliveredPkts, res.Totals.DroppedPkts)
	}
	fmt.Println()

	// The event-core payoff: identical fabric + trace, driven per-tick
	// and event-driven to the same final tick. Both runs carry the full
	// conservation oracle; only the driver differs.
	fmt.Println("   event core vs per-tick polling (same fabric, same trace, equal simulated ticks):")
	c := cfg(routings[0])

	build := func() *netsim.Network {
		r, err := c.Start()
		if err != nil {
			fatal(err)
		}
		return r.Net
	}

	// Collect before each timed replay, so that neither is charged for the
	// garbage of the fabric builds before it.
	evN := build()
	runtime.GC()
	start := time.Now()
	if err := evN.Drain(netsim.DrainLimit); err != nil {
		fatal(err)
	}
	evWall := time.Since(start)
	ticks := evN.Now()

	polledN := build()
	runtime.GC()
	start = time.Now()
	for polledN.Now() < ticks {
		if err := polledN.Step(); err != nil {
			fatal(err)
		}
	}
	polledWall := time.Since(start)

	for _, n := range []*netsim.Network{evN, polledN} {
		if err := n.CheckConservation(); err != nil {
			fatal(err)
		}
	}
	if et, pt := evN.Totals(), polledN.Totals(); et != pt {
		fatal(fmt.Errorf("event and polled cores disagree:\n  event  %+v\n  polled %+v", et, pt))
	}

	speedup := float64(polledWall) / float64(evWall)
	fmt.Printf("   %-12s %12s wall for %d ticks (%d steps processed, %.1f%% skipped)\n",
		"event:", evWall.Round(time.Microsecond), ticks, evN.Steps(),
		100*float64(ticks-evN.Steps())/float64(ticks))
	fmt.Printf("   %-12s %12s wall for %d ticks (every tick stepped)\n",
		"polled:", polledWall.Round(time.Microsecond), ticks)
	fmt.Printf("   speedup: %.1f× (identical totals, conservation holds on both)\n\n", speedup)
}
