package main

// The -faults experiment: graceful degradation under a seeded core-link
// failure. One leaf uplink goes down mid-run and comes back later; the
// table shows each routing policy's delivered rate before, during, and
// after the outage. flowlet_route and conga_route consult the per-switch
// port_up liveness array (poked by the fault harness at the up/down
// boundaries) and detour around the dead uplink; ecmp_route never reads
// it, so its hashed share of traffic stalls behind the frozen port for
// the whole outage.

import (
	"fmt"

	"domino/internal/netsim"
)

func faultsExperiment(seed int64) {
	fmt.Println("== Routing under a core-link failure (leaf-0 uplink to spine-0 down, then restored) ==")
	fmt.Println("   rate is data packets sunk per tick; recovery = during/before;")
	fmt.Println("   imbalance is (max-min)/mean over core-link bytes moved in the window")
	fmt.Println()
	fmt.Printf("%-16s %8s %8s %8s %9s %9s %11s %11s %7s\n",
		"routing", "before", "during", "after", "recovery", "post-rec", "imb during", "blackholed", "drops")
	for _, routing := range []string{"ecmp_route", "flowlet_route", "conga_route"} {
		res, err := netsim.RunCoreOutage(netsim.Scenario{Routing: routing, Seed: seed})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-16s %8.3f %8.3f %8.3f %9.3f %9.3f %11.3f %11d %7d\n",
			routing, res.Before.Rate, res.During.Rate, res.After.Rate,
			res.Recovery, res.PostRecovery, res.During.CoreImbalance,
			res.Totals.BlackholedPkts, res.Totals.DroppedPkts)
	}
	fmt.Println()
	fmt.Println("   packets in flight on the failing uplink are blackholed at the failure")
	fmt.Println("   instant (conservation counts them; delay-1 links make that window one")
	fmt.Println("   tick, often empty); port_up-aware transactions reroute the rest, while")
	fmt.Println("   ECMP stays blind and its hashed share waits out the outage.")
}
