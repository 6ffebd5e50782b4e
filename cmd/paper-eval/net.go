package main

// The -net experiment: the network-level evaluation the paper's routing
// case studies (ECMP baselines, flowlet switching, CONGA) are judged by.
// A leaf-spine fabric of compiled-pipeline switches replays a cross-leaf
// permutation traffic matrix once per routing policy; the table compares
// core load balance and flow completion times. Routing decisions are
// ordinary Domino transactions (internal/algorithms/routing.go) running
// in each leaf's ingress pipeline — the simulator only honors the
// out_port field they write.

import (
	"fmt"

	"domino/internal/netsim"
)

func netExperiment(seed int64) {
	fmt.Println("== Leaf-spine load balance (4 leaves × 2 spines, cross-leaf permutation matrix) ==")
	fmt.Println("   routing runs as a Domino transaction in each leaf's ingress pipeline;")
	fmt.Println("   imbalance is (max-min)/mean over core-link bytes, lower is better")
	fmt.Println()
	fmt.Printf("%-16s %10s %12s %10s %10s %10s %9s %7s\n",
		"routing", "imbalance", "max core uti", "fct mean", "fct p95", "fct max", "delivered", "drops")
	for _, routing := range []string{"ecmp_route", "flowlet_route", "conga_route"} {
		res, err := netsim.RunScenario(netsim.Scenario{Routing: routing, Seed: seed})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-16s %10.3f %12.3f %10.1f %10d %10d %9d %7d\n",
			routing, res.Imbalance, res.MaxCoreUtil,
			res.FCT.Mean, res.FCT.P95, res.FCT.Max, res.Totals.DeliveredPkts, res.Totals.DroppedPkts)
	}
	fmt.Println()
	fmt.Println("   ECMP pins each flow to one hashed path, so colliding elephants stay")
	fmt.Println("   collided; flowlet switching re-picks at burst boundaries; CONGA steers")
	fmt.Println("   by reflected path-utilization feedback (both as packet transactions).")
}
