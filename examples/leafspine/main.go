// Leaf-spine fabric: the paper's routing case studies as a network.
//
// Four leaf switches, two spines, eight hosts. Every switch runs its own
// compiled Domino pipeline; the leaf pipelines are the routing
// transactions from the catalog (ECMP hashing, flowlet path pinning,
// CONGA utilization feedback), and the simulator merely honors the
// out_port field they write. A cross-leaf permutation traffic matrix —
// every host sends to a host under a different leaf, so all data crosses
// the core — is replayed once per policy, and the example compares how
// evenly each spreads bytes over the eight core uplinks, plus the flow
// completion times that balance buys.
package main

import (
	"fmt"
	"log"

	"domino/internal/netsim"
	"domino/internal/telemetry"
)

func main() {
	fmt.Println("leaf-spine fabric: 4 leaves × 2 spines, 2 hosts per leaf")
	fmt.Println("traffic: cross-leaf permutation, bursty flows (the flowlet regime)")
	fmt.Println()
	fmt.Printf("%-18s %12s %14s %10s %10s\n",
		"routing policy", "imbalance", "max core util", "fct mean", "fct p95")

	routings := []string{"ecmp_route", "flowlet_route", "conga_route"}
	var results []*netsim.Result
	for _, routing := range routings {
		// RunScenario drains the run under the conservation and
		// pool-leak oracles before it summarizes.
		res, err := netsim.RunScenario(netsim.Scenario{Routing: routing, Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %12.3f %14.3f %10.1f %10d\n",
			routing, res.Imbalance, res.MaxCoreUtil, res.FCT.Mean, res.FCT.P95)
		results = append(results, res)
	}

	fmt.Println("\nper-core-link bytes (leaf↔spine, both directions):")
	for i, res := range results {
		fmt.Printf("%-18s", routings[i])
		for _, b := range res.CoreBytes {
			fmt.Printf(" %8d", b)
		}
		fmt.Println()
	}

	fmt.Println("\nECMP hashes each flow onto one fixed uplink, so colliding flows leave")
	fmt.Println("other links idle. Flowlet switching re-picks the uplink at burst")
	fmt.Println("boundaries; CONGA follows reflected (path, utilization) feedback and")
	fmt.Println("probes alternates — both expressed purely as packet transactions.")

	// Fault injection: the same fabric, but one core uplink fails mid-run
	// and recovers later. port_up-aware transactions (flowlet, CONGA)
	// detour around the dead link; ECMP never consults liveness, so its
	// hashed share of traffic stalls for the whole outage.
	fmt.Println("\nwith a seeded core-link failure (leaf-0 → spine-0 down mid-run):")
	fmt.Printf("%-18s %10s %10s %10s %10s\n",
		"routing policy", "before", "during", "after", "recovery")
	for _, routing := range routings {
		res, err := netsim.RunCoreOutage(netsim.Scenario{Routing: routing, Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %10.3f %10.3f %10.3f %10.3f\n",
			routing, res.Before.Rate, res.During.Rate, res.After.Rate, res.Recovery)
	}
	fmt.Println("\nrates are data packets sunk per tick; recovery = during/before. The")
	fmt.Println("fault harness pokes each leaf's port_up state array at the up/down")
	fmt.Println("boundaries — rerouting is the transaction's decision, not the simulator's.")

	// Reliable delivery: the same outage plus a 5‰ corruption window,
	// replayed raw (lost is lost) and with the PR 7 host transport —
	// sequence numbers, retransmission with backoff, sink-side dedup,
	// and AIMD pacing driven by an ECN mark that is itself a packet
	// transaction (ecn_mark, embedded in every switch program).
	fmt.Println("\nwith reliable host transport under the outage + 5‰ corruption:")
	fmt.Printf("%-18s %-9s %11s %9s %9s %9s\n",
		"routing policy", "mode", "delivered", "overhead", "givenup", "recovery")
	for _, routing := range routings {
		modes, err := netsim.RunGrayFailure(netsim.Scenario{Routing: routing, Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		for _, st := range modes {
			rec := "never"
			if st.RecoveryTicks >= 0 {
				rec = fmt.Sprintf("%d", st.RecoveryTicks)
			}
			fmt.Printf("%-18s %-9s %10.4f%% %9.4f %9d %9s\n",
				routing, st.Mode, 100*st.DeliveredFrac, st.RetransOverhead,
				st.Transport.GivenUpPkts, rec)
		}
	}
	fmt.Println("\ndelivered is the exactly-once fraction of offered packets (the sink")
	fmt.Println("checksums, dedups and ACKs over the CONGA feedback path); overhead is")
	fmt.Println("retransmitted copies per offered packet. A packet that exhausts its")
	fmt.Println("retry budget is counted given-up — loudly, never silently dropped.")

	// In-band telemetry (PR 8): the int_stamp transaction makes each
	// packet its own measurement probe. Every hop stamps a hop count, the
	// running max and sum of queue depths, and folds its switch id into a
	// path digest — so the receiving host can name the exact path the
	// packet took without asking the simulator. A telemetry.Registry
	// (control-plane metrics) and a sampled event ring ride along; with
	// both nil the instrumented code paths cost nothing.
	fmt.Println("\nwith in-band telemetry (int_stamp in every switch program, ECMP run):")
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(1024, 8, 42)
	res, err := netsim.RunScenario(netsim.Scenario{
		Routing: "ecmp_route", Seed: 42,
		INT: true, ECN: true,
		Telemetry: reg, Ring: ring,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %10s\n", "path (decoded digest)", "pkts")
	for _, pc := range res.Fabric.(*netsim.LeafSpine).NamedPathCounts() {
		fmt.Printf("%-22s %10d\n", pc.Name, pc.Pkts)
	}
	hops := reg.Histogram("int.hops")
	lat := reg.Histogram("net.delivery_latency_ticks")
	fmt.Printf("\nINT hop count: mean %.1f  max %d (leaf>spine>leaf = 3)\n", hops.Mean(), hops.Max())
	fmt.Printf("delivery latency ticks: p50<=%d  p99<=%d  max %d\n",
		lat.Quantile(0.5), lat.Quantile(0.99), lat.Max())
	fmt.Printf("trace ring: kept %d of %d events (deterministic 1-in-8 sample)\n", ring.Len(), ring.Seen())
	fmt.Println("\nthe per-path table is computed from digests the packets carried —")
	fmt.Println("the data plane measured itself, which is the paper's thesis applied")
	fmt.Println("to observability: telemetry as a packet transaction, not simulator code.")
}
