package main

// The -telemetry experiment: the two-sided observability story (PR 8).
// Each routing policy replays the -faults outage scenario with both
// telemetry planes on. The data plane is the int_stamp packet
// transaction — every hop stamps hop count, max/summed queue depth and
// a path digest into the header, so the sink can reconstruct which
// leaf>spine>leaf paths the policy actually used (CONGA spreads, ECMP
// hashes blindly, flowlets sit between). The control plane is the
// zero-alloc metrics core — per-switch counters and log2 histograms plus
// a deterministic sampled event trace. Everything printed is ordered
// (sorted names, sorted digests), so a fixed seed reproduces this report
// byte for byte.

import (
	"fmt"
	"sort"
	"strings"

	"domino/internal/netsim"
	"domino/internal/telemetry"
)

func telemetryExperiment(seed int64) {
	fmt.Println("== In-band telemetry + metrics core (faulted leaf-spine run, both planes on) ==")
	fmt.Println("   per-path packet counts are decoded from the INT path digest each packet")
	fmt.Println("   accumulated hop by hop (digest = digest*31 + switch_id, a packet transaction);")
	fmt.Println("   histograms are the control-plane sink's log2 buckets (p50/p99 upper bounds)")
	fmt.Println()
	for _, routing := range []string{"ecmp_route", "flowlet_route", "conga_route"} {
		reg := telemetry.NewRegistry()
		ring := telemetry.NewRing(4096, 8, uint64(seed))
		res, err := netsim.RunCoreOutage(netsim.Scenario{
			Routing: routing, Seed: seed,
			INT: true, ECN: true,
			Telemetry: reg, Ring: ring,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("-- %s --\n", routing)

		// Which paths carried the data: the INT digests, decoded against
		// the topology. A rerouting policy shifts weight off the failed
		// leaf0>spine0 uplink during the outage; ECMP cannot.
		paths := res.Fabric.(*netsim.LeafSpine).NamedPathCounts()
		var total int64
		for _, pc := range paths {
			total += pc.Pkts
		}
		fmt.Printf("   %-24s %10s %7s\n", "path (from INT digest)", "pkts", "share")
		for _, pc := range paths {
			fmt.Printf("   %-24s %10d %6.1f%%\n", pc.Name, pc.Pkts, 100*float64(pc.Pkts)/float64(total))
		}

		// The INT record itself, aggregated at the sink.
		fmt.Printf("   %-26s %10s %8s %8s %8s %8s\n", "histogram", "count", "mean", "p50<=", "p99<=", "max")
		for _, name := range []string{"int.hops", "int.qmax_bytes", "int.qdelay_bytes",
			"net.delivery_latency_ticks", "net.fct_ticks"} {
			h := reg.Histogram(name)
			fmt.Printf("   %-26s %10d %8.1f %8d %8d %8d\n",
				name, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
		}

		// Control-plane roll-up: merge every switch's per-port queueing
		// delay histograms into one per-switch line (Histogram.Merge is
		// exact on the integer buckets, so aggregation order is moot).
		type agg struct {
			name string
			h    *telemetry.Histogram
		}
		bySwitch := map[string]*telemetry.Histogram{}
		for _, name := range reg.HistogramNames() {
			i := strings.Index(name, ".qdelay_ticks.p")
			if !strings.HasPrefix(name, "sw.") || i < 0 {
				continue
			}
			key := name[len("sw."):i]
			if bySwitch[key] == nil {
				bySwitch[key] = &telemetry.Histogram{}
			}
			bySwitch[key].Merge(reg.Histogram(name))
		}
		var sws []agg
		for k, h := range bySwitch {
			sws = append(sws, agg{k, h})
		}
		sort.Slice(sws, func(i, j int) bool { return sws[i].name < sws[j].name })
		fmt.Printf("   %-24s %10s %8s %8s %8s\n", "switch qdelay (merged)", "dequeues", "mean", "p99<=", "max")
		for _, s := range sws {
			fmt.Printf("   %-24s %10d %8.1f %8d %8d\n",
				s.name, s.h.Count(), s.h.Mean(), s.h.Quantile(0.99), s.h.Max())
		}

		// The sampled event trace: 1-in-8 of everything the fabric did.
		kc := ring.KindCounts()
		var parts []string
		for k, c := range kc {
			if c > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", telemetry.Kind(k), c))
			}
		}
		fmt.Printf("   trace ring: %d sampled of %d seen (%s)\n",
			ring.Len(), ring.Seen(), strings.Join(parts, " "))
		fmt.Printf("   ecn marked: %d of %d delivered\n\n",
			reg.Counter("net.ecn_marked_pkts").Value(), res.Totals.DeliveredPkts)
	}
	fmt.Println("   the data plane told the story on its own headers: the digest column is")
	fmt.Println("   what CONGA-style rerouting looks like from inside the packets, with no")
	fmt.Println("   simulator introspection — exactly the paper's programmable-switch thesis.")
	fmt.Println()
}
