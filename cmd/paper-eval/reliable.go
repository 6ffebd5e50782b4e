package main

// The -reliable experiment: end-to-end reliable transport under the
// gray-failure schedule — the -faults core outage plus windows of
// per-mille corruption, bounded in-flight reordering and per-mille
// duplication on a second uplink, a down/up flap storm on a third, and
// a mid-outage leaf power-cycle that wipes its routing soft state. Each
// routing policy runs the same trace three times — raw (PR 6 hosts:
// inject once, lost is lost), rel-rto (PR 7 hosts: retransmit on RTO
// expiry only), and reliable (PR 9: plus duplicate-ACK fast retransmit)
// — so the delivered-exactly-once fraction, the retransmit overhead and
// the mean ack latency isolate what each layer of host reliability buys.

import (
	"fmt"

	"domino/internal/netsim"
)

func reliableExperiment(seed int64) {
	fmt.Println("== Reliable transport under gray failure: outage + corruption +")
	fmt.Println("   reorder + duplication + flap storm + mid-outage switch restart ==")
	fmt.Println("   delivered is the exactly-once fraction of offered trace packets;")
	fmt.Println("   overhead = retransmitted copies / offered; fastrx = the share of")
	fmt.Println("   those triggered by duplicate-ACK evidence instead of an RTO expiry;")
	fmt.Println("   ack = mean ticks from a packet's first send to its acknowledgment")
	fmt.Println("   (retransmitted packets included — the loss-recovery latency);")
	fmt.Println("   recovery = ticks after the fabric heals until goodput sustains 90%")
	fmt.Println("   of its pre-fail rate")
	fmt.Println()
	fmt.Printf("%-16s %-9s %10s %9s %7s %7s %8s %8s %9s %9s\n",
		"routing", "mode", "delivered", "overhead", "fastrx", "dups", "givenup", "ack", "recovery", "blackhole")
	recovery := func(t int64) string {
		if t < 0 {
			return "never"
		}
		return fmt.Sprintf("%d", t)
	}
	for _, routing := range []string{"ecmp_route", "flowlet_route", "conga_route"} {
		modes, err := netsim.RunGrayFailure(netsim.Scenario{
			Routing: routing, Seed: seed,
			Transport: &netsim.TransportConfig{Seed: seed},
		})
		if err != nil {
			fatal(err)
		}
		for _, st := range modes {
			fmt.Printf("%-16s %-9s %9.4f%% %9.4f %7d %7d %8d %8.1f %9s %9d\n",
				routing, st.Mode, 100*st.DeliveredFrac, st.RetransOverhead,
				st.Transport.FastRetransPkts, st.Totals.DupDroppedPkts, st.Transport.GivenUpPkts, st.MeanAckTicks,
				recovery(st.RecoveryTicks), st.Totals.BlackholedPkts)
		}
	}
	fmt.Println()
	fmt.Println("   raw mode loses whatever the faults destroy — and, having no")
	fmt.Println("   end-to-end checksum or dedup, it even counts a wire duplicate or a")
	fmt.Println("   misdelivered scrambled packet as a success. The reliable hosts")
	fmt.Println("   validate, dedup and retransmit (the ECN mark is a packet transaction")
	fmt.Println("   in the switch programs, not simulator code) and deliver every packet")
	fmt.Println("   exactly once — or give up loudly, never silently. rel-rto waits out")
	fmt.Println("   the timeout on every loss; reliable resends on k duplicate ACKs and")
	fmt.Println("   cuts the mean ack latency.")
}
