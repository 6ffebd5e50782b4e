package netsim

import (
	"strings"
	"testing"

	"domino/internal/workload"
)

// buildReliable assembles a leaf-spine fabric with ECN-marking programs,
// installs the experiment trace and enables the transport.
func buildReliable(t *testing.T, c Scenario, tc TransportConfig) (*LeafSpine, *Transport) {
	t.Helper()
	c.ECN = true
	c.Transport = &tc
	r := mustStart(t, c)
	return r.Fabric.(*LeafSpine), r.Transport
}

// checkReliable asserts the end state every reliable run must reach:
// transport done, all conservation identities intact, no leaked headers,
// and every trace packet resolved exactly once unless given up.
func checkReliable(t *testing.T, ls *LeafSpine, tp *Transport) (NetTotals, TransportTotals) {
	t.Helper()
	checkNet(t, ls.Net)
	if live := ls.Net.LiveHeaders(); live != 0 {
		t.Fatalf("reliable run leaked %d headers", live)
	}
	if !tp.Done() {
		t.Fatal("drained network but transport not done")
	}
	nt, tt := ls.Net.Totals(), tp.Totals()
	if nt.AcceptedPkts+tt.GivenUpPkts < tt.OfferedPkts {
		t.Fatalf("%d offered, but only %d accepted + %d given up",
			tt.OfferedPkts, nt.AcceptedPkts, tt.GivenUpPkts)
	}
	return nt, tt
}

// TestReliableHealthyDelivery: on a healthy fabric every trace packet is
// delivered exactly once, nothing is given up, and every flow completes.
func TestReliableHealthyDelivery(t *testing.T) {
	for _, routing := range []string{"ecmp_route", "conga_route"} {
		ls, tp := buildReliable(t, Scenario{Routing: routing, Seed: 1}, TransportConfig{})
		if err := ls.Net.Drain(1 << 20); err != nil {
			t.Fatalf("%s: %v", routing, err)
		}
		nt, tt := checkReliable(t, ls, tp)
		if tt.GivenUpPkts != 0 {
			t.Errorf("%s: %d packets given up on a healthy fabric", routing, tt.GivenUpPkts)
		}
		if nt.AcceptedPkts != tt.OfferedPkts {
			t.Errorf("%s: accepted %d != offered %d", routing, nt.AcceptedPkts, tt.OfferedPkts)
		}
		for f, fct := range ls.Net.FlowFCTs() {
			if fct < 0 {
				t.Errorf("%s: flow %d never completed", routing, f)
			}
		}
		t.Logf("%s: offered %d, retrans %d, dups %d, acks %d, rate cuts %d",
			routing, tt.OfferedPkts, tt.RetransPkts, nt.DupDroppedPkts, nt.FbDeliveredPkts, tt.RateCuts)
	}
}

// reliableFaultSchedule is the PR 6-style mixed schedule the exactly-once
// and determinism tests replay: a core uplink outage window, a 5‰
// corruption window on another uplink, and a spine crash window — the
// crash matters because port_up detouring (PR 6) sidesteps the link
// outage for failure-aware routings, while a crashed spine destroys
// traffic no routing policy can route around.
func reliableFaultSchedule(ls *LeafSpine) *FaultSchedule {
	return (&FaultSchedule{Seed: 42}).
		LinkDown(500, ls.Leaves[0], 0).
		LinkUp(1500, ls.Leaves[0], 0).
		LinkCorrupt(200, ls.Leaves[1], 1, 5).
		LinkCorrupt(2500, ls.Leaves[1], 1, 0).
		SwitchCrash(250, ls.Spines[1]).
		SwitchUp(450, ls.Spines[1])
}

// TestReliableExactlyOnceUnderFaults is the acceptance property at test
// scale: under a core outage and 5‰ corruption, even failure-blind ECMP
// delivers every packet exactly once — recovery by retransmission where
// PR 6's raw mode simply lost them.
func TestReliableExactlyOnceUnderFaults(t *testing.T) {
	for _, routing := range []string{"ecmp_route", "flowlet_route"} {
		ls, tp := buildReliable(t,
			Scenario{Routing: routing, Seed: 1, PktsPerFlow: 96},
			TransportConfig{})
		if err := ls.Net.SetFaults(reliableFaultSchedule(ls)); err != nil {
			t.Fatal(err)
		}
		if err := ls.Net.Drain(1 << 20); err != nil {
			t.Fatalf("%s: %v", routing, err)
		}
		nt, tt := checkReliable(t, ls, tp)
		frac := float64(nt.AcceptedPkts) / float64(tt.OfferedPkts)
		if frac < 0.999 {
			t.Errorf("%s: exactly-once fraction %.4f, want >= 0.999", routing, frac)
		}
		if tt.GivenUpPkts != 0 {
			t.Errorf("%s: %d given up; the outage is shorter than the retry budget", routing, tt.GivenUpPkts)
		}
		if nt.BlackholedPkts == 0 && nt.CorruptDroppedPkts == 0 {
			t.Errorf("%s: schedule destroyed nothing; test is vacuous", routing)
		}
		if tt.RetransPkts == 0 {
			t.Errorf("%s: losses but no retransmissions", routing)
		}
		t.Logf("%s: exactly-once %.4f (offered %d, retrans %d, dups %d, blackholed %d, corrupt %d)",
			routing, frac, tt.OfferedPkts, tt.RetransPkts, nt.DupDroppedPkts,
			nt.BlackholedPkts, nt.CorruptDroppedPkts)
	}
}

// TestReliableGivesUpLoudly: with the only spine crashed for the whole
// run, every packet exhausts its retry budget and is counted GivenUp —
// bounded, loud failure instead of a wedged drain or silent loss.
func TestReliableGivesUpLoudly(t *testing.T) {
	c := Scenario{Routing: "ecmp_route", Seed: 1, Leaves: 2, Spines: 1, HostsPerLeaf: 1, PktsPerFlow: 16}
	ls, tp := buildReliable(t, c, TransportConfig{RTO: 8, RTOMax: 64, MaxRetries: 3})
	if err := ls.Net.SetFaults((&FaultSchedule{}).SwitchCrash(1, ls.Spines[0])); err != nil {
		t.Fatal(err)
	}
	if err := ls.Net.Drain(1 << 20); err != nil {
		t.Fatal(err)
	}
	nt, tt := checkReliable(t, ls, tp)
	if tt.GivenUpPkts != tt.OfferedPkts || tt.GivenUpPkts == 0 {
		t.Fatalf("given up %d, want every offered packet (%d)", tt.GivenUpPkts, tt.OfferedPkts)
	}
	if nt.AcceptedPkts != 0 {
		t.Fatalf("%d packets accepted through a crashed spine", nt.AcceptedPkts)
	}
	// Budget respected: each packet sent 1 + MaxRetries times at most.
	if tt.RetransPkts > tt.OfferedPkts*3 {
		t.Fatalf("%d retransmits for %d packets exceeds the budget of 3", tt.RetransPkts, tt.OfferedPkts)
	}
}

// TestReliableECNBackoff: a congested fabric (slow core, low mark
// threshold) must produce ECN marks, echoed marks must cut send rates
// (RateCuts), and delivery stays exactly-once.
func TestReliableECNBackoff(t *testing.T) {
	c := Scenario{Routing: "ecmp_route", Seed: 1, PktsPerFlow: 48,
		UplinkBytesPerTick: 800, ECNThresholdBytes: 3000}
	ls, tp := buildReliable(t, c, TransportConfig{})
	if err := ls.Net.Drain(1 << 20); err != nil {
		t.Fatal(err)
	}
	nt, tt := checkReliable(t, ls, tp)
	if tt.RateCuts == 0 {
		t.Error("congested run produced no rate cuts; ECN echo path dead")
	}
	if nt.AcceptedPkts != tt.OfferedPkts || tt.GivenUpPkts != 0 {
		t.Errorf("congestion broke delivery: accepted %d / offered %d, given up %d",
			nt.AcceptedPkts, tt.OfferedPkts, tt.GivenUpPkts)
	}
}

// TestReliableDeterminism: the faulted reliable run is byte-identical
// across replays — delivery sequence, network totals and transport
// totals (the -race CI job runs this too).
func TestReliableDeterminism(t *testing.T) {
	run := func() ([]delivery, NetTotals, TransportTotals) {
		ls, tp := buildReliable(t,
			Scenario{Routing: "flowlet_route", Seed: 1, PktsPerFlow: 48},
			TransportConfig{})
		if err := ls.Net.SetFaults(reliableFaultSchedule(ls)); err != nil {
			t.Fatal(err)
		}
		rec := recordDeliveries(ls.Net)
		if err := ls.Net.Drain(1 << 20); err != nil {
			t.Fatal(err)
		}
		checkReliable(t, ls, tp)
		return *rec, ls.Net.Totals(), tp.Totals()
	}
	seqA, netA, tpA := run()
	seqB, netB, tpB := run()
	if netA != netB {
		t.Fatalf("network totals differ:\n%+v\n%+v", netA, netB)
	}
	if tpA != tpB {
		t.Fatalf("transport totals differ:\n%+v\n%+v", tpA, tpB)
	}
	if len(seqA) != len(seqB) {
		t.Fatalf("delivery counts differ: %d vs %d", len(seqA), len(seqB))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, seqA[i], seqB[i])
		}
	}
}

// TestReliableHotPathZeroAlloc: the steady-state reliable loop — wheel
// service, sends, retransmits, ACK processing, dedup, ECN pokes — must
// not allocate. The trace is replayed once to warm pools and wheel, then
// replayed under AllocsPerRun via Reset.
func TestReliableHotPathZeroAlloc(t *testing.T) {
	ls, tp := buildReliable(t,
		Scenario{Routing: "ecmp_route", Seed: 1, PktsPerFlow: 32},
		TransportConfig{})
	if err := ls.Net.Drain(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, tt := checkReliable(t, ls, tp); tt.GivenUpPkts != 0 {
		t.Fatalf("warmup gave up %d packets", tt.GivenUpPkts)
	}
	allocs := testing.AllocsPerRun(20000, func() {
		if tp.Done() {
			if err := tp.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		mustStep(t, ls.Net)
	})
	if allocs != 0 {
		t.Fatalf("reliable hot path allocates %.2f times per tick, want 0", allocs)
	}
	checkNet(t, ls.Net)
}

// TestTransportValidation: the misuse guards around EnableTransport,
// InjectNow and Reset all error instead of corrupting state.
func TestTransportValidation(t *testing.T) {
	c := Scenario{Routing: "ecmp_route", Seed: 1, Leaves: 2, Spines: 1, HostsPerLeaf: 1, PktsPerFlow: 4}
	c.setDefaults()
	c.ECN = true
	ls := buildLS(t, c)
	if _, err := ls.Net.EnableTransport(TransportConfig{}); err == nil {
		t.Fatal("EnableTransport accepted with no trace")
	}
	if err := ls.Net.SetTrace(c.Trace(), ls.Hosts); err != nil {
		t.Fatal(err)
	}
	tp, err := ls.Net.EnableTransport(TransportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Net.EnableTransport(TransportConfig{}); err == nil {
		t.Fatal("double EnableTransport accepted")
	}
	if err := ls.Net.InjectNow(&workload.NetPacket{Src: 0, Dst: 1, Size: 100}); err == nil {
		t.Fatal("InjectNow accepted while the transport owns injection")
	}
	if err := tp.Reset(); err == nil {
		t.Fatal("Reset accepted with unresolved packets")
	}
	if err := ls.Net.Drain(1 << 20); err != nil {
		t.Fatal(err)
	}
	checkReliable(t, ls, tp)

	// Enabling after the clock started is refused.
	ls2 := buildLS(t, c)
	if err := ls2.Net.SetTrace(c.Trace(), ls2.Hosts); err != nil {
		t.Fatal(err)
	}
	mustStep(t, ls2.Net)
	if _, err := ls2.Net.EnableTransport(TransportConfig{}); err == nil {
		t.Fatal("EnableTransport accepted mid-run")
	}
}

// TestWatchdogBelowLinkDelay: Start refuses a watchdog that cannot tell
// a packet in flight from a wedged network (satellite of PR 7).
func TestWatchdogBelowLinkDelay(t *testing.T) {
	c := Scenario{Routing: "ecmp_route", Seed: 1, Leaves: 2, Spines: 1, HostsPerLeaf: 1, LinkDelay: 10}
	ls := buildLS(t, c)
	ls.Net.WatchdogTicks = 10 // == longest delay: still ambiguous
	err := ls.Net.Start()
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("Start with watchdog <= link delay: %v, want watchdog error", err)
	}
	ls.Net.WatchdogTicks = 11
	if err := ls.Net.Start(); err != nil {
		t.Fatal(err)
	}

	// The default watchdog is also checked against extreme delays.
	c2 := c
	c2.LinkDelay = defaultWatchdogTicks + 1
	ls2 := buildLS(t, c2)
	if err := ls2.Net.Start(); err == nil {
		t.Fatal("Start accepted a link delay beyond the default watchdog")
	}
}
