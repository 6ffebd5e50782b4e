package netsim

import "testing"

// Unit tests for the windowed presets' math: the pure helpers that
// turn cumulative boundary snapshots into per-window deltas and rates.
// The integration runs exercise them end to end; these pin the
// arithmetic down directly so a windowing bug reads as a one-line diff,
// not a drifted experiment table.

func TestWindowDeltasAndRate(t *testing.T) {
	a := snap{
		dataPkts:  100,
		coreBytes: []int64{1000, 3000, 5000, 7000},
	}
	a.totals.DroppedPkts = 4
	a.totals.BlackholedPkts = 2
	a.totals.CorruptDroppedPkts = 1
	b := snap{
		dataPkts:  350,
		coreBytes: []int64{2000, 4000, 6000, 8000},
	}
	b.totals.DroppedPkts = 10
	b.totals.BlackholedPkts = 9
	b.totals.CorruptDroppedPkts = 5

	w := window("during", 50, a, b)
	if w.Name != "during" || w.Ticks != 50 {
		t.Fatalf("window identity mangled: %+v", w)
	}
	if w.DataPkts != 250 {
		t.Errorf("DataPkts = %d, want the snapshot delta 250", w.DataPkts)
	}
	if w.Rate != 5.0 {
		t.Errorf("Rate = %v, want 250/50 = 5", w.Rate)
	}
	if w.Dropped != 6 || w.Blackholed != 7 || w.CorruptDropped != 4 {
		t.Errorf("loss deltas = %d/%d/%d, want 6/7/4", w.Dropped, w.Blackholed, w.CorruptDropped)
	}
	// Each link moved exactly 1000 bytes in the window, so the *delta*
	// imbalance is 0 even though the cumulative counters are lopsided —
	// windows must compare movement, not totals.
	if w.CoreImbalance != 0 {
		t.Errorf("CoreImbalance = %v on perfectly even per-window movement", w.CoreImbalance)
	}
}

func TestWindowZeroTicksNoDivide(t *testing.T) {
	var a, b snap
	b.dataPkts = 42
	w := window("degenerate", 0, a, b)
	if w.Rate != 0 {
		t.Errorf("zero-tick window produced rate %v", w.Rate)
	}
	if w.DataPkts != 42 {
		t.Errorf("zero-tick window lost its delta: %d", w.DataPkts)
	}
}

func TestWindowImbalanceOfDeltas(t *testing.T) {
	a := snap{coreBytes: []int64{0, 0}}
	b := snap{coreBytes: []int64{3000, 1000}}
	w := window("skewed", 10, a, b)
	// (max-min)/mean over the deltas {3000, 1000}: (3000-1000)/2000 = 1.
	if w.CoreImbalance != 1.0 {
		t.Errorf("CoreImbalance = %v, want 1.0 for {3000, 1000}", w.CoreImbalance)
	}
}

// TestMeanAckTicksAccounting: the loss-recovery latency metric is the
// resolve-sum over acked packets — and 0, not NaN, before any ack.
func TestMeanAckTicksAccounting(t *testing.T) {
	tp := &Transport{}
	if got := tp.MeanAckTicks(); got != 0 {
		t.Fatalf("MeanAckTicks with no acks = %v, want 0", got)
	}
	tp.ackedPkts = 4
	tp.resolveSum = 50
	if got := tp.MeanAckTicks(); got != 12.5 {
		t.Fatalf("MeanAckTicks = %v, want 50/4 = 12.5", got)
	}
}

// TestRecoveryRateAccounting drives the chunked post-recovery goodput
// probe end to end and pins its accounting contract: RecoveryTicks is
// either -1 (never healed within outageEnd) or a positive multiple of
// recoveryChunk inside the post-recovery window — the probe reports
// chunk boundaries, never an interpolated or out-of-range tick.
func TestRecoveryRateAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("reliable replay")
	}
	// flowlet_route detours around the outage, so recovery is fast.
	st, err := runGrayFailureMode(Scenario{Routing: "flowlet_route", Seed: 2}, ModeReliable)
	if err != nil {
		t.Fatal(err)
	}
	if st.BeforeRate <= 0 {
		t.Fatalf("BeforeRate = %v, the pre-fail window measured nothing", st.BeforeRate)
	}
	if st.RecoveryTicks < 0 {
		t.Fatal("flowlet run with a healed fabric never recovered — the probe is broken")
	}
	if st.RecoveryTicks == 0 || st.RecoveryTicks%recoveryChunk != 0 {
		t.Errorf("RecoveryTicks = %d, want a positive multiple of the %d-tick probe chunk",
			st.RecoveryTicks, recoveryChunk)
	}
	if st.RecoveryTicks > outageEnd-outageRecover {
		t.Errorf("RecoveryTicks = %d exceeds the post-recovery window (%d ticks)",
			st.RecoveryTicks, outageEnd-outageRecover)
	}
}

// TestRunGrayFailure runs the raw / rel-rto / reliable comparison
// for ECMP (the routing that cannot detour, so host reliability does
// all the work) under the full gray-failure schedule — outage,
// corruption, reorder, duplication, flap storm, mid-outage switch
// restart — and checks the headline claims: both reliable modes keep
// exactly-once delivery = 1.0, never give up, resolve every packet, the
// schedule actually exercised every fault (retransmissions, corruption
// drops, wire duplicates), and fast retransmit measurably cuts the mean
// ack latency vs RTO-only recovery.
func TestRunGrayFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("full raw+reliable fault replay")
	}
	res, err := RunGrayFailure(Scenario{Routing: "ecmp_route", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, rto, rel := res[0], res[1], res[2]
	if raw.Mode != ModeRaw || rto.Mode != ModeRelRTO || rel.Mode != ModeReliable {
		t.Fatalf("modes out of report order: %s, %s, %s", raw.Mode, rto.Mode, rel.Mode)
	}
	if raw.OfferedPkts == 0 || raw.OfferedPkts != rel.OfferedPkts || raw.OfferedPkts != rto.OfferedPkts {
		t.Fatalf("offered mismatch: raw %d, rel-rto %d, reliable %d", raw.OfferedPkts, rto.OfferedPkts, rel.OfferedPkts)
	}
	for _, st := range []*GrayFailureRun{rto, rel} {
		if st.DeliveredFrac != 1.0 {
			t.Errorf("%s exactly-once fraction %.6f, want exactly 1.0", st.Mode, st.DeliveredFrac)
		}
		if st.Transport.GivenUpPkts != 0 {
			t.Errorf("%s run gave up %d packets under a survivable schedule", st.Mode, st.Transport.GivenUpPkts)
		}
		if st.Transport.OutstandingPkts != 0 {
			t.Errorf("%s: %d packets unresolved after drain", st.Mode, st.Transport.OutstandingPkts)
		}
		if st.Transport.RetransPkts == 0 {
			t.Errorf("%s: no retransmissions; the schedule destroyed nothing and the test is vacuous", st.Mode)
		}
		if st.Totals.CorruptDroppedPkts == 0 {
			t.Errorf("%s: checksum validation never fired under 5 per-mille corruption", st.Mode)
		}
		if st.Totals.DupInjectedPkts == 0 {
			t.Errorf("%s: duplication window injected no wire copies", st.Mode)
		}
		if st.BeforeRate <= 0 {
			t.Errorf("%s: no goodput measured before the failure window", st.Mode)
		}
	}
	// The new machinery vs the old: fast retransmit fires only in the
	// full reliable mode, and buys a measurably shorter loss-recovery
	// latency than waiting out RTO expiries.
	if rto.Transport.FastRetransPkts != 0 {
		t.Errorf("rel-rto mode fast-retransmitted %d packets with the feature disabled", rto.Transport.FastRetransPkts)
	}
	if rel.Transport.FastRetransPkts == 0 {
		t.Error("reliable mode never fast-retransmitted under duplicate-ACK evidence")
	}
	if rel.MeanAckTicks >= rto.MeanAckTicks {
		t.Errorf("fast retransmit did not cut mean ack latency: reliable %.1f >= rel-rto %.1f",
			rel.MeanAckTicks, rto.MeanAckTicks)
	}
	// Raw hosts cannot dedup wire duplicates, so their "delivered"
	// count legitimately overshoots; reliable must not.
	if rel.DeliveredFrac > 1 {
		t.Errorf("reliable delivered fraction above 1: %.6f", rel.DeliveredFrac)
	}
}
