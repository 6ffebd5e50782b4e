package netsim

// The two windowed experiments, as presets over the Scenario runner. Both
// put the load-balance scenario under one timeline — a directed core
// uplink (leaf 0 → spine 0) goes down mid-run and comes back — and
// measure delivered data in the windows before, during and after it.
//
// Core outage (paper-eval -faults): the recovery ratio during/before
// separates routing transactions that read port_up and detour
// (flowlet_route, conga_route) from ones that keep feeding the dead port
// (ecmp_route). Only the leaf→spine direction fails: the spine's downlink
// routing is a fixed positional mapping (spine_route has no alternative
// path to a leaf), so failing both directions would blackhole other
// leaves' traffic regardless of the leaf policy under test.
//
// Gray failure (paper-eval -reliable): the same outage plus corruption,
// reordering and duplication on a second uplink, a flap storm on a third
// and a mid-outage leaf restart, replayed per host mode — raw, reliable
// with RTO-only recovery, reliable with fast retransmit — over the same
// trace, seed and schedule, so the runs differ only in host behavior. The
// headline numbers are the delivered-exactly-once fraction, the
// retransmit overhead the reliability costs, and how long after the
// fabric heals the goodput takes to recover.

import "fmt"

// The outage timeline, in ticks, and the knobs of the gray-failure
// schedule riding it. No caller ever varied them, so they are constants.
const (
	outageWarm    = 500  // measurement starts
	outageFail    = 1500 // leaf 0's uplink to spine 0 goes down
	outageRecover = 3000 // and comes back
	outageEnd     = 4500 // measurement ends

	// Leaf 1's uplink to spine 0 — a different leaf than the outage, so
	// it keeps biting while the outage link is down — scrambles 5‰ of its
	// packets, shuffles the in-flight ones within a window of 4 and
	// duplicates 5‰, all over [outageWarm, outageRecover).
	grayCorruptPerMille = 5
	grayReorderWindow   = 4
	grayDupPerMille     = 5
	// Leaf 2's uplink to spine 0 flaps from outageFail: 3 cycles of 40
	// ticks dark, 80 serving.
	grayFlaps, grayFlapDown, grayFlapUp = 3, 40, 80
	// Leaf 3 power-cycles mid-outage — queues flushed, pipeline soft state
	// wiped — so its routing tables re-converge from packets alone.
	grayRestart = (outageFail + outageRecover) / 2

	// The post-recovery goodput probe: the run counts as recovered at the
	// first 100-tick chunk sustaining 0.9 of the pre-fail rate.
	recoveryChunk = 100
	recoveryFrac  = 0.9
)

// outageLoad gives the windowed experiments longer flows than the
// load-balance default, so offered load is steady across all three
// windows.
func outageLoad(sc Scenario) Scenario {
	orDefault(&sc.PktsPerFlow, 600)
	orDefault(&sc.FlowsPerHost, 4)
	return sc
}

// coreOutage scripts the outage: leaf 0's port 0 (its uplink to spine 0)
// down at outageFail, restored at outageRecover.
func coreOutage(seed int64) func(Fabric) *FaultSchedule {
	return func(f Fabric) *FaultSchedule {
		leaf0 := f.LeafIDs()[0]
		return (&FaultSchedule{Seed: seed}).
			LinkDown(outageFail, leaf0, 0).
			LinkUp(outageRecover, leaf0, 0)
	}
}

// grayFailures scripts the outage plus the gray kinds. Leaves are taken
// mod the fabric's leaf count; the flap storm is skipped where that lands
// it on the outage link itself.
func grayFailures(seed int64) func(Fabric) *FaultSchedule {
	return func(f Fabric) *FaultSchedule {
		leaves := f.LeafIDs()
		leaf := func(i int) NodeID { return leaves[i%len(leaves)] }
		s := coreOutage(seed)(f).
			LinkCorrupt(outageWarm, leaf(1), 0, grayCorruptPerMille).
			LinkCorrupt(outageRecover, leaf(1), 0, 0).
			LinkReorder(outageWarm, leaf(1), 0, grayReorderWindow).
			LinkReorder(outageRecover, leaf(1), 0, 0).
			LinkDuplicate(outageWarm, leaf(1), 0, grayDupPerMille).
			LinkDuplicate(outageRecover, leaf(1), 0, 0)
		if leaf(2) != leaf(0) {
			s.LinkFlap(outageFail, leaf(2), 0, grayFlaps, grayFlapDown, grayFlapUp)
		}
		return s.SwitchRestart(grayRestart, leaf(3))
	}
}

// snap is the cumulative state at a window boundary.
type snap struct {
	dataPkts  int64 // Run.Delivered
	coreBytes []int64
	totals    NetTotals
}

// snapsAt advances the run to each boundary tick in turn and snapshots it
// there.
func (r *Run) snapsAt(ticks ...int64) ([]snap, error) {
	snaps := make([]snap, 0, len(ticks))
	for _, t := range ticks {
		if err := r.Net.Run(t); err != nil {
			return nil, err
		}
		s := snap{dataPkts: r.Delivered(), totals: r.Net.Totals()}
		for _, l := range r.Net.CoreLinks() {
			s.coreBytes = append(s.coreBytes, l.Bytes)
		}
		snaps = append(snaps, s)
	}
	return snaps, nil
}

// Window is one measurement window's delta.
type Window struct {
	Name  string
	Ticks int64

	DataPkts int64   // data packets delivered (feedback excluded)
	Rate     float64 // DataPkts / Ticks

	CoreImbalance float64 // (max-min)/mean over core-link bytes moved in the window

	Dropped        int64 // switch queue-cap drops
	Blackholed     int64 // fault destruction
	CorruptDropped int64 // arrival-guard rejections
}

func window(name string, ticks int64, a, b snap) Window {
	w := Window{
		Name:           name,
		Ticks:          ticks,
		DataPkts:       b.dataPkts - a.dataPkts,
		Dropped:        b.totals.DroppedPkts - a.totals.DroppedPkts,
		Blackholed:     b.totals.BlackholedPkts - a.totals.BlackholedPkts,
		CorruptDropped: b.totals.CorruptDroppedPkts - a.totals.CorruptDroppedPkts,
	}
	if ticks > 0 {
		w.Rate = float64(w.DataPkts) / float64(ticks)
	}
	delta := make([]int64, len(b.coreBytes))
	for i := range delta {
		delta[i] = b.coreBytes[i] - a.coreBytes[i]
	}
	w.CoreImbalance = Imbalance(delta)
	return w
}

// OutageResult is one core-outage run: the three windows on top of the
// drained run's summary.
type OutageResult struct {
	*Result
	Before, During, After  Window
	Recovery, PostRecovery float64 // During.Rate/Before.Rate, After.Rate/Before.Rate
}

// RunCoreOutage replays sc under the core-link outage, measures the
// three windows, and finishes the run under every oracle.
func RunCoreOutage(sc Scenario) (*OutageResult, error) {
	sc = outageLoad(sc)
	sc.Faults = coreOutage(sc.Seed)
	r, err := sc.Start()
	if err != nil {
		return nil, err
	}
	s, err := r.snapsAt(outageWarm, outageFail, outageRecover, outageEnd)
	if err != nil {
		return nil, err
	}
	res := &OutageResult{
		Before: window("before", outageFail-outageWarm, s[0], s[1]),
		During: window("during", outageRecover-outageFail, s[1], s[2]),
		After:  window("after", outageEnd-outageRecover, s[2], s[3]),
	}
	if res.Before.Rate > 0 {
		res.Recovery = res.During.Rate / res.Before.Rate
		res.PostRecovery = res.After.Rate / res.Before.Rate
	}
	if res.Result, err = r.Finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// The gray-failure host modes, in report order.
const (
	ModeRaw      = "raw"      // PR 6 injection: lost is lost
	ModeRelRTO   = "rel-rto"  // reliable, RTO-only recovery (PR 7)
	ModeReliable = "reliable" // reliable with fast retransmit (PR 9)
)

// GrayFailureRun is one host mode's run of the gray-failure scenario.
type GrayFailureRun struct {
	Mode string
	*Result
	BeforeRate float64 // delivered pkts/tick in [outageWarm, outageFail)
	DuringRate float64 // ... in [outageFail, outageRecover)
	// RecoveryTicks is how many ticks after outageRecover the goodput
	// first sustains recoveryFrac of BeforeRate over one recoveryChunk
	// (-1: never within outageEnd).
	RecoveryTicks int64
}

// RunGrayFailure replays sc under the gray-failure schedule once per host
// mode. sc.Transport, when set, tunes the two reliable modes.
func RunGrayFailure(sc Scenario) ([]*GrayFailureRun, error) {
	var runs []*GrayFailureRun
	for _, mode := range []string{ModeRaw, ModeRelRTO, ModeReliable} {
		g, err := runGrayFailureMode(sc, mode)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode, err)
		}
		runs = append(runs, g)
	}
	return runs, nil
}

func runGrayFailureMode(sc Scenario, mode string) (*GrayFailureRun, error) {
	sc = outageLoad(sc)
	sc.Faults = grayFailures(sc.Seed)
	var tc TransportConfig
	if sc.Transport != nil {
		tc = *sc.Transport
	}
	sc.Transport = nil
	if mode != ModeRaw {
		if mode == ModeRelRTO {
			tc.FastRetransmit = -1
		}
		sc.Transport = &tc
		sc.ECN = true // the transport's congestion signal is the ecn_mark transaction
	}
	r, err := sc.Start()
	if err != nil {
		return nil, err
	}
	s, err := r.snapsAt(outageWarm, outageFail, outageRecover)
	if err != nil {
		return nil, err
	}
	g := &GrayFailureRun{
		Mode:          mode,
		BeforeRate:    window("before", outageFail-outageWarm, s[0], s[1]).Rate,
		DuringRate:    window("during", outageRecover-outageFail, s[1], s[2]).Rate,
		RecoveryTicks: -1,
	}
	// Post-recovery: probe goodput chunk by chunk until it sustains
	// recoveryFrac of the healthy rate.
	prev := s[2].dataPkts
	for t := int64(outageRecover + recoveryChunk); t <= outageEnd; t += recoveryChunk {
		if err := r.Net.Run(t); err != nil {
			return nil, err
		}
		cur := r.Delivered()
		if rate := float64(cur-prev) / recoveryChunk; g.RecoveryTicks < 0 && rate >= recoveryFrac*g.BeforeRate {
			g.RecoveryTicks = t - outageRecover
		}
		prev = cur
	}
	if g.Result, err = r.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}
