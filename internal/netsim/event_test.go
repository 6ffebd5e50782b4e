package netsim

// The tick-vs-event differential (PR 10): every scenario class the repo
// knows — healthy leaf-spine across the routing catalog, chaos fault
// schedules (gray failures included), the reliable transport, the soak
// smoke shape, and the fat tree — executed twice on identically built
// networks: once stepping every tick (the polled core's schedule), once
// through the event-driven Run/Drain that skips idle ticks. The two
// executions must agree byte-for-byte: same delivery digest (every
// delivery's host, flow, seq, size, fb/dup bits and tick participate),
// same NetTotals, same transport totals, same per-flow FCTs, and both
// must hold all four conservation identities with zero leaked headers.

import (
	"fmt"
	"math/rand"
	"testing"

	"domino/internal/workload"
)

// evtRun is one driver execution's observable outcome.
type evtRun struct {
	digest uint64
	tot    NetTotals
	tt     TransportTotals
	fcts   []int64
	now    int64
	steps  int64
}

// evtScenario builds one network instance plus its drive script. build
// must construct an identical network on every call (fixed seeds);
// faultTicks > 0 inserts a run-then-ClearFaults phase before the drain.
type evtScenario struct {
	name       string
	build      func(t *testing.T) (*Network, *Transport)
	faultTicks int64
	drainLimit int64
}

// driveDiff executes sc twice — per-tick and event-driven — and fails on
// any observable divergence.
func driveDiff(t *testing.T, sc evtScenario) {
	t.Helper()
	limit := sc.drainLimit
	if limit == 0 {
		limit = 1 << 20
	}

	exec := func(event bool) evtRun {
		t.Helper()
		n, tp := sc.build(t)
		var r evtRun
		r.digest = splitmix64(0x9e37)
		n.digestDeliveries(&r.digest)
		if sc.faultTicks > 0 {
			if event {
				if err := n.Run(n.Now() + sc.faultTicks); err != nil {
					t.Fatalf("%s: event Run: %v", sc.name, err)
				}
			} else {
				for i := int64(0); i < sc.faultTicks; i++ {
					if err := n.Step(); err != nil {
						t.Fatalf("%s: polled Step: %v", sc.name, err)
					}
				}
			}
			n.ClearFaults()
		}
		if event {
			if err := n.Drain(limit); err != nil {
				t.Fatalf("%s: event Drain: %v", sc.name, err)
			}
		} else {
			drained := false
			for i := int64(0); i < limit; i++ {
				if n.idle() {
					drained = true
					break
				}
				if err := n.Step(); err != nil {
					t.Fatalf("%s: polled Step: %v", sc.name, err)
				}
			}
			if !drained && !n.idle() {
				t.Fatalf("%s: polled drive did not drain in %d ticks", sc.name, limit)
			}
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatalf("%s (event=%v): %v", sc.name, event, err)
		}
		if live := n.LiveHeaders(); live != 0 {
			t.Fatalf("%s (event=%v): %d headers leaked", sc.name, event, live)
		}
		if tp != nil {
			if !tp.Done() {
				t.Fatalf("%s (event=%v): transport unresolved", sc.name, event)
			}
			r.tt = tp.Totals()
		}
		r.tot = n.Totals()
		r.fcts = n.FlowFCTs()
		r.now, r.steps = n.Now(), n.Steps()
		return r
	}

	polled := exec(false)
	event := exec(true)

	if polled.digest != event.digest {
		t.Errorf("%s: delivery digest diverged: polled %016x, event %016x", sc.name, polled.digest, event.digest)
	}
	if polled.tot != event.tot {
		t.Errorf("%s: totals diverged:\n  polled %+v\n  event  %+v", sc.name, polled.tot, event.tot)
	}
	if polled.tt != event.tt {
		t.Errorf("%s: transport totals diverged:\n  polled %+v\n  event  %+v", sc.name, polled.tt, event.tt)
	}
	if len(polled.fcts) != len(event.fcts) {
		t.Fatalf("%s: FCT count diverged: %d vs %d", sc.name, len(polled.fcts), len(event.fcts))
	}
	for f := range polled.fcts {
		if polled.fcts[f] != event.fcts[f] {
			t.Errorf("%s: flow %d FCT diverged: polled %d, event %d", sc.name, f, polled.fcts[f], event.fcts[f])
		}
	}
	// The polled driver processed every tick; the event driver must have
	// processed each of its (fewer or equal) steps at matching ticks —
	// the final clocks agree except for trailing idle the polled driver
	// never entered (it stops at the same idle() boundary, so they match).
	if polled.now != event.now {
		t.Errorf("%s: final tick diverged: polled %d, event %d", sc.name, polled.now, event.now)
	}
	if event.steps > polled.steps {
		t.Errorf("%s: event core processed more steps (%d) than ticks exist (%d)", sc.name, event.steps, polled.steps)
	}
	t.Logf("%s: %d ticks, event core processed %d steps (skipped %.0f%%)",
		sc.name, event.now, event.steps, 100*float64(event.now-event.steps)/float64(max(event.now, 1)))
}

// buildLeafSpine constructs the standard experiment fabric with its
// cross-leaf permutation trace installed.
func buildLeafSpine(t *testing.T, ec Scenario) *Network {
	t.Helper()
	return mustStart(t, ec).Net
}

func TestEventCoreDifferentialHealthy(t *testing.T) {
	for _, routing := range []string{"ecmp_route", "flowlet_route", "conga_route"} {
		routing := routing
		t.Run(routing, func(t *testing.T) {
			t.Parallel()
			driveDiff(t, evtScenario{
				name: routing,
				build: func(t *testing.T) (*Network, *Transport) {
					return buildLeafSpine(t, Scenario{
						Routing: routing, Seed: 7,
						FlowsPerHost: 2, PktsPerFlow: 24,
						MeanBurst: 4, BurstGap: 60, // long idle gaps: the skipping case
					}), nil
				},
			})
		})
	}
}

func TestEventCoreDifferentialObservability(t *testing.T) {
	t.Parallel()
	driveDiff(t, evtScenario{
		name: "ecn+int",
		build: func(t *testing.T) (*Network, *Transport) {
			return buildLeafSpine(t, Scenario{
				Routing: "flowlet_route", Seed: 11,
				FlowsPerHost: 2, PktsPerFlow: 32,
				MeanBurst: 6, BurstGap: 50,
				ECN: true, ECNThresholdBytes: 3000, INT: true,
			}), nil
		},
	})
}

// TestEventCoreDifferentialFaults replays seeded chaos schedules — every
// fault kind, gray failures included — through both drivers.
func TestEventCoreDifferentialFaults(t *testing.T) {
	for i := 0; i < 6; i++ {
		i := i
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			t.Parallel()
			driveDiff(t, evtScenario{
				name:       fmt.Sprintf("faults/seed%d", i),
				faultTicks: 120,
				drainLimit: 200000,
				build: func(t *testing.T) (*Network, *Transport) {
					seed := int64(100 + i)
					rng := rand.New(rand.NewSource(seed))
					ec := Scenario{
						Routing:      []string{"ecmp_route", "flowlet_route", "conga_route"}[i%3],
						Leaves:       2 + i%2,
						Spines:       2,
						HostsPerLeaf: 1,
						Seed:         1 + rng.Int63n(1<<30),
						FlowsPerHost: 1 + rng.Intn(2),
						PktsPerFlow:  2 + rng.Intn(24),
						MeanBurst:    4, BurstGap: 8,
					}
					reliable := i%2 == 1
					ec.ECN = reliable
					ec.ECNThresholdBytes = 2000
					n := buildLeafSpine(t, ec)
					n.WatchdogTicks = 512
					var tp *Transport
					if reliable {
						var err error
						tp, err = n.EnableTransport(TransportConfig{
							RTO: 8, RTOMax: 64, MaxRetries: 4, Window: 8, Seed: seed,
						})
						if err != nil {
							t.Fatalf("transport: %v", err)
						}
					}
					if err := n.SetFaults(n.RandomFaults(rng.Int63(), 80)); err != nil {
						t.Fatalf("faults: %v", err)
					}
					return n, tp
				},
			})
		})
	}
}

func TestEventCoreDifferentialTransport(t *testing.T) {
	t.Parallel()
	driveDiff(t, evtScenario{
		name:       "transport",
		drainLimit: 400000,
		build: func(t *testing.T) (*Network, *Transport) {
			n := buildLeafSpine(t, Scenario{
				Routing: "ecmp_route", Seed: 21,
				FlowsPerHost: 2, PktsPerFlow: 16,
				MeanBurst: 4, BurstGap: 80,
				ECN: true, ECNThresholdBytes: 2000,
			})
			tp, err := n.EnableTransport(TransportConfig{
				RTO: 16, RTOMax: 128, MaxRetries: 6, Window: 8, Seed: 21,
			})
			if err != nil {
				t.Fatalf("transport: %v", err)
			}
			return n, tp
		},
	})
}

func TestEventCoreDifferentialFatTree(t *testing.T) {
	t.Parallel()
	driveDiff(t, evtScenario{
		name:       "fattree-k4",
		drainLimit: 1 << 22,
		build: func(t *testing.T) (*Network, *Transport) {
			return mustStart(t, Scenario{
				Routing: "ecmp_route", K: 4, Seed: 31,
				HeavyTailed: &workload.HeavyTailedConfig{Flows: 48, MeanGapTicks: 200, MaxPkts: 64},
			}).Net, nil
		},
	})
}

// TestEventCoreSkipsIdleTime pins the point of the refactor: on an
// idle-heavy trace the event core must process dramatically fewer steps
// than simulated ticks.
func TestEventCoreSkipsIdleTime(t *testing.T) {
	t.Parallel()
	n := buildLeafSpine(t, Scenario{
		Routing: "ecmp_route", Seed: 3,
		FlowsPerHost: 1, PktsPerFlow: 4,
		MeanBurst: 2, BurstGap: 500,
	})
	if err := n.Drain(1 << 20); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n.Steps()*2 >= n.Now() {
		t.Fatalf("event core barely skipped: %d steps over %d ticks", n.Steps(), n.Now())
	}
	t.Logf("idle-heavy drain: %d ticks in %d steps", n.Now(), n.Steps())
}
