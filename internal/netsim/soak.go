package netsim

// Chaos soak (PR 9): thousands of seeded random fault schedules — every
// FaultKind the model knows — replayed over small leaf-spine fabrics
// across the routing catalog, with and without the reliable host
// transport, each run checked against the full oracle set:
//
//   - the four conservation identities (physical with dup-injected,
//     delivery split, transport injection split, sender resolution),
//     byte-exact, every tick;
//   - the pool-leak oracle: LiveHeaders == queued + in-flight at every
//     tick boundary, and exactly 0 after the drain;
//   - bounded termination: once ClearFaults restores the fabric, the
//     network drains and (when enabled) the transport resolves every
//     offered packet — acked or loud give-up, never silently lost;
//   - determinism: sampled runs are executed twice and must fold to a
//     byte-identical delivery digest (every delivery's host, flow, seq,
//     size, dup bit and tick participates).
//
// The soak is the repo's standing answer to "does the gray-failure model
// compose?": any single fault kind is unit-tested elsewhere; here they
// collide on the same links in random order. TestChaosSoakSmoke pins the
// CI slice's aggregate field for field (make soak-smoke; make soak runs
// paper-eval -soak 1000), and TestSoakCoverageComplains proves Coverage
// reports a fault kind that never fired.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// What every soak run shares. No caller ever varied these, so they are
// constants.
const (
	soakFaultTicks = 150    // live ticks while the schedule rages
	soakDrainTicks = 100000 // bound on the post-ClearFaults drain
	soakWatchdog   = 512    // no-progress bound, tight so a wedged run fails fast
	soakMaxWorkers = 8      // runs in flight: GOMAXPROCS, capped here
)

// soakRoutings is the routing rotation: run i uses entry i mod 3.
var soakRoutings = [...]string{"ecmp_route", "flowlet_route", "conga_route"}

// SoakConfig parameterizes a chaos soak. The zero value of every field
// selects the bracketed default.
type SoakConfig struct {
	Runs        int   // seeded schedules to run [1000]
	Seed        int64 // base seed; run i derives from Seed+i [1]
	ReplayEvery int   // every k-th run is replayed and digest-compared [25]

	// Progress, when set, is called after every completed run with
	// (done, total) — the CLI uses it to keep a long soak honest.
	Progress func(done, total int)
}

// SoakStats aggregates a completed soak.
type SoakStats struct {
	Runs         int // schedules completed
	ReliableRuns int // runs with the host transport enabled
	RawRuns      int // runs without it
	Replays      int // runs executed twice for digest comparison

	// FaultEvents counts scheduled events per kind across the whole
	// soak, indexed like FaultKinds() — the coverage proof that every
	// kind actually ran (flap storms count their expanded down/up pairs).
	FaultEvents map[FaultKind]int64

	// Aggregate traffic accounting, summed over all runs.
	InjectedPkts, DeliveredPkts  int64
	DupInjectedPkts              int64
	BlackholedPkts               int64
	CorruptDroppedPkts           int64
	RetransPkts, FastRetransPkts int64
	GivenUpPkts                  int64
}

// Coverage reports whether every fault kind was scheduled at least once.
func (s *SoakStats) Coverage() error {
	for _, k := range FaultKinds() {
		if s.FaultEvents[k] == 0 {
			return fmt.Errorf("soak never scheduled a %s event in %d runs", k, s.Runs)
		}
	}
	return nil
}

// digestDeliveries installs the OnDeliver hook the replay oracles compare
// runs by: every delivery's host, flow, seq, size, fb and dup bits and
// tick is folded into *d, so two runs agree on *d only if they delivered
// the same packets to the same hosts in the same order at the same ticks.
func (n *Network) digestDeliveries(d *uint64) {
	n.OnDeliver = func(ev Delivery) {
		h := *d
		h = splitmix64(h ^ uint64(ev.Host)<<32 ^ uint64(uint32(ev.Flow)))
		h = splitmix64(h ^ uint64(uint32(ev.Seq))<<16 ^ uint64(uint32(ev.Size)))
		if ev.Fb {
			h = splitmix64(h ^ 0xfb)
		}
		if ev.Dup {
			h = splitmix64(h ^ 0xd0d0)
		}
		*d = splitmix64(h ^ uint64(n.Now()))
	}
}

// soakRunResult is one run's contribution to the aggregate, plus the
// delivery digest used for replay comparison.
type soakRunResult struct {
	digest uint64
	tot    NetTotals
	tt     TransportTotals
	events map[FaultKind]int64
}

// soakRun executes one seeded schedule — a small scenario under
// RandomFaults, stepped tick by tick with the oracles re-checked at every
// boundary — and returns its result; any violation comes back as an
// error naming the run so the exact failure replays from the command
// line.
func soakRun(c *SoakConfig, i int) (*soakRunResult, error) {
	seed := c.Seed + int64(i)
	rng := rand.New(rand.NewSource(seed))
	reliable := i%2 == 1
	sc := Scenario{
		Routing:      soakRoutings[i%len(soakRoutings)],
		Leaves:       2 + i%2, // alternate 2- and 3-leaf fabrics
		Spines:       2,
		HostsPerLeaf: 1,
		Seed:         1 + rng.Int63n(1<<30),
		FlowsPerHost: 1 + rng.Intn(2),
		PktsPerFlow:  2 + rng.Intn(24),
		MeanBurst:    4, BurstGap: 8,
		ECN: reliable, ECNThresholdBytes: 2000,
	}
	faultSeed := rng.Int63()
	sc.Faults = func(f Fabric) *FaultSchedule {
		return f.Network().RandomFaults(faultSeed, soakFaultTicks*2/3)
	}
	if reliable {
		// A tight retry budget keeps give-up (and the drain) fast when
		// the schedule severs a path for good.
		sc.Transport = &TransportConfig{RTO: 8, RTOMax: 64, MaxRetries: 4, Window: 8, Seed: seed}
	}
	r, err := sc.Start()
	if err != nil {
		return nil, fmt.Errorf("soak run %d (seed %d, %s): start: %w", i, seed, sc.Routing, err)
	}
	n := r.Net
	n.WatchdogTicks = soakWatchdog
	fail := func(phase string, err error) (*soakRunResult, error) {
		return nil, fmt.Errorf("soak run %d (seed %d, %s, reliable=%v) %s, tick %d: %w",
			i, seed, sc.Routing, reliable, phase, n.Now(), err)
	}
	res := &soakRunResult{digest: splitmix64(uint64(seed)), events: map[FaultKind]int64{}}
	n.digestDeliveries(&res.digest)
	for _, ev := range r.Faults.Events {
		res.events[ev.Kind]++
	}

	// tick steps once and re-checks the per-tick oracles: the four
	// identities, and the pool holding exactly what is queued or in flight.
	tick := func() error {
		if err := n.Step(); err != nil {
			return err
		}
		if err := n.CheckConservation(); err != nil {
			return err
		}
		t := n.Totals()
		if live := int64(n.LiveHeaders()); live != t.QueuedPkts+t.InFlightPkts {
			return fmt.Errorf("%d live headers, %d queued + %d in flight", live, t.QueuedPkts, t.InFlightPkts)
		}
		return nil
	}
	for k := 0; k < soakFaultTicks; k++ {
		if err := tick(); err != nil {
			return fail("faulted", err)
		}
	}
	// Epilogue: heal everything; the fabric must drain within the bound,
	// and Finish then demands zero leaks and a fully resolved transport.
	n.ClearFaults()
	for k := 0; !n.idle(); k++ {
		if k == soakDrainTicks {
			return fail("draining", fmt.Errorf("no drain within %d ticks: %d queued, %d in flight",
				soakDrainTicks, n.queuedPkts, n.inFlightPkts))
		}
		if err := tick(); err != nil {
			return fail("draining", err)
		}
	}
	fin, err := r.Finish()
	if err != nil {
		return fail("drained", err)
	}
	res.tot, res.tt = fin.Totals, fin.Transport
	return res, nil
}

// add folds run i's result into the aggregate.
func (st *SoakStats) add(i int, r *soakRunResult, replayed bool) {
	st.Runs++
	if replayed {
		st.Replays++
	}
	if i%2 == 1 {
		st.ReliableRuns++
	} else {
		st.RawRuns++
	}
	for k, c := range r.events {
		st.FaultEvents[k] += c
	}
	st.InjectedPkts += r.tot.InjectedPkts
	st.DeliveredPkts += r.tot.DeliveredPkts
	st.DupInjectedPkts += r.tot.DupInjectedPkts
	st.BlackholedPkts += r.tot.BlackholedPkts
	st.CorruptDroppedPkts += r.tot.CorruptDroppedPkts
	st.RetransPkts += r.tt.RetransPkts
	st.FastRetransPkts += r.tt.FastRetransPkts
	st.GivenUpPkts += r.tt.GivenUpPkts
}

// RunSoak executes cfg.Runs seeded chaos schedules and aggregates them.
// Runs are self-contained (each its own Network, seeded from Seed+i), so
// they execute concurrently and the aggregate is order-independent. The
// first oracle violation aborts the soak with an error that names the run
// index and seed, so `-soak` reproduces it deterministically.
func RunSoak(cfg SoakConfig) (*SoakStats, error) {
	orDefault(&cfg.Runs, 1000)
	orDefault(&cfg.Seed, 1)
	orDefault(&cfg.ReplayEvery, 25)
	st := &SoakStats{FaultEvents: map[FaultKind]int64{}}

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		next    int // next run index to hand out
		firstEr error
	)
	for w := min(runtime.GOMAXPROCS(0), soakMaxWorkers); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := firstEr != nil || i >= cfg.Runs
				mu.Unlock()
				if stop {
					return
				}
				replay := i%cfg.ReplayEvery == 0
				r, err := soakRun(&cfg, i)
				if err == nil && replay {
					var again *soakRunResult
					if again, err = soakRun(&cfg, i); err != nil {
						err = fmt.Errorf("replay: %w", err)
					} else if again.digest != r.digest {
						err = fmt.Errorf("soak run %d (seed %d) replayed differently: digest %016x vs %016x — determinism broken",
							i, cfg.Seed+int64(i), r.digest, again.digest)
					}
				}
				mu.Lock()
				if err != nil {
					if firstEr == nil {
						firstEr = err
					}
				} else {
					st.add(i, r, replay)
					if cfg.Progress != nil {
						cfg.Progress(st.Runs, cfg.Runs)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return st, nil
}
