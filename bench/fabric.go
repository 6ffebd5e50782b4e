package main

import (
	"fmt"
	"strings"
	"time"

	"domino/internal/algorithms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/netsim"
	"domino/internal/switchsim"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

// Link and queue sizing shared by every fabric workload: netsim's own
// experiment defaults.
const (
	fabUplink    = 3000
	fabDownlink  = 6000
	fabQueueCap  = 1 << 20
	lsQueueCap   = 8 << 20
	fabDrainTick = 1 << 22
	fabPktBytes  = 1500
)

// fabric is a built network plus what the benchmark needs to drive and
// read it.
type fabric struct {
	net      *netsim.Network
	hosts    []netsim.NodeID
	switches []netsim.NodeID
}

// fabSnap is the cumulative accounting of a fabric at one instant;
// metrics are differences of two snapshots.
type fabSnap struct {
	tot        netsim.NetTotals
	steps, now int64
	hops       int64 // switch enqueues: one per switch a packet entered and was queued at
	links      []netsim.LinkStats
}

func (f *fabric) snap() (fabSnap, error) {
	s := fabSnap{tot: f.net.Totals(), steps: f.net.Steps(), now: f.net.Now(), links: f.net.LinkStats()}
	for _, id := range f.switches {
		ports, err := f.net.SwitchStats(id)
		if err != nil {
			return s, err
		}
		for _, p := range ports {
			s.hops += p.Enqueues
		}
	}
	return s, nil
}

// isCore reports whether a link joins two switches.
func isCore(l netsim.LinkStats) bool { return !strings.HasPrefix(l.To, "host") }

// player replays a workload's traces on one fabric over and over, each
// time moved past the fabric's clock.
type player struct {
	fab    *fabric
	traces []*workload.NetTrace // private copies, shifted in place
	shift  []int64
}

func newPlayer(f *fabric, base []*workload.NetTrace) *player {
	p := &player{fab: f, shift: make([]int64, len(base))}
	for _, tr := range base {
		p.traces = append(p.traces, cloneTrace(tr))
	}
	return p
}

// replay injects trace k on its simulated-time schedule and drains the
// fabric, returning the host time of SetTrace plus Drain.
func (p *player) replay(tr *tracer, k int) (time.Duration, error) {
	delta := p.fab.net.Now() + 1 - p.shift[k]
	shiftTrace(p.traces[k], delta)
	p.shift[k] += delta

	t := time.Now()
	id := tr.begin("netsim.SetTrace")
	err := p.fab.net.SetTrace(p.traces[k], p.fab.hosts)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("netsim.Drain")
	err = p.fab.net.Drain(fabDrainTick)
	tr.end(id)
	return time.Since(t), err
}

// fabricWorkload is a raw-replay fabric workload: compile the routing
// programs, wire the fabric, replay traces repeatedly. The two instances
// use the same netsim layer in opposite regimes.
type fabricWorkload struct {
	sources func() ([]source, error)
	// genTrace makes the k-th of traces independent traces; a repetition
	// replays perRep of them, round robin.
	genTrace       func(e *env, k int) *workload.NetTrace
	traces, perRep int
	// leafPorts is the port count of the switch progs[0] runs on, for the
	// ladder's stand-alone switch.
	leafPorts int
	wire      func(tr *tracer, progs []*compiled, sink telemetry.Sink, ring *telemetry.Ring) (*fabric, error)
	// polled adds the event ≡ polled differential to the checks.
	polled bool

	base  []*workload.NetTrace
	progs []*compiled
	stats compileStats
	last  setupTimes
	play  *player

	// first is the fabric's accounting after its first (warm-up) replay,
	// what the polled twin must reproduce; firstWall is that replay's time.
	first     fabSnap
	firstFCT  []int64
	firstWall time.Duration

	// The fixed block: snapshots around it, its pooled FCTs, its host time.
	before, after fabSnap
	fcts          []int64
	lost          int64 // flows of the fixed block that never completed
	busy          time.Duration
}

func (w *fabricWorkload) setupReps() int { return 3 }

func (w *fabricWorkload) cycle() int { return w.traces / w.perRep }

func (w *fabricWorkload) generate(e *env) {
	w.base = nil
	for k := 0; k < w.traces; k++ {
		w.base = append(w.base, w.genTrace(e, k))
	}
}

func (w *fabricWorkload) setup(e *env, pass int) (setupTimes, error) {
	var st setupTimes
	srcs, err := w.sources()
	if err != nil {
		return st, err
	}
	w.stats = compileStats{}
	t := time.Now()
	if w.progs, err = compileSet(e, srcs, pass, &w.stats); err != nil {
		return st, err
	}
	st.compile = w.stats.total()
	for _, c := range w.progs {
		if c.prog == nil {
			return st, fmt.Errorf("%s: rejected on every target", c.src.name)
		}
	}

	t = time.Now()
	fab, err := w.wire(e.tr, w.progs, nil, nil)
	if err != nil {
		return st, err
	}
	st.build = time.Since(t)

	w.play = newPlayer(fab, w.base)
	t = time.Now()
	if w.firstWall, err = w.play.replay(e.tr, 0); err != nil {
		return st, err
	}
	st.warm = time.Since(t)
	if w.first, err = fab.snap(); err != nil {
		return st, err
	}
	w.firstFCT = fab.net.FlowFCTs()
	w.before = w.first
	w.fcts, w.lost, w.busy = nil, 0, 0
	w.last = st
	return st, nil
}

// rep replays the repetition's traces; it completes the data packets
// sinks accepted (reflected feedback is the fabric's own traffic, not the
// client's).
func (w *fabricWorkload) rep(e *env, i int) (int64, time.Duration, error) {
	net := w.play.fab.net
	accepted := net.Totals().AcceptedPkts
	var busy time.Duration
	for j := 0; j < w.perRep; j++ {
		d, err := w.play.replay(e.tr, (i*w.perRep+j)%w.traces)
		if err != nil {
			return 0, 0, err
		}
		busy += d
		if i < fixedReps {
			for _, fct := range net.FlowFCTs() {
				if fct < 0 {
					w.lost++
				} else {
					w.fcts = append(w.fcts, fct)
				}
			}
		}
	}
	pkts := net.Totals().AcceptedPkts - accepted
	if i < fixedReps {
		w.busy += busy
	}
	if i == fixedReps-1 {
		var err error
		if w.after, err = w.play.fab.snap(); err != nil {
			return 0, 0, err
		}
	}
	return pkts, busy, nil
}

func (w *fabricWorkload) finish(e *env, r *result) error {
	d := newDigest()
	for _, tr := range w.base {
		d.netTrace(tr)
	}
	r.TraceDigest = d.String()

	net := w.play.fab.net
	id := e.tr.begin("netsim.CheckConservation")
	err := net.CheckConservation()
	e.tr.end(id)
	r.check(net.Totals().InjectedPkts, err)
	err = nil
	if live := net.LiveHeaders(); live != 0 {
		err = fmt.Errorf("%d headers still checked out after the last drain", live)
	}
	r.check(1, err)
	r.Attempted += int64(len(w.fcts)) + w.lost
	if w.lost > 0 {
		r.fail(w.lost, fmt.Sprintf("%d flows never completed", w.lost))
	}

	injected := w.after.tot.InjectedPkts - w.before.tot.InjectedPkts
	dropped := w.after.tot.DroppedPkts - w.before.tot.DroppedPkts
	fctStats(r, w.fcts)
	r.EndToEnd["sim_drop_share"] = single("share", float64(dropped)/float64(injected))

	var polledWall time.Duration
	if w.polled {
		if polledWall, err = w.polledTwin(r); err != nil {
			return err
		}
	}

	if m := r.PerLayer; m != nil {
		steps := w.after.steps - w.before.steps
		ticks := w.after.now - w.before.now
		delivered := w.after.tot.DeliveredPkts - w.before.tot.DeliveredPkts
		m["netsim.steps"] = float64(steps)
		m["netsim.ticks"] = float64(ticks)
		m["netsim.skipped_share"] = 1 - float64(steps)/float64(ticks)
		m["netsim.ns_per_step"] = float64(w.busy.Nanoseconds()) / float64(steps)
		m["netsim.pkts_per_step"] = float64(delivered) / float64(steps)
		m["netsim.hops"] = float64(w.after.hops - w.before.hops)
		m["netsim.delivered_pkts"] = float64(w.after.tot.AcceptedPkts - w.before.tot.AcceptedPkts)
		m["netsim.fb_pkts"] = float64(w.after.tot.FbDeliveredPkts - w.before.tot.FbDeliveredPkts)
		m["netsim.dropped_pkts"] = float64(dropped)
		m["netsim.live_headers_end"] = float64(net.LiveHeaders())
		var core []int64
		var maxUtil float64
		for i, l := range w.after.links {
			if !isCore(l) {
				continue
			}
			l.Bytes -= w.before.links[i].Bytes
			core = append(core, l.Bytes)
			maxUtil = max(maxUtil, l.Utilization(ticks))
		}
		m["netsim.max_core_util"] = maxUtil
		m["netsim.imbalance"] = netsim.Imbalance(core)
		m["ladder.fabric_ns_per_hop"] = float64(w.busy.Nanoseconds()) / float64(w.after.hops-w.before.hops)
		m["ladder.harness_ns_per_hop"] = m["ladder.fabric_ns_per_hop"] - m["ladder.switch_ns_per_hop"]
		if w.polled {
			m["netsim.polled_ratio"] = polledWall.Seconds() / w.firstWall.Seconds()
		}
	}
	return nil
}

// polledTwin replays the trace once on a second fabric built from the
// same programs, stepping every tick instead of jumping between events.
// Its totals, flow completion times and final tick must equal what the
// measured fabric showed after its own first replay.
func (w *fabricWorkload) polledTwin(r *result) (time.Duration, error) {
	fab, err := w.wire(nil, w.progs, nil, nil)
	if err != nil {
		return 0, err
	}
	tr := cloneTrace(w.base[0])
	shiftTrace(tr, 1)
	if err := fab.net.SetTrace(tr, fab.hosts); err != nil {
		return 0, err
	}
	lastArrival := tr.Packets[len(tr.Packets)-1].Arrival
	t := time.Now()
	for {
		// Drain's own stop rule, from public counters: everything
		// injected and nothing queued or in flight. Before the last
		// arrival it cannot hold, so the O(fabric) totals are skipped.
		if fab.net.Now() >= lastArrival {
			tot := fab.net.Totals()
			if tot.QueuedPkts == 0 && tot.InFlightPkts == 0 {
				break
			}
		}
		if fab.net.Now() > w.first.now+fabDrainTick {
			return 0, fmt.Errorf("polled twin still busy at tick %d", fab.net.Now())
		}
		if err := fab.net.Step(); err != nil {
			return 0, err
		}
	}
	wall := time.Since(t)

	err = nil
	if got, want := fab.net.Totals(), w.first.tot; got != want {
		err = fmt.Errorf("polled totals %+v differ from event-driven %+v", got, want)
	}
	r.check(w.first.tot.InjectedPkts, err)
	err = nil
	if got, want := fab.net.Now(), w.first.now; got != want {
		err = fmt.Errorf("polled run ended at tick %d, event-driven at %d", got, want)
	}
	r.check(1, err)
	fcts := fab.net.FlowFCTs()
	var diff int64
	for i := range w.firstFCT {
		if i >= len(fcts) || fcts[i] != w.firstFCT[i] {
			diff++
		}
	}
	r.Attempted += int64(len(w.firstFCT))
	if diff > 0 {
		r.fail(diff, fmt.Sprintf("%d flow completion times differ between polled and event-driven", diff))
	}
	return wall, nil
}

func (w *fabricWorkload) layers(e *env, r *result) error {
	if err := probeMachines(e.tr, w.progs, &w.stats); err != nil {
		return err
	}
	w.stats.layerMetrics(r.PerLayer)
	m := r.PerLayer
	m["netsim.compile_s"] = w.last.compile.Seconds()
	m["netsim.build_s"] = w.last.build.Seconds()

	var err error
	m["ladder.banzai_ns_per_hop"], m["ladder.switch_ns_per_hop"], err = ladder(e.tr, w.progs[0], w.leafPorts, w.base[0].Packets)
	if err != nil {
		return err
	}

	// The same fabric with a registry and an event ring attached.
	reg := telemetry.NewRegistry()
	fab, err := w.wire(e.tr, w.progs, reg, telemetry.NewRing(4096, 16, uint64(e.seed)))
	if err != nil {
		return err
	}
	on := newPlayer(fab, w.base[:1])
	if _, err := on.replay(e.tr, 0); err != nil {
		return err
	}
	var onS, offS []float64
	for i := 0; i < 5; i++ {
		d, err := on.replay(e.tr, 0)
		if err != nil {
			return err
		}
		onS = append(onS, d.Seconds())
		if d, err = w.play.replay(e.tr, 0); err != nil {
			return err
		}
		offS = append(offS, d.Seconds())
	}
	m["telemetry.on_ratio"] = summarize("", onS).Median / summarize("", offS).Median
	m["telemetry.qdepth_p99_bytes"] = float64(mergedQuantile(reg, ".qdepth_bytes.", 0.99))
	return nil
}

// ladder is the lower rungs of a fabric workload's cost ladder: the
// workload's own packets through the first routing program alone, then
// through one stand-alone switch running it. It returns host ns per
// packet for each; the fabric rung is measured by the workload itself.
func ladder(tr *tracer, c *compiled, ports int, pkts []workload.NetPacket) (machineNs, switchNs float64, err error) {
	mach, err := banzai.New(c.prog)
	if err != nil {
		return 0, 0, err
	}
	hs := netHeaders(mach.Layout(), pkts)
	rate, err := medianRate(func() (int64, time.Duration, error) {
		t := time.Now()
		for off := 0; off < len(hs); off += catalogBatch {
			id := tr.begin("banzai.ProcessBatch")
			err := mach.ProcessBatch(hs[off:min(off+catalogBatch, len(hs))])
			tr.end(id)
			if err != nil {
				return 0, 0, err
			}
		}
		return int64(len(hs)), time.Since(t), nil
	})
	if err != nil {
		return 0, 0, err
	}
	machineNs = 1e9 / rate

	// Service far above the offered load: the lone switch never queues
	// past a tick, so this rung is per-packet switch cost and nothing else.
	id := tr.begin("switchsim.New")
	sw, err := switchsim.New(c.prog, switchsim.Config{
		Ports: ports, RouteField: algorithms.RouteOutPort,
		ServiceBytesPerTick: 1 << 24, QueueCapBytes: 1 << 40,
	})
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	swHs := netHeaders(sw.Machine().Layout(), pkts)
	rate, err = medianRate(func() (int64, time.Duration, error) {
		_, d, err := drive(tr, sw, swHs, fabPktBytes, 8, nil)
		return int64(len(swHs)), d, err
	})
	if err != nil {
		return 0, 0, err
	}
	return machineNs, 1e9 / rate, nil
}

// progFunc adapts compiled programs to the per-position callbacks the
// netsim builders take.
func progFunc(progs []*compiled, at func(i int) int) func(int) (*codegen.Program, error) {
	return func(i int) (*codegen.Program, error) { return progs[at(i)].prog, nil }
}

// Shape of leafspine-dense.
const (
	lsLeaves, lsSpines, lsHostsPerLeaf = 8, 4, 4
)

// newLeafSpineDense: every tick is busy, so the event core has nothing to
// skip — pipelines, links, header bridging and CONGA's feedback
// reflection do the work, and set-up is nine conga_route-sized compiles.
func newLeafSpineDense() *fabricWorkload {
	return &fabricWorkload{
		leafPorts: lsSpines + lsHostsPerLeaf,
		sources: func() ([]source, error) {
			var srcs []source
			for l := 0; l < lsLeaves; l++ {
				text, err := algorithms.CongaRouteSource(algorithms.RouteParams{
					LeafID: l, Leaves: lsLeaves, Spines: lsSpines, HostsPerLeaf: lsHostsPerLeaf})
				if err != nil {
					return nil, err
				}
				srcs = append(srcs, source{name: "conga_route", text: text})
			}
			text, err := algorithms.SpineRouteSource(algorithms.RouteParams{
				Leaves: lsLeaves, Spines: lsSpines, HostsPerLeaf: lsHostsPerLeaf})
			if err != nil {
				return nil, err
			}
			return append(srcs, source{name: "spine_route", text: text}), nil
		},
		// Cross-leaf permutations, so every data packet crosses the core,
		// in bursts long enough that no tick is idle. Two flows per host
		// offer two thirds of the uplink capacity at the peak: queues stay
		// shallow and the live headers stay within the cache. With four
		// or eight flows per host the core runs no fuller (0.67 at best)
		// but megabytes of queued headers make host time swing 13% from
		// one run to the next with the machine's memory system. Two traces
		// per repetition pool 1408 flows into the fixed block.
		traces: 2, perRep: 2,
		genTrace: func(e *env, k int) *workload.NetTrace {
			seed := e.seed*1000 + int64(k)
			perm := workload.CrossLeafPermutation(seed, lsLeaves, lsHostsPerLeaf)
			pairs := make([][2]int, len(perm))
			for h, p := range perm {
				pairs[h] = [2]int{h, p}
			}
			return workload.HostPairTrace(seed, pairs, 2, e.scaled(512, 8), fabPktBytes, 64, 4)
		},
		wire: func(tr *tracer, progs []*compiled, sink telemetry.Sink, ring *telemetry.Ring) (*fabric, error) {
			id := tr.begin("netsim.NewLeafSpine")
			ls, err := netsim.NewLeafSpine(netsim.LeafSpineConfig{
				Leaves: lsLeaves, Spines: lsSpines, HostsPerLeaf: lsHostsPerLeaf,
				LeafProgram:        progFunc(progs, func(l int) int { return l }),
				SpineProgram:       progFunc(progs, func(int) int { return lsLeaves }),
				UplinkBytesPerTick: fabUplink, DownlinkBytesPerTick: fabDownlink,
				QueueCapBytes: lsQueueCap, RouteField: algorithms.RouteOutPort,
				Telemetry: sink, Trace: ring,
			})
			tr.end(id)
			if err != nil {
				return nil, err
			}
			ls.Net.Feedback = true // conga_route steers on reflected utilisation
			sw := append(append([]netsim.NodeID(nil), ls.Spines...), ls.Leaves...)
			return &fabric{net: ls.Net, hosts: ls.Hosts, switches: sw}, nil
		},
	}
}

const ftK = 8

// newFatTreeSparse: the same netsim layer the other way round — most
// ticks are idle and skipped, a step moves a packet or two across 80
// switches, so what a step costs the harness (watchdog totals, next-event
// scan, idle-switch service) dominates and the pipelines do little.
func newFatTreeSparse() *fabricWorkload {
	const half = ftK / 2
	return &fabricWorkload{
		leafPorts: ftK,
		polled:    true,
		sources: func() ([]source, error) {
			var srcs []source
			for edge := 0; edge < ftK*half; edge++ {
				text, err := algorithms.FlowletRouteSource(algorithms.RouteParams{
					LeafID: edge, Leaves: ftK * half, Spines: half, HostsPerLeaf: half})
				if err != nil {
					return nil, err
				}
				srcs = append(srcs, source{name: "flowlet_route", text: text})
			}
			for pod := 0; pod < ftK; pod++ {
				text, err := algorithms.FatAggRouteSource(algorithms.RouteParams{
					LeafID: pod, Leaves: ftK, Spines: half, HostsPerLeaf: half})
				if err != nil {
					return nil, err
				}
				srcs = append(srcs, source{name: "fat_agg_route", text: text})
			}
			text, err := algorithms.SpineRouteSource(algorithms.RouteParams{
				Leaves: ftK, Spines: half, HostsPerLeaf: half * half})
			if err != nil {
				return nil, err
			}
			return append(srcs, source{name: "spine_route", text: text}), nil
		},
		// Each trace is netsim's own fat-tree experiment default: eight
		// heavy-tailed flow arrivals per host, Poisson gaps of 64 ticks.
		// How fast such a trace replays depends on how many of its
		// packets ride in a few elephants, which one seed's 1024 draws
		// pin down badly; 22 traces, two per repetition, make one cycle
		// of repetitions a sample large enough to be steady across seeds.
		traces: 2 * fixedReps, perRep: 2,
		genTrace: func(e *env, k int) *workload.NetTrace {
			hosts := ftK * ftK * ftK / 4
			return workload.HeavyTailedTrace(e.seed*1000+int64(k), workload.HeavyTailedConfig{
				Hosts: hosts, Flows: e.scaled(8*hosts, 16)})
		},
		wire: func(tr *tracer, progs []*compiled, sink telemetry.Sink, ring *telemetry.Ring) (*fabric, error) {
			id := tr.begin("netsim.NewFatTree")
			ft, err := netsim.NewFatTree(netsim.FatTreeConfig{
				K:                  ftK,
				EdgeProgram:        progFunc(progs, func(e int) int { return e }),
				AggProgram:         progFunc(progs, func(p int) int { return ftK*half + p }),
				CoreProgram:        progFunc(progs, func(int) int { return ftK*half + ftK }),
				UplinkBytesPerTick: fabUplink, DownlinkBytesPerTick: fabDownlink,
				QueueCapBytes: fabQueueCap, RouteField: algorithms.RouteOutPort,
				Telemetry: sink, Trace: ring,
			})
			tr.end(id)
			if err != nil {
				return nil, err
			}
			sw := append(append(append([]netsim.NodeID(nil), ft.Cores...), ft.Aggs...), ft.Edges...)
			return &fabric{net: ft.Net, hosts: ft.Hosts, switches: sw}, nil
		},
	}
}
