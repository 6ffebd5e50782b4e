package netsim

// Network-level observability (PR 8): SetTelemetry hangs a metrics sink
// and a sampled event-trace ring on the network before construction, and
// Snapshot exports everything a run produced — conservation totals,
// instrument values, per-path INT delivery counts, sampled events — as
// one deterministic, JSON-marshalable structure.
//
// Both sides keep the paper's division of labor. In the data plane the
// int_stamp block (algorithms.INTStampSource, embedded by RouteParams.INT
// like ecn_mark) makes each packet its own probe: per hop it bumps hops,
// folds the egress depth into qmax and qdelay, and folds the switch
// identity into path_digest = path_digest*31 + switch_id. The harness
// feeds it switch_id once at AddSwitch and queue_depth through
// publishQueueDepths; ECN and INT read the same pkt.qd, so the two
// signals cannot drift. Sinks decode Delivery.Hops/Digest, PathCounts and
// the leaf-spine's NamedPathCounts (TestINTDeliveryMatchesTopology,
// TestEcnMarkTally). In the control plane every instrument is resolved
// once, to a possibly-nil pointer, so SetTelemetry must precede AddSwitch
// and a run with no sink allocates nothing (TestNetHotPathZeroAlloc;
// telemetry's TestHotPathAllocs). Snapshot is byte-deterministic for a
// fixed seed (TestSnapshotDeterministic); what switching telemetry on
// costs end to end is BENCHMARK.json's telemetry.on_ratio.

import (
	"encoding/json"
	"sort"

	"domino/internal/telemetry"
)

// SetTelemetry enables metrics and/or tracing for the network. It must
// be called before the first AddSwitch: each switch resolves its
// instruments (under "sw.<name>") and its trace identity at
// construction. Either argument may be nil; with both nil the data path
// is exactly the uninstrumented one (nil instruments no-op, zero
// allocations). The network's own instruments:
//
//	net.delivery_latency_ticks  injection→sink latency of data packets
//	net.fct_ticks               flow completion times
//	net.link_inflight_pkts      packets in flight per link, at transmit
//	net.ecn_marked_pkts         delivered data packets carrying a mark
//	int.hops                    INT hop counts of delivered data
//	int.qmax_bytes              INT max queue depth along the path
//	int.qdelay_bytes            INT summed queue depth along the path
//
// and the simulator's own work counters, which are what an O(active)
// step loop is held to:
//
//	sim.switch_services         switch service passes run
//	sim.link_deliveries         link visits that delivered packets
//	sim.ghost_wakeups           calendar wakeups that found nothing due
func (n *Network) SetTelemetry(sink telemetry.Sink, ring *telemetry.Ring) error {
	if len(n.switches) > 0 {
		return errTelemetryLate
	}
	n.sink = sink
	n.ring = ring
	if sink != nil {
		n.latencyH = telemetry.GetHistogram(sink, "net.delivery_latency_ticks")
		n.fctH = telemetry.GetHistogram(sink, "net.fct_ticks")
		n.linkOccH = telemetry.GetHistogram(sink, "net.link_inflight_pkts")
		n.hopsH = telemetry.GetHistogram(sink, "int.hops")
		n.qmaxH = telemetry.GetHistogram(sink, "int.qmax_bytes")
		n.qdelayH = telemetry.GetHistogram(sink, "int.qdelay_bytes")
		n.ecnC = telemetry.GetCounter(sink, "net.ecn_marked_pkts")
		n.servicesC = telemetry.GetCounter(sink, "sim.switch_services")
		n.deliveriesC = telemetry.GetCounter(sink, "sim.link_deliveries")
		n.ghostsC = telemetry.GetCounter(sink, "sim.ghost_wakeups")
		n.pathPkts = make(map[int32]int64)
	}
	return nil
}

var errTelemetryLate = jsonError("netsim: SetTelemetry must run before AddSwitch (instruments resolve at construction)")

type jsonError string

func (e jsonError) Error() string { return string(e) }

// PathCount is one INT path digest's accepted-data delivery tally.
type PathCount struct {
	Digest int32  `json:"digest"`
	Pkts   int64  `json:"pkts"`
	Name   string `json:"name,omitempty"`
}

// PathCounts returns the per-digest delivery tallies of INT-stamped data
// packets, sorted by digest for determinism. Empty without a telemetry
// sink or without INT stamping. Name is left for topology-aware callers
// (e.g. LeafSpine.PathName) to fill.
func (n *Network) PathCounts() []PathCount {
	out := make([]PathCount, 0, len(n.pathPkts))
	for d, c := range n.pathPkts {
		out = append(out, PathCount{Digest: d, Pkts: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// NetworkSnapshot is a run's full observability export.
type NetworkSnapshot struct {
	Tick    int64               `json:"tick"`
	Totals  NetTotals           `json:"totals"`
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
	Paths   []PathCount         `json:"paths,omitempty"`
	Events  []telemetry.Event   `json:"events,omitempty"`
	Links   []LinkStats         `json:"links"`
	FCTs    []int64             `json:"fcts,omitempty"`
	Trans   *TransportTotals    `json:"transport,omitempty"`
}

// metricsSnapshotter is how Snapshot discovers a sink that can export
// itself (telemetry.Registry does; a custom sink may not).
type metricsSnapshotter interface {
	Snapshot() telemetry.Snapshot
}

// Snapshot exports the network's observable state: conservation totals,
// the metrics registry (when the sink supports it), INT path tallies,
// the sampled event trace, link accounting, flow completion times and
// transport totals. Deterministic for a deterministic run — every
// collection is exported in a fixed order.
func (n *Network) Snapshot() NetworkSnapshot {
	s := NetworkSnapshot{
		Tick:   n.now,
		Totals: n.Totals(),
		Paths:  n.PathCounts(),
		Links:  n.LinkStats(),
	}
	if ms, ok := n.sink.(metricsSnapshotter); ok {
		m := ms.Snapshot()
		s.Metrics = &m
	}
	if n.ring != nil {
		s.Events = n.ring.Events()
	}
	if len(n.flowDone) > 0 {
		s.FCTs = n.FlowFCTs()
	}
	if n.transport != nil {
		t := n.transport.Totals()
		s.Trans = &t
	}
	return s
}

// SnapshotJSON renders the snapshot as indented JSON.
func (n *Network) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(n.Snapshot(), "", "  ")
}
