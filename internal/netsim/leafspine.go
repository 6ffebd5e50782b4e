package netsim

// The canonical two-tier leaf-spine fabric the evaluation runs on: every
// leaf connects to every spine, hosts hang off leaf downlinks, and the
// host id space is dense (host h sits under leaf h / HostsPerLeaf — the
// convention the routing transactions in internal/algorithms assume).

import (
	"fmt"

	"domino/internal/algorithms"
	"domino/internal/codegen"
	"domino/internal/switchsim"
	"domino/internal/telemetry"
)

// LeafSpineConfig sizes a fabric. Programs are supplied as compiled
// pipelines so the topology layer stays independent of the routing
// catalog: LeafProgram is called once per leaf (leaf routing transactions
// embed the leaf's id), SpineProgram once per spine.
type LeafSpineConfig struct {
	Leaves, Spines, HostsPerLeaf int

	LeafProgram  func(leaf int) (*codegen.Program, error)
	SpineProgram func(spine int) (*codegen.Program, error)

	// UplinkBytesPerTick caps every leaf↔spine link (both directions);
	// DownlinkBytesPerTick caps leaf→host links. Zero keeps switchsim's
	// default service rate.
	UplinkBytesPerTick   int64
	DownlinkBytesPerTick int64
	// LinkDelay is the propagation delay of every link (default 1).
	LinkDelay int64
	// QueueCapBytes bounds each switch port queue (switchsim default when
	// zero).
	QueueCapBytes int64
	// RouteField is the packet field that picks output ports
	// (algorithms.RouteOutPort for the routing catalog).
	RouteField string
	// Telemetry and Trace, when non-nil, are installed on the network
	// before the first switch is built (see Network.SetTelemetry), so
	// every switch resolves its instruments and trace identity.
	Telemetry telemetry.Sink
	Trace     *telemetry.Ring
}

// LeafSpine is a built fabric.
type LeafSpine struct {
	Net    *Network
	Leaves []NodeID
	Spines []NodeID
	Hosts  []NodeID // dense: host h under leaf h/HostsPerLeaf
	cfg    LeafSpineConfig
}

// Network, HostIDs and LeafIDs make *LeafSpine a Fabric.
func (ls *LeafSpine) Network() *Network { return ls.Net }
func (ls *LeafSpine) HostIDs() []NodeID { return ls.Hosts }
func (ls *LeafSpine) LeafIDs() []NodeID { return ls.Leaves }

// NewLeafSpine builds and fully wires the fabric.
func NewLeafSpine(cfg LeafSpineConfig) (*LeafSpine, error) {
	if cfg.Leaves <= 0 || cfg.Spines <= 0 || cfg.HostsPerLeaf <= 0 {
		return nil, fmt.Errorf("netsim: leaf-spine needs positive leaves/spines/hosts, got %d/%d/%d",
			cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf)
	}
	ls := &LeafSpine{Net: New(), cfg: cfg}
	n := ls.Net
	if err := n.SetTelemetry(cfg.Telemetry, cfg.Trace); err != nil {
		return nil, err
	}
	for s := 0; s < cfg.Spines; s++ {
		prog, err := cfg.SpineProgram(s)
		if err != nil {
			return nil, fmt.Errorf("netsim: spine %d program: %w", s, err)
		}
		id, err := n.AddSwitch(fmt.Sprintf("spine%d", s), prog, switchsim.Config{
			Ports:               cfg.Leaves,
			QueueCapBytes:       cfg.QueueCapBytes,
			ServiceBytesPerTick: cfg.UplinkBytesPerTick,
			RouteField:          cfg.RouteField,
		})
		if err != nil {
			return nil, err
		}
		ls.Spines = append(ls.Spines, id)
	}
	for l := 0; l < cfg.Leaves; l++ {
		prog, err := cfg.LeafProgram(l)
		if err != nil {
			return nil, fmt.Errorf("netsim: leaf %d program: %w", l, err)
		}
		id, err := n.AddSwitch(fmt.Sprintf("leaf%d", l), prog, switchsim.Config{
			Ports:               cfg.Spines + cfg.HostsPerLeaf,
			QueueCapBytes:       cfg.QueueCapBytes,
			ServiceBytesPerTick: cfg.UplinkBytesPerTick,
			RouteField:          cfg.RouteField,
		})
		if err != nil {
			return nil, err
		}
		ls.Leaves = append(ls.Leaves, id)
		for k := 0; k < cfg.HostsPerLeaf; k++ {
			hid, err := n.AddHost(fmt.Sprintf("host%d", l*cfg.HostsPerLeaf+k), id)
			if err != nil {
				return nil, err
			}
			ls.Hosts = append(ls.Hosts, hid)
		}
	}
	up := LinkOptions{Delay: cfg.LinkDelay, CapacityBytesPerTick: cfg.UplinkBytesPerTick}
	down := LinkOptions{Delay: cfg.LinkDelay, CapacityBytesPerTick: cfg.DownlinkBytesPerTick}
	for l := 0; l < cfg.Leaves; l++ {
		for s := 0; s < cfg.Spines; s++ {
			if err := n.Connect(ls.Leaves[l], s, ls.Spines[s], up); err != nil {
				return nil, err
			}
			if err := n.Connect(ls.Spines[s], l, ls.Leaves[l], up); err != nil {
				return nil, err
			}
		}
		for k := 0; k < cfg.HostsPerLeaf; k++ {
			h := l*cfg.HostsPerLeaf + k
			if err := n.Connect(ls.Leaves[l], cfg.Spines+k, ls.Hosts[h], down); err != nil {
				return nil, err
			}
		}
	}
	return ls, nil
}

// PathName decodes an INT path digest back into the hop sequence it was
// folded from: candidate digests are precomputable because a leaf-spine
// data packet crosses either exactly its own leaf (local traffic) or
// leafA→spineS→leafB, and the digest fold (algorithms.PathDigest, int32
// wraparound) is deterministic in the switches' node ids. Unknown
// digests — a path no healthy run produces, e.g. a detour mid-rollover —
// are reported numerically rather than guessed at.
func (ls *LeafSpine) PathName(digest int32) string {
	for a, la := range ls.Leaves {
		if algorithms.PathDigest(int32(la)) == digest {
			return fmt.Sprintf("leaf%d (local)", a)
		}
		for s, sp := range ls.Spines {
			for b, lb := range ls.Leaves {
				if b == a {
					continue
				}
				if algorithms.PathDigest(int32(la), int32(sp), int32(lb)) == digest {
					return fmt.Sprintf("leaf%d>spine%d>leaf%d", a, s, b)
				}
			}
		}
	}
	return fmt.Sprintf("digest %d", digest)
}

// NamedPathCounts is PathCounts with each digest decoded via PathName.
func (ls *LeafSpine) NamedPathCounts() []PathCount {
	out := ls.Net.PathCounts()
	for i := range out {
		out[i].Name = ls.PathName(out[i].Digest)
	}
	return out
}
