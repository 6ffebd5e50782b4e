package netsim

// The three-tier k-ary fat tree (Al-Fares et al.): k pods, each with k/2
// edge and k/2 aggregation switches, (k/2)^2 cores, and k^3/4 hosts —
// the paper-grade topology the datacenter FCT evaluations (CONGA, HULL)
// report against, and the scale the event-driven core exists for.
//
// Host ids are dense: host h = p*(k^2/4) + e*(k/2) + j sits on port
// k/2+j of edge e in pod p, so h/(k/2) is the host's global edge index —
// exactly the leaf-of-host convention the leaf routing transactions
// assume, which is why an edge switch runs an unmodified leaf routing
// program: its "leaves" are the k*k/2 edges, its "spines" the k/2 pod
// aggs. Aggregation switches run fat_agg_route (pod-local down, hashed
// core up); cores run spine_route with "hosts per leaf" = hosts per pod,
// so out_port = destination pod.
//
// Port map (HALF = k/2):
//
//	edge e, pod p:  [0,HALF) → agg a of pod p;   [HALF,k) → hosts
//	agg  a, pod p:  [0,HALF) → core a*HALF+i;    [HALF,k) → edge e of pod p
//	core c:         port p → pod p (lands on agg c/HALF of that pod)

import (
	"fmt"

	"domino/internal/codegen"
	"domino/internal/switchsim"
	"domino/internal/telemetry"
)

// FatTreeConfig sizes and programs a k-ary fat tree. Programs are
// supplied as compiled pipelines, mirroring LeafSpineConfig: EdgeProgram
// runs once per global edge index, AggProgram once per pod (the pod's
// k/2 aggs share one program — fat_agg_route's only position dependence
// is the pod), CoreProgram once per core.
type FatTreeConfig struct {
	K int // pods; must be even and >= 2

	EdgeProgram func(edge int) (*codegen.Program, error)
	AggProgram  func(pod int) (*codegen.Program, error)
	CoreProgram func(core int) (*codegen.Program, error)

	// UplinkBytesPerTick caps every switch↔switch link (both directions);
	// DownlinkBytesPerTick caps edge→host links. Zero keeps switchsim's
	// default service rate.
	UplinkBytesPerTick   int64
	DownlinkBytesPerTick int64
	LinkDelay            int64
	QueueCapBytes        int64
	RouteField           string
	Telemetry            telemetry.Sink
	Trace                *telemetry.Ring
}

// FatTree is a built fabric.
type FatTree struct {
	Net   *Network
	Edges []NodeID // global edge index: pod*K/2 + e
	Aggs  []NodeID // global agg index: pod*K/2 + a
	Cores []NodeID
	Hosts []NodeID // dense: host h on edge h/(K/2)
	cfg   FatTreeConfig
}

// K returns the fabric's arity.
func (ft *FatTree) K() int { return ft.cfg.K }

// Network, HostIDs and LeafIDs make *FatTree a Fabric; its host-facing
// tier is the edges.
func (ft *FatTree) Network() *Network { return ft.Net }
func (ft *FatTree) HostIDs() []NodeID { return ft.Hosts }
func (ft *FatTree) LeafIDs() []NodeID { return ft.Edges }

// NewFatTree builds and fully wires a k-ary fat tree.
func NewFatTree(cfg FatTreeConfig) (*FatTree, error) {
	k := cfg.K
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("netsim: fat tree needs an even k >= 2, got %d", k)
	}
	half := k / 2
	ft := &FatTree{Net: New(), cfg: cfg}
	n := ft.Net
	if err := n.SetTelemetry(cfg.Telemetry, cfg.Trace); err != nil {
		return nil, err
	}
	swCfg := func(ports int) switchsim.Config {
		return switchsim.Config{
			Ports:               ports,
			QueueCapBytes:       cfg.QueueCapBytes,
			ServiceBytesPerTick: cfg.UplinkBytesPerTick,
			RouteField:          cfg.RouteField,
		}
	}
	for c := 0; c < half*half; c++ {
		prog, err := cfg.CoreProgram(c)
		if err != nil {
			return nil, fmt.Errorf("netsim: core %d program: %w", c, err)
		}
		id, err := n.AddSwitch(fmt.Sprintf("core%d", c), prog, swCfg(k))
		if err != nil {
			return nil, err
		}
		ft.Cores = append(ft.Cores, id)
	}
	for p := 0; p < k; p++ {
		aggProg, err := cfg.AggProgram(p)
		if err != nil {
			return nil, fmt.Errorf("netsim: pod %d agg program: %w", p, err)
		}
		for a := 0; a < half; a++ {
			id, err := n.AddSwitch(fmt.Sprintf("agg%d_%d", p, a), aggProg, swCfg(k))
			if err != nil {
				return nil, err
			}
			ft.Aggs = append(ft.Aggs, id)
		}
		for e := 0; e < half; e++ {
			prog, err := cfg.EdgeProgram(p*half + e)
			if err != nil {
				return nil, fmt.Errorf("netsim: edge %d program: %w", p*half+e, err)
			}
			id, err := n.AddSwitch(fmt.Sprintf("edge%d_%d", p, e), prog, swCfg(k))
			if err != nil {
				return nil, err
			}
			ft.Edges = append(ft.Edges, id)
			for j := 0; j < half; j++ {
				hid, err := n.AddHost(fmt.Sprintf("host%d", (p*half+e)*half+j), id)
				if err != nil {
					return nil, err
				}
				ft.Hosts = append(ft.Hosts, hid)
			}
		}
	}
	up := LinkOptions{Delay: cfg.LinkDelay, CapacityBytesPerTick: cfg.UplinkBytesPerTick}
	down := LinkOptions{Delay: cfg.LinkDelay, CapacityBytesPerTick: cfg.DownlinkBytesPerTick}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			edge := ft.Edges[p*half+e]
			for a := 0; a < half; a++ {
				agg := ft.Aggs[p*half+a]
				if err := n.Connect(edge, a, agg, up); err != nil {
					return nil, err
				}
				if err := n.Connect(agg, half+e, edge, up); err != nil {
					return nil, err
				}
			}
			for j := 0; j < half; j++ {
				h := (p*half+e)*half + j
				if err := n.Connect(edge, half+j, ft.Hosts[h], down); err != nil {
					return nil, err
				}
			}
		}
		for a := 0; a < half; a++ {
			agg := ft.Aggs[p*half+a]
			for i := 0; i < half; i++ {
				core := ft.Cores[a*half+i]
				if err := n.Connect(agg, i, core, up); err != nil {
					return nil, err
				}
				if err := n.Connect(core, p, agg, up); err != nil {
					return nil, err
				}
			}
		}
	}
	return ft, nil
}
