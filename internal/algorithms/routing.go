package algorithms

// Routing transactions: the Domino programs that drive next-hop
// forwarding in the netsim multi-switch simulator. Each leaf switch of a
// leaf-spine fabric runs one of these at ingress; the transaction writes
// RouteOutPort, which the switch reduces modulo its port count to pick
// the output link — so ECMP hashing, flowlet path pinning and CONGA-style
// utilization-aware path choice are ordinary packet transactions, not
// simulator code.
//
// Port convention (leaf): ports [0, Spines) are uplinks (port s reaches
// spine s), ports [Spines, Spines+HostsPerLeaf) are downlinks (port
// Spines+k reaches the leaf's k-th host). Spine port l reaches leaf l.
//
// Field convention (see internal/netsim for the wiring):
//
//	sport, dport, arrival        flow identity and arrival tick
//	src, dst                     global host ids (leaf = id / HostsPerLeaf)
//	size_bytes, flow             payload size and dense flow id (sink-read)
//	util                         max path utilization, stamped by links
//	path_id                      the uplink the source leaf chose (stamped
//	                             by the leaf so feedback can name the path)
//	fb, fb_path, fb_util         CONGA feedback: a sink host reflects each
//	                             data packet's (path_id, util) back to the
//	                             sender as a small fb=1 packet
//	seq                          per-flow sequence number (reliable
//	                             transport; echoed back on acks)
//	ecn                          congestion mark, set by the ecn_mark block
//	                             when the chosen port's queue is deep
//	fb_ack, fb_ecn               transport feedback: the receiver's
//	                             cumulative ack and the data packet's ecn
//	                             bit, carried on fb=1 packets
//	csum                         end-to-end checksum over the fields
//	                             programs never write (host-stamped,
//	                             host-validated; catches silent corruption)
//	hops, qmax, qdelay,          in-band telemetry, stamped by the int_stamp
//	path_digest                  block at every hop (RouteParams.INT): hop
//	                             count, max queue depth seen (bytes), summed
//	                             per-hop queue depth (a byte-delay proxy),
//	                             and the accumulated path identity
//	                             path_digest = path_digest*31 + switch_id
//	                             (int32 wraparound) — sinks decode it back
//	                             into the hop sequence
//	out_port                     the routing decision (RouteOutPort)
//
// Because every transaction declares the full field set, the departing
// header always carries what downstream hops, links and sinks read, and
// all leaf programs are interchangeable in one topology.

import "fmt"

// RouteOutPort is the packet field routing transactions write with the
// chosen output port; netsim binds it as switchsim's RouteField.
const RouteOutPort = "out_port"

// PortUpState is the per-switch uplink-liveness state array fault-aware
// routing transactions declare (`int port_up[SPINES] = {1}`): entry s is
// 1 while uplink s is usable, 0 while it is down. The netsim fault
// harness pokes it from the control plane at link up/down boundaries
// (through a banzai.StateRef it resolves once per switch), so rerouting
// around a dead link is the transaction's decision, not the simulator's.
// Transactions that do not declare it (ecmp_route, spine_route) stay
// failure-blind and blackhole.
const PortUpState = "port_up"

// ECNQueueState is the per-switch queue-depth state array the ECN-marking
// block reads (`int queue_depth[PORTS] = {0}`): entry p is the byte depth
// of output-port p's queue, poked by the netsim harness between ticks
// (through a banzai.StateRef: a per-step feed must not look the array up
// by name) — the same control-plane visibility convention as
// PortUpState. Marking stays a transaction's decision: the program
// compares the depth against its threshold and sets the packet's ecn
// field; the simulator only publishes the observable.
const ECNQueueState = "queue_depth"

// DefaultECNThresholdBytes is the marking threshold when RouteParams.ECN
// is on and no threshold is given: six 1500 B packets of standing queue.
const DefaultECNThresholdBytes = 9000

// INTSwitchIDState is the per-switch identity scalar the int_stamp
// telemetry block reads (`int switch_id = 0;`): the netsim harness pokes
// each machine's value at construction and after every restart (a
// banzai.StateRef, index 0) with the switch's node id — the same
// control-plane visibility convention as PortUpState and ECNQueueState.
// The transaction folds it into the packet's path digest; the simulator
// only publishes who the switch is, never what to stamp.
const INTSwitchIDState = "switch_id"

// RouteParams instantiates a routing transaction for one position in a
// leaf-spine fabric.
type RouteParams struct {
	// LeafID is the leaf's index (leaf of host h is h / HostsPerLeaf).
	LeafID int
	// Leaves and Spines size the fabric.
	Leaves, Spines int
	// HostsPerLeaf is the number of hosts below each leaf.
	HostsPerLeaf int
	// ECN appends the ecn_mark block to the transaction: the packet's ecn
	// field is set when the chosen output port's queue depth (the
	// ECNQueueState array) exceeds ECNThresholdBytes.
	ECN bool
	// ECNThresholdBytes is the marking threshold
	// (DefaultECNThresholdBytes when zero).
	ECNThresholdBytes int32
	// INT appends the int_stamp block to the transaction: every hop
	// increments the packet's hop count, folds the switch's identity
	// (INTSwitchIDState) into path_digest, and accumulates queue-depth
	// telemetry (qmax, qdelay) from the same ECNQueueState read the ECN
	// mark uses — one state-array access serves both signals.
	INT bool
}

func (p RouteParams) ecnThresh() int32 {
	if p.ECNThresholdBytes > 0 {
		return p.ECNThresholdBytes
	}
	return DefaultECNThresholdBytes
}

// obsFields, obsState and obsStamp are the three insertion points of the
// observation block — ECN marking and/or INT stamping (scratch fields,
// state sized to the switch's port count, and the statements, which must
// follow the out_port assignment). The two signals share one
// queue_depth[pkt.out_port] read: they cannot drift, and the compiled
// pipeline pays for the state access once.
//
// The INT header fields (hops, qmax, qdelay, path_digest) live in the
// shared Packet struct so every program declares them; obsFields only
// adds the scratch fields the block computes with.
func (p RouteParams) obsFields() string {
	var s string
	if p.ECN || p.INT {
		s += "  int qd;\n"
	}
	if p.INT {
		s += "  int sid;\n"
	}
	return s
}

func (p RouteParams) obsState(ports int) string {
	var s string
	if p.ECN || p.INT {
		s += fmt.Sprintf("\nint queue_depth[%d] = {0};\n", ports)
	}
	if p.INT {
		s += "int switch_id = 0;\n"
	}
	return s
}

func (p RouteParams) obsStamp() string {
	var s string
	if p.ECN || p.INT {
		s += "  pkt.qd = queue_depth[pkt.out_port];\n"
	}
	if p.ECN {
		s += fmt.Sprintf("  pkt.ecn = pkt.qd > %d ? 1 : pkt.ecn;\n", p.ecnThresh())
	}
	if p.INT {
		// The digest fold is path_digest*31 + sid; the stateless atom has
		// no multiplier, so *31 is strength-reduced to (d<<5) - d —
		// identical in int32 wraparound arithmetic.
		s += "  pkt.sid = switch_id;\n" +
			"  pkt.hops = pkt.hops + 1;\n" +
			"  pkt.qmax = pkt.qd > pkt.qmax ? pkt.qd : pkt.qmax;\n" +
			"  pkt.qdelay = pkt.qdelay + pkt.qd;\n" +
			"  pkt.path_digest = (pkt.path_digest << 5) - pkt.path_digest + pkt.sid;\n"
	}
	return s
}

func (p RouteParams) validate() error {
	if p.Spines <= 0 || p.Leaves <= 0 || p.HostsPerLeaf <= 0 {
		return fmt.Errorf("algorithms: routing params must be positive: %+v", p)
	}
	if p.LeafID < 0 || p.LeafID >= p.Leaves {
		return fmt.Errorf("algorithms: leaf id %d outside [0, %d)", p.LeafID, p.Leaves)
	}
	return nil
}

// routeHeader is the shared packet struct and fabric defines of every
// leaf routing transaction.
const routeHeader = `
#define SPINES %d
#define HOSTS_PER_LEAF %d
#define MY_LEAF %d
#define DOWN_BASE %d

struct Packet {
  int sport;
  int dport;
  int arrival;
  int src;
  int dst;
  int size_bytes;
  int flow;
  int fb;
  int fb_path;
  int fb_util;
  int seq;
  int ecn;
  int fb_ack;
  int fb_ecn;
  int csum;
  int util;
  int path_id;
  int hops;
  int qmax;
  int qdelay;
  int path_digest;
  int dstleaf;
  int local;
%s  int up;
  int down;
  int out_port;
};
`

func leafHeader(p RouteParams, extraFields string) string {
	return fmt.Sprintf(routeHeader, p.Spines, p.HostsPerLeaf, p.LeafID, p.Spines, extraFields)
}

// ECMPRouteSource is per-flow equal-cost multi-path: the uplink is a hash
// of the flow's ports, so a flow is pinned to one path for its lifetime —
// elephants that collide stay collided (the baseline CONGA §1 argues
// against).
func ECMPRouteSource(p RouteParams) (string, error) {
	if err := p.validate(); err != nil {
		return "", err
	}
	return leafHeader(p, p.obsFields()) + p.obsState(p.Spines+p.HostsPerLeaf) + `
void ecmp_route(struct Packet pkt) {
  pkt.dstleaf = pkt.dst / HOSTS_PER_LEAF;
  pkt.local = pkt.dstleaf == MY_LEAF;
  pkt.up = hash2(pkt.sport, pkt.dport) % SPINES;
  pkt.down = DOWN_BASE + (pkt.dst % HOSTS_PER_LEAF);
  pkt.out_port = pkt.local ? pkt.down : pkt.up;
  pkt.path_id = pkt.local ? pkt.path_id : pkt.up;
` + p.obsStamp() + "}\n", nil
}

// FlowletRouteSource re-picks the uplink at every flowlet boundary (the
// paper's Figure 3a running example, embedded in a fabric): packets of a
// burst reuse the saved hop, and a gap longer than the threshold re-hashes
// with the arrival time, spreading bursts over paths without intra-burst
// reordering.
//
// The transaction consults the port_up liveness array (PortUpState, poked
// by the fault harness; every entry starts at 1): when the chosen uplink
// is down, the packet detours to the next uplink instead of blackholing.
// One state read per packet means single-failure tolerance — if the
// detour target is also down, the packet is lost like ECMP's.
func FlowletRouteSource(p RouteParams) (string, error) {
	if err := p.validate(); err != nil {
		return "", err
	}
	return leafHeader(p, "  int new_hop;\n  int fid;\n  int up0;\n  int upok;\n  int alt;\n"+p.obsFields()) + `
#define NUM_FLOWLETS 8000
#define THRESHOLD 20

int last_time[NUM_FLOWLETS] = {0};
int saved_hop[NUM_FLOWLETS] = {0};
int port_up[SPINES] = {1};
` + p.obsState(p.Spines+p.HostsPerLeaf) + `
void flowlet_route(struct Packet pkt) {
  pkt.dstleaf = pkt.dst / HOSTS_PER_LEAF;
  pkt.local = pkt.dstleaf == MY_LEAF;
  pkt.new_hop = hash3(pkt.sport, pkt.dport, pkt.arrival) % SPINES;
  pkt.fid = hash2(pkt.sport, pkt.dport) % NUM_FLOWLETS;
  if (pkt.arrival - last_time[pkt.fid] > THRESHOLD) {
    saved_hop[pkt.fid] = pkt.new_hop;
  }
  last_time[pkt.fid] = pkt.arrival;
  pkt.up0 = saved_hop[pkt.fid];
  pkt.upok = port_up[pkt.up0];
  pkt.alt = pkt.up0 + 1 == SPINES ? 0 : pkt.up0 + 1;
  pkt.up = pkt.upok == 1 ? pkt.up0 : pkt.alt;
  pkt.down = DOWN_BASE + (pkt.dst % HOSTS_PER_LEAF);
  pkt.out_port = pkt.local ? pkt.down : pkt.up;
  pkt.path_id = pkt.local ? pkt.path_id : pkt.up;
` + p.obsStamp() + "}\n", nil
}

// CongaRouteSource is leaf-to-leaf utilization-aware path choice (CONGA,
// Alizadeh et al.): per destination leaf, the leaf remembers the least
// utilized uplink, learned from feedback packets that sink hosts reflect
// with the forward path's (path_id, max link util). The state update is
// the paper's §5.3 CONGA snippet (a Pairs-atom two-register update);
// feedback gating is stateless — non-absorbed packets carry sentinel
// util/path values (FB_NONE, -1) that can win neither update branch, so
// the stateful condition keeps the paper's 2-deep shape. best_util starts
// at FB_INIT (> any real utilization) so the first feedback for a leaf
// wins immediately.
//
// A best-path table alone starves itself of information: once every data
// packet follows the table, no feedback about the *other* uplinks is ever
// generated and the table can never flip. CONGA proper explores because
// it re-picks per flowlet; here a hash-selected 1-in-PROBE slice of data
// packets takes a random uplink instead (stateless ε-greedy probing), so
// feedback keeps covering all paths and the table tracks the minimum.
func CongaRouteSource(p RouteParams) (string, error) {
	if err := p.validate(); err != nil {
		return "", err
	}
	// The best-path table is a fixed 64-entry state array indexed by leaf
	// id; a larger fabric would silently alias entries (the pow2 index is
	// masked), corrupting one leaf's path choice with another's feedback.
	if p.Leaves > 64 {
		return "", fmt.Errorf("algorithms: conga_route supports at most 64 leaves (N_LEAVES), got %d", p.Leaves)
	}
	return leafHeader(p, "  int fbleaf;\n  int absorb;\n  int key;\n  int gutil;\n  int gpath;\n  int best;\n  int eup;\n  int pup;\n  int probe;\n  int dup;\n  int upsel;\n  int upok;\n  int alt;\n"+p.obsFields()) + `
#define N_LEAVES 64
#define FB_NONE 1073741824
#define FB_INIT 536870912
#define PROBE 4

int best_util[N_LEAVES] = {536870912};
int best_path[N_LEAVES] = {0};
int port_up[SPINES] = {1};
` + p.obsState(p.Spines+p.HostsPerLeaf) + `
void conga_route(struct Packet pkt) {
  pkt.dstleaf = pkt.dst / HOSTS_PER_LEAF;
  pkt.fbleaf = pkt.src / HOSTS_PER_LEAF;
  pkt.local = pkt.dstleaf == MY_LEAF;

  // A feedback packet arriving at its home leaf is absorbed: it updates
  // the table entry for the leaf the feedback's sender sits under.
  pkt.absorb = pkt.fb && pkt.local;
  pkt.key = pkt.absorb ? pkt.fbleaf : pkt.dstleaf;
  pkt.gutil = pkt.absorb ? pkt.fb_util : FB_NONE;
  pkt.gpath = pkt.absorb ? pkt.fb_path : 0 - 1;

  if (pkt.gutil < best_util[pkt.key]) {
    best_util[pkt.key] = pkt.gutil;
    best_path[pkt.key] = pkt.gpath;
  } else if (pkt.gpath == best_path[pkt.key]) {
    best_util[pkt.key] = pkt.gutil;
  }
  pkt.best = best_path[pkt.key];

  // Data packets follow the best known path, except the probing slice,
  // which explores a random uplink so its feedback keeps the table fresh;
  // feedback packets in transit are spread by ECMP (their routing carries
  // no signal).
  pkt.pup = hash3(pkt.sport, pkt.dport, pkt.arrival) % SPINES;
  pkt.probe = hash2(pkt.arrival, pkt.sport) % PROBE;
  pkt.dup = pkt.probe == 0 ? pkt.pup : pkt.best;
  pkt.eup = hash2(pkt.sport, pkt.dport) % SPINES;
  pkt.upsel = pkt.fb == 1 ? pkt.eup : pkt.dup;

  // Liveness override (see PortUpState): a packet aimed at a downed
  // uplink detours to the next one rather than blackholing. The table
  // may briefly keep naming the dead path (its entry only refreshes on
  // feedback), but no packet follows it there.
  pkt.upok = port_up[pkt.upsel];
  pkt.alt = pkt.upsel + 1 == SPINES ? 0 : pkt.upsel + 1;
  pkt.up = pkt.upok == 1 ? pkt.upsel : pkt.alt;
  pkt.down = DOWN_BASE + (pkt.dst % HOSTS_PER_LEAF);
  pkt.out_port = pkt.local ? pkt.down : pkt.up;
  pkt.path_id = pkt.local ? pkt.path_id : pkt.up;
` + p.obsStamp() + "}\n", nil
}

// SpineRouteSource routes down: spine port l connects to leaf l, so the
// output port is the destination's leaf. The packet count is the spine's
// only state (netsim reads it in sanity checks).
func SpineRouteSource(p RouteParams) (string, error) {
	if err := p.validate(); err != nil {
		return "", err
	}
	return fmt.Sprintf(`
#define HOSTS_PER_LEAF %d

struct Packet {
  int sport;
  int dport;
  int arrival;
  int src;
  int dst;
  int size_bytes;
  int flow;
  int fb;
  int fb_path;
  int fb_util;
  int seq;
  int ecn;
  int fb_ack;
  int fb_ecn;
  int csum;
  int util;
  int path_id;
  int hops;
  int qmax;
  int qdelay;
  int path_digest;
%s  int out_port;
};

int total_pkts = 0;
%s
void spine_route(struct Packet pkt) {
  pkt.out_port = pkt.dst / HOSTS_PER_LEAF;
  total_pkts = total_pkts + 1;
`, p.HostsPerLeaf, p.obsFields(), p.obsState(p.Leaves)) + p.obsStamp() + "}\n", nil
}

// FatAggRouteSource routes at a k-ary fat-tree aggregation switch: ports
// [0, HALF) are uplinks to cores (HALF = k/2; uplink i of agg a reaches
// core a*HALF+i), ports [HALF, k) are downlinks to the pod's edge
// switches. A packet for a host in this pod goes down to its edge; any
// other packet takes an ECMP-hashed uplink. Instantiate with LeafID =
// the pod index, Leaves = k (pods), Spines = HostsPerLeaf = k/2 — one
// compile serves every agg of the pod (the program's only position
// dependence is the pod's edge-index range). Locality is a range test
// on the global edge index, not a division by pod size, so the only
// divisor is HOSTS_PER_LEAF — the same pipeline-friendly constant every
// leaf transaction divides by.
func FatAggRouteSource(p RouteParams) (string, error) {
	if err := p.validate(); err != nil {
		return "", err
	}
	return fmt.Sprintf(`
#define HALF %d
#define HOSTS_PER_LEAF %d
#define EDGE_LO %d
#define EDGE_HI %d

struct Packet {
  int sport;
  int dport;
  int arrival;
  int src;
  int dst;
  int size_bytes;
  int flow;
  int fb;
  int fb_path;
  int fb_util;
  int seq;
  int ecn;
  int fb_ack;
  int fb_ecn;
  int csum;
  int util;
  int path_id;
  int hops;
  int qmax;
  int qdelay;
  int path_digest;
  int edge;
  int local;
%s  int up;
  int down;
  int out_port;
};
%s
void fat_agg_route(struct Packet pkt) {
  pkt.edge = pkt.dst / HOSTS_PER_LEAF;
  pkt.local = (pkt.edge >= EDGE_LO) && (pkt.edge < EDGE_HI);
  pkt.up = hash2(pkt.sport, pkt.dport) %% HALF;
  pkt.down = HALF + pkt.edge - EDGE_LO;
  pkt.out_port = pkt.local ? pkt.down : pkt.up;
`, p.Spines, p.HostsPerLeaf, p.LeafID*p.Spines, (p.LeafID+1)*p.Spines,
		p.obsFields(), p.obsState(p.Spines+p.HostsPerLeaf)) + p.obsStamp() + "}\n", nil
}

// RoutingAlg is one entry of the routing-transaction catalog.
type RoutingAlg struct {
	// Name is the registry key (lower_snake).
	Name string
	// Title is the display name.
	Title string
	// Description summarizes the path-choice policy.
	Description string
	// Source instantiates the Domino transaction for a fabric position.
	Source func(RouteParams) (string, error)
	// Leaf is true for leaf (sender-side) transactions, false for spine.
	Leaf bool
	// Feedback is true when the policy needs sink hosts to reflect
	// (path_id, util) feedback packets.
	Feedback bool
}

// Routings returns the routing-transaction catalog.
func Routings() []RoutingAlg {
	return []RoutingAlg{
		{
			Name:        "ecmp_route",
			Title:       "ECMP",
			Description: "Per-flow equal-cost multi-path: uplink = hash of the flow's ports",
			Source:      ECMPRouteSource,
			Leaf:        true,
		},
		{
			Name:        "flowlet_route",
			Title:       "Flowlet switching",
			Description: "Re-pick the uplink at every flowlet boundary (paper Figure 3a, in a fabric)",
			Source:      FlowletRouteSource,
			Leaf:        true,
		},
		{
			Name:        "conga_route",
			Title:       "CONGA",
			Description: "Utilization-aware path choice from reflected leaf-to-leaf feedback",
			Source:      CongaRouteSource,
			Leaf:        true,
			Feedback:    true,
		},
		{
			Name:        "spine_route",
			Title:       "Spine down-route",
			Description: "Deterministic down-route: output port = destination leaf",
			Source:      SpineRouteSource,
		},
		{
			Name:        "fat_agg_route",
			Title:       "Fat-tree aggregation",
			Description: "Pod-local down-route, ECMP-hashed core uplink otherwise (k-ary fat tree)",
			Source:      FatAggRouteSource,
		},
	}
}

// RoutingByName returns the named routing transaction.
func RoutingByName(name string) (RoutingAlg, error) {
	for _, r := range Routings() {
		if r.Name == name {
			return r, nil
		}
	}
	return RoutingAlg{}, fmt.Errorf("algorithms: unknown routing %q", name)
}
