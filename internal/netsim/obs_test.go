package netsim

// PR 8 acceptance tests: the in-band telemetry record read off delivered
// headers must match the leaf-spine topology (every cross-leaf data
// packet crosses exactly leaf→spine→leaf, and its digest folds the node
// ids of those three switches), and the full observability snapshot must
// be byte-deterministic for a fixed seed.

import (
	"bytes"
	"testing"

	"domino/internal/algorithms"
	"domino/internal/telemetry"
)

// obsConfig is the smallest fabric where paths are enumerable by hand:
// two leaves, two spines, one host per leaf. Node ids follow creation
// order — spine0=0, spine1=1, leaf0=2, host0=3, leaf1=4, host1=5.
func obsConfig(reg *telemetry.Registry, ring *telemetry.Ring) Scenario {
	return Scenario{
		Routing: "ecmp_route",
		Leaves:  2, Spines: 2, HostsPerLeaf: 1,
		Seed:      7,
		INT:       true,
		Telemetry: reg,
		Ring:      ring,
	}
}

func TestINTDeliveryMatchesTopology(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := obsConfig(reg, nil)
	ls := buildLS(t, c)

	// The digests any healthy cross-leaf packet can carry: host0's leaf
	// is node 2, host1's leaf node 4, the spines nodes 0 and 1.
	leaf0, leaf1 := int32(ls.Leaves[0]), int32(ls.Leaves[1])
	if leaf0 != 2 || leaf1 != 4 {
		t.Fatalf("leaf node ids = %d,%d, want 2,4 (creation-order contract moved?)", leaf0, leaf1)
	}
	valid := map[int32]bool{}
	for _, sp := range ls.Spines {
		valid[algorithms.PathDigest(leaf0, int32(sp), leaf1)] = true
		valid[algorithms.PathDigest(leaf1, int32(sp), leaf0)] = true
	}

	var data int64
	ls.Net.OnDeliver = func(ev Delivery) {
		if ev.Fb {
			return
		}
		data++
		if ev.Hops != 3 {
			t.Fatalf("delivery at host %d: hops = %d, want 3 (leaf, spine, leaf)", ev.Host, ev.Hops)
		}
		if !valid[ev.Digest] {
			t.Fatalf("delivery at host %d: digest %d matches no leaf>spine>leaf path (%s)",
				ev.Host, ev.Digest, ls.PathName(ev.Digest))
		}
	}
	if err := ls.Net.SetTrace(c.Trace(), ls.Hosts); err != nil {
		t.Fatal(err)
	}
	if err := ls.Net.Drain(DrainLimit); err != nil {
		t.Fatal(err)
	}
	if data == 0 {
		t.Fatal("no data packets delivered")
	}

	// The sink-side tallies must agree with the per-delivery stream: the
	// path counts sum to the data deliveries, every digest decodes to a
	// named path, and the hops histogram saw exactly hops=3 samples.
	var pathSum int64
	for _, pc := range ls.NamedPathCounts() {
		pathSum += pc.Pkts
		if !valid[pc.Digest] {
			t.Fatalf("path count for unknown digest %d (%s)", pc.Digest, pc.Name)
		}
		if pc.Name == "" || pc.Name[:4] != "leaf" {
			t.Fatalf("digest %d did not decode to a path name: %q", pc.Digest, pc.Name)
		}
	}
	if pathSum != data {
		t.Fatalf("path counts sum to %d, want %d data deliveries", pathSum, data)
	}
	hops := reg.Histogram("int.hops")
	if hops.Count() != data || hops.Max() != 3 || hops.Sum() != 3*data {
		t.Fatalf("int.hops histogram count/sum/max = %d/%d/%d, want %d/%d/3",
			hops.Count(), hops.Sum(), hops.Max(), data, 3*data)
	}
}

func TestEcnMarkTally(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := obsConfig(reg, nil)
	c.ECN = true
	c.ECNThresholdBytes = 1     // any queued byte marks
	c.UplinkBytesPerTick = 1500 // one packet per tick: queues form
	res, err := RunScenario(c)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Totals
	if tot.EcnMarkedPkts == 0 {
		t.Fatal("no ECN marks despite 1-byte threshold on a congested fabric")
	}
	if got := reg.Counter("net.ecn_marked_pkts").Value(); got != tot.EcnMarkedPkts {
		t.Fatalf("counter net.ecn_marked_pkts = %d, totals say %d", got, tot.EcnMarkedPkts)
	}
	if tot.EcnMarkedPkts > tot.DeliveredPkts {
		t.Fatalf("%d marks exceed %d deliveries", tot.EcnMarkedPkts, tot.DeliveredPkts)
	}
}

// snapshotJSON runs the fixed-seed scenario once and exports it.
func snapshotJSON(t *testing.T) []byte {
	t.Helper()
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(256, 4, 99)
	c2 := obsConfig(reg, ring)
	c2.ECN = true
	ls := buildLS(t, c2)
	if err := ls.Net.SetTrace(c2.Trace(), ls.Hosts); err != nil {
		t.Fatal(err)
	}
	if err := ls.Net.Drain(DrainLimit); err != nil {
		t.Fatal(err)
	}
	b, err := ls.Net.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSnapshotDeterministic(t *testing.T) {
	a := snapshotJSON(t)
	b := snapshotJSON(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different snapshots:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	for _, want := range []string{`"metrics"`, `"paths"`, `"events"`, `"int.hops"`, `"kind": "deliver"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("snapshot missing %s:\n%s", want, a[:min(len(a), 2000)])
		}
	}
}
