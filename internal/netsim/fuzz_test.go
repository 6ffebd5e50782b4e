package netsim

import (
	"math/rand"
	"testing"

	"domino/internal/algorithms"
	"domino/internal/codegen"
	"domino/internal/switchsim"
	"domino/internal/workload"
)

// FuzzNetTopology builds random small DAG topologies — every switch's
// ports lead strictly forward (to a higher-indexed switch or to a sink
// host), so packets cannot loop — drives random traffic through them,
// and checks the two oracles on every tick:
//
//  1. conservation: injected = delivered + dropped + queued + in-flight,
//     in packets and bytes (an equality, so it also rules out packet
//     duplication in either direction), and
//  2. termination: after a bounded drain, nothing remains queued or in
//     flight, and per-host sink counts sum exactly to the network's
//     delivered total.
//
// The seed corpus lives in testdata/fuzz/FuzzNetTopology; `make
// fuzz-smoke` replays it.
func FuzzNetTopology(f *testing.F) {
	// Every switch runs the positional spine program: out_port = dst,
	// reduced modulo the switch's port count — a deterministic spray that
	// exercises every DAG edge without caring about fabric geometry.
	src, err := algorithms.SpineRouteSource(algorithms.RouteParams{
		Leaves: 2, Spines: 1, HostsPerLeaf: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	prog, err := codegen.CompileLeastSource(src)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(int64(1), int64(3), int64(60))
	f.Add(int64(7), int64(0), int64(200))
	f.Add(int64(20260730), int64(5), int64(31))

	f.Fuzz(func(t *testing.T, seed, shape, load int64) {
		rng := rand.New(rand.NewSource(seed))
		nSwitches := 2 + int(uint64(shape)%5) // 2..6 switches
		nPackets := 1 + int(uint64(load)%512) // 1..512 packets
		n := New()

		// Edge targets per switch: one sink host each (so every packet
		// terminates) plus 1..3 forward edges to higher-indexed switches.
		type edge struct {
			toSwitch int // -1 → this switch's sink host
		}
		edges := make([][]edge, nSwitches)
		for i := 0; i < nSwitches; i++ {
			edges[i] = []edge{{toSwitch: -1}}
			if i < nSwitches-1 {
				for k := 0; k < 1+rng.Intn(3); k++ {
					edges[i] = append(edges[i], edge{toSwitch: i + 1 + rng.Intn(nSwitches-1-i)})
				}
			}
			rng.Shuffle(len(edges[i]), func(a, b int) {
				edges[i][a], edges[i][b] = edges[i][b], edges[i][a]
			})
		}

		switches := make([]NodeID, nSwitches)
		hosts := make([]NodeID, nSwitches)
		for i := 0; i < nSwitches; i++ {
			id, err := n.AddSwitch("sw", prog, switchsim.Config{
				Ports:               len(edges[i]),
				QueueCapBytes:       2000 + int64(rng.Intn(20000)),
				ServiceBytesPerTick: 500 + int64(rng.Intn(5000)),
				RouteField:          algorithms.RouteOutPort,
			})
			if err != nil {
				t.Fatal(err)
			}
			switches[i] = id
			hid, err := n.AddHost("h", id)
			if err != nil {
				t.Fatal(err)
			}
			hosts[i] = hid
		}
		for i, es := range edges {
			for p, e := range es {
				to := hosts[i]
				if e.toSwitch >= 0 {
					to = switches[e.toSwitch]
				}
				if err := n.Connect(switches[i], p, to, LinkOptions{
					Delay:                int64(1 + rng.Intn(4)),
					CapacityBytesPerTick: int64(500 + rng.Intn(4000)),
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := n.MapHosts(hosts); err != nil {
			t.Fatal(err)
		}

		for k := 0; k < nPackets; k++ {
			if err := n.InjectNow(&workload.NetPacket{
				Src:  int32(rng.Intn(nSwitches)),
				Dst:  int32(rng.Intn(1 << 20)),
				Flow: int32(k),
				Size: int32(rng.Intn(3000)),
			}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				mustStep(t, n)
				checkNet(t, n)
			}
		}
		for i := 0; i < 50000 && !n.idle(); i++ {
			mustStep(t, n)
			checkNet(t, n)
		}
		tot := n.Totals()
		if tot.QueuedPkts != 0 || tot.InFlightPkts != 0 {
			t.Fatalf("DAG did not drain: %d queued, %d in flight", tot.QueuedPkts, tot.InFlightPkts)
		}
		if tot.InjectedPkts != int64(nPackets) {
			t.Fatalf("injected %d, want %d", tot.InjectedPkts, nPackets)
		}
		var sunk int64
		for _, id := range hosts {
			h, err := n.HostByID(id)
			if err != nil {
				t.Fatal(err)
			}
			sunk += h.RcvdPkts + h.FbPkts
		}
		if sunk != tot.DeliveredPkts {
			t.Fatalf("hosts sank %d packets, network delivered %d", sunk, tot.DeliveredPkts)
		}
	})
}

// FuzzReliableTransport is the chaos oracle for the PR 7 reliable
// delivery layer: a small leaf-spine fabric with the transport enabled,
// a random fault schedule raging while the trace plays, then a restore
// and a bounded drain. Oracles, checked every tick and at the end:
//
//  1. the full four-identity conservation system (physical, delivered
//     split, injection split, sender resolution), byte-exact;
//  2. sender resolution terminates: after the drain every offered
//     packet is acked or given up — no packet is silently lost and no
//     flow hangs forever (the retry budget converts outage into loud
//     give-up);
//  3. receiver sanity: exactly-once acceptances never exceed offered;
//  4. no leaks (LiveHeaders == 0) and no panics, whatever the schedule
//     corrupts, crashes or severs — including ACKs on the feedback path.
//
// The seed corpus lives in testdata/fuzz/FuzzReliableTransport; `make
// fuzz-smoke` replays it.
func FuzzReliableTransport(f *testing.F) {
	f.Add(int64(1), int64(2), int64(0))
	f.Add(int64(4), int64(9), int64(77))
	f.Add(int64(9), int64(16), int64(424242))

	f.Fuzz(func(t *testing.T, seed, load, fseed int64) {
		routing := "ecmp_route"
		if seed&1 != 0 {
			routing = "conga_route"
		}
		c := Scenario{
			Routing: routing, Leaves: 2, Spines: 2, HostsPerLeaf: 1,
			Seed:         1 + int64(uint64(seed)%997),
			FlowsPerHost: 1 + int(uint64(load)%2),
			PktsPerFlow:  2 + int(uint64(load)%24),
			MeanBurst:    4, BurstGap: 8,
			ECN: true, ECNThresholdBytes: 2000,
		}
		ls := buildLS(t, c)
		n := ls.Net
		tr := c.Trace()
		if err := n.SetTrace(tr, ls.Hosts); err != nil {
			t.Fatal(err)
		}
		// A tight budget keeps give-up (and so the drain) fast when the
		// schedule severs a path for good.
		tp, err := n.EnableTransport(TransportConfig{
			RTO: 8, RTOMax: 64, MaxRetries: 4, Window: 8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if fseed != 0 {
			if err := n.SetFaults(n.RandomFaults(fseed, 200)); err != nil {
				t.Fatal(err)
			}
		}

		// Let the schedule and the transport fight it out.
		for i := 0; i < 300; i++ {
			mustStep(t, n)
			checkNet(t, n)
		}

		// Epilogue: heal the fabric; the transport must now resolve
		// every packet (ack or loud give-up) and the network must drain.
		n.ClearFaults()
		for i := 0; i < 100000 && !n.idle(); i++ {
			mustStep(t, n)
			checkNet(t, n)
		}
		if !tp.Done() {
			tt := tp.Totals()
			t.Fatalf("transport never resolved: offered %d, acked %d, given up %d, outstanding %d",
				tt.OfferedPkts, tt.AckedPkts, tt.GivenUpPkts, tt.OutstandingPkts)
		}
		tot := n.Totals()
		if tot.QueuedPkts != 0 || tot.InFlightPkts != 0 {
			t.Fatalf("faulted fabric did not drain: %d queued, %d in flight", tot.QueuedPkts, tot.InFlightPkts)
		}
		tt := tp.Totals()
		want := int64(len(tr.Packets))
		if tt.OfferedPkts != want {
			t.Fatalf("offered %d of %d trace packets", tt.OfferedPkts, want)
		}
		if tt.AckedPkts+tt.GivenUpPkts != want || tt.OutstandingPkts != 0 {
			t.Fatalf("sender resolution broken: acked %d + givenup %d != %d (outstanding %d)",
				tt.AckedPkts, tt.GivenUpPkts, want, tt.OutstandingPkts)
		}
		if tot.AcceptedPkts > want {
			t.Fatalf("accepted %d exceeds offered %d — dedup failed", tot.AcceptedPkts, want)
		}
		if live := n.LiveHeaders(); live != 0 {
			t.Fatalf("%d headers leaked under the fault schedule", live)
		}
	})
}

// FuzzNetFaults is the chaos oracle: random fault schedules (link downs
// with and without recovery, degradations, corruption windows, switch
// stalls and crashes) over random forward-DAG topologies under random
// traffic. Oracles, checked every tick and after the epilogue:
//
//  1. extended conservation: injected = delivered + dropped + queued +
//     in-flight + blackholed + corrupt-dropped, byte-exact;
//  2. termination: after ClearFaults (restore everything, cancel pending
//     events) a bounded drain must empty the network — no livelock, and
//     the no-progress watchdog must stay quiet once nothing is wedged;
//  3. no leaks: every header pool balances (LiveHeaders == 0) and
//     per-host sink counts sum exactly to the delivered total;
//  4. no panics, whatever the schedule scrambles.
//
// Odd seeds additionally turn the CONGA feedback reflection on, so the
// schedule's corruption and blackholing also hit feedback-carrying
// links: a scrambled or destroyed fb packet must never wedge the
// network or break conservation (with feedback, injected = trace
// packets + reflected fb packets).
//
// The seed corpus lives in testdata/fuzz/FuzzNetFaults; `make fuzz-smoke`
// replays it.
func FuzzNetFaults(f *testing.F) {
	src, err := algorithms.SpineRouteSource(algorithms.RouteParams{
		Leaves: 2, Spines: 1, HostsPerLeaf: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	prog, err := codegen.CompileLeastSource(src)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(int64(1), int64(3), int64(60), int64(5))
	f.Add(int64(7), int64(0), int64(200), int64(99))
	f.Add(int64(20260808), int64(5), int64(31), int64(0))

	f.Fuzz(func(t *testing.T, seed, shape, load, fseed int64) {
		rng := rand.New(rand.NewSource(seed))
		nSwitches := 2 + int(uint64(shape)%5) // 2..6 switches
		nPackets := 1 + int(uint64(load)%512) // 1..512 packets
		n := New()
		n.WatchdogTicks = 512 // longest link delay is 4; a wedge shows fast
		n.Feedback = seed&1 != 0

		type edge struct {
			toSwitch int // -1 → this switch's sink host
		}
		edges := make([][]edge, nSwitches)
		for i := 0; i < nSwitches; i++ {
			edges[i] = []edge{{toSwitch: -1}}
			if i < nSwitches-1 {
				for k := 0; k < 1+rng.Intn(3); k++ {
					edges[i] = append(edges[i], edge{toSwitch: i + 1 + rng.Intn(nSwitches-1-i)})
				}
			}
			rng.Shuffle(len(edges[i]), func(a, b int) {
				edges[i][a], edges[i][b] = edges[i][b], edges[i][a]
			})
		}

		switches := make([]NodeID, nSwitches)
		hosts := make([]NodeID, nSwitches)
		for i := 0; i < nSwitches; i++ {
			id, err := n.AddSwitch("sw", prog, switchsim.Config{
				Ports:               len(edges[i]),
				QueueCapBytes:       2000 + int64(rng.Intn(20000)),
				ServiceBytesPerTick: 500 + int64(rng.Intn(5000)),
				RouteField:          algorithms.RouteOutPort,
			})
			if err != nil {
				t.Fatal(err)
			}
			switches[i] = id
			hid, err := n.AddHost("h", id)
			if err != nil {
				t.Fatal(err)
			}
			hosts[i] = hid
		}
		for i, es := range edges {
			for p, e := range es {
				to := hosts[i]
				if e.toSwitch >= 0 {
					to = switches[e.toSwitch]
				}
				if err := n.Connect(switches[i], p, to, LinkOptions{
					Delay:                int64(1 + rng.Intn(4)),
					CapacityBytesPerTick: int64(500 + rng.Intn(4000)),
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := n.MapHosts(hosts); err != nil {
			t.Fatal(err)
		}

		// A random schedule over the wired topology — the whole point.
		if err := n.SetFaults(n.RandomFaults(fseed, 120)); err != nil {
			t.Fatal(err)
		}

		for k := 0; k < nPackets; k++ {
			if err := n.InjectNow(&workload.NetPacket{
				Src:  int32(rng.Intn(nSwitches)),
				Dst:  int32(rng.Intn(1 << 20)),
				Flow: int32(k),
				Size: int32(rng.Intn(3000)),
			}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				mustStep(t, n)
				checkNet(t, n)
			}
		}
		// Let the schedule play out with the network live.
		for i := 0; i < 150; i++ {
			mustStep(t, n)
			checkNet(t, n)
		}

		// Epilogue: restore everything; the network must now drain.
		n.ClearFaults()
		for i := 0; i < 50000 && !n.idle(); i++ {
			mustStep(t, n)
			checkNet(t, n)
		}
		tot := n.Totals()
		if tot.QueuedPkts != 0 || tot.InFlightPkts != 0 {
			t.Fatalf("faulted DAG did not drain after ClearFaults: %d queued, %d in flight", tot.QueuedPkts, tot.InFlightPkts)
		}
		if tot.InjectedPkts != int64(nPackets)+tot.FbInjectedPkts {
			t.Fatalf("injected %d, want %d trace + %d reflected", tot.InjectedPkts, nPackets, tot.FbInjectedPkts)
		}
		if !n.Feedback && tot.FbInjectedPkts != 0 {
			t.Fatalf("%d fb packets with feedback off", tot.FbInjectedPkts)
		}
		if got := tot.DeliveredPkts + tot.DroppedPkts + tot.BlackholedPkts + tot.CorruptDroppedPkts; got != tot.InjectedPkts+tot.DupInjectedPkts {
			t.Fatalf("drained loss accounting off: %d of %d injected (+%d dup-injected) accounted", got, tot.InjectedPkts, tot.DupInjectedPkts)
		}
		if live := n.LiveHeaders(); live != 0 {
			t.Fatalf("%d headers leaked under the fault schedule", live)
		}
		var sunk int64
		for _, id := range hosts {
			h, err := n.HostByID(id)
			if err != nil {
				t.Fatal(err)
			}
			sunk += h.RcvdPkts + h.FbPkts
		}
		if sunk != tot.DeliveredPkts {
			t.Fatalf("hosts sank %d packets, network delivered %d", sunk, tot.DeliveredPkts)
		}
	})
}
