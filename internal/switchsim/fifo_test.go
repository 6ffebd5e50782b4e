package switchsim

import (
	"math/rand"
	"reflect"
	"testing"

	"domino/internal/algorithms"
	"domino/internal/banzai"
	"domino/internal/codegen"
	"domino/internal/interp"
	"domino/internal/telemetry"
	"domino/internal/workload"
)

// ringsBehindInterface is a custom Scheduler that builds the default
// scheduler's own rings: a switch configured with it queues exactly as a
// default switch does, but reaches every ring through the PortScheduler
// interface loop instead of the concrete FIFO one.
type ringsBehindInterface struct{}

func (ringsBehindInterface) Build(l *banzai.Layout, ports int) ([]PortScheduler, error) {
	out := make([]PortScheduler, ports)
	for p := range out {
		out[p] = &fifoRing{}
	}
	return out, nil
}

// fifoTwin is one side of the differential: a switch, its telemetry, and
// what it emitted since the last comparison.
type fifoTwin struct {
	sw   *Switch
	reg  *telemetry.Registry
	ring *telemetry.Ring
	out  []fifoEmit
}

type fifoEmit struct {
	flushed      bool
	port         int
	tick         int64
	seq, arrived int64
	size         int64
	dst          int32
}

func newFIFOTwin(t *testing.T, sched Scheduler) *fifoTwin {
	t.Helper()
	tw := &fifoTwin{reg: telemetry.NewRegistry(), ring: telemetry.NewRing(1<<16, 1, 1)}
	sw, err := New(compileRoute(t), Config{
		Ports:                   4,
		QueueCapBytes:           12000,
		ServiceBytesPerTick:     1000,
		PortServiceBytesPerTick: []int64{0, 1500, 700, 2500},
		RouteField:              algorithms.RouteOutPort,
		Scheduler:               sched,
		Telemetry:               tw.reg,
		Trace:                   tw.ring,
		TraceNode:               3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tw.sw = sw
	return tw
}

func (tw *fifoTwin) emit(flushed bool) func(int, QueuedHeader) {
	return func(port int, qh QueuedHeader) {
		tw.out = append(tw.out, fifoEmit{
			flushed: flushed, port: port, tick: tw.sw.Now(),
			seq: qh.Seq, arrived: qh.Arrived, size: qh.Size,
			dst: qh.H[tw.sw.routeSlot],
		})
		tw.sw.Machine().ReleaseHeader(qh.H)
	}
}

// TestFIFOFastPathEqualsInterfacePath drives one seeded random script
// through a default switch (concrete FIFO loop) and through a switch
// whose custom Scheduler hands back the same rings (interface loop), and
// requires them to be indistinguishable at every tick: departures,
// flushes, stats, store-and-forward credit, NextEventTick, conservation
// and the trace ring. The script must reach the cases the FIFO loop
// could get wrong, so it counts them and fails if one never came up.
func TestFIFOFastPathEqualsInterfacePath(t *testing.T) {
	fast, slow := newFIFOTwin(t, nil), newFIFOTwin(t, ringsBehindInterface{})
	if fast.sw.fifos == nil || slow.sw.fifos != nil {
		t.Fatalf("path selection: default switch fifos=%v, custom-scheduler switch fifos=%v",
			fast.sw.fifos != nil, slow.sw.fifos != nil)
	}
	twins := []*fifoTwin{fast, slow}
	both := func(f func(tw *fifoTwin)) {
		for _, tw := range twins {
			f(tw)
		}
	}
	inject := func(dst int32, size int64) {
		both(func(tw *fifoTwin) {
			if _, _, _, err := tw.sw.Inject(interp.Packet{"dst": dst}, size); err != nil {
				t.Fatal(err)
			}
		})
	}

	rng := rand.New(rand.NewSource(14))
	sizes := []int64{64, 400, 700, 1000, 1500, 2600, 4000} // the last two exceed most ports' rates
	rates := []int64{300, 700, 1000, 1500, 2500}
	var sawCreditFlush, sawOversized, sawDrop, sawDownWithQueue, sawGap int
	for step := 0; step < 4000; step++ {
		for k := rng.Intn(4); k > 0; k-- {
			inject(int32(rng.Intn(4)), sizes[rng.Intn(len(sizes))])
		}
		switch r := rng.Intn(100); {
		case r < 4:
			p, up := rng.Intn(4), rng.Intn(3) > 0
			both(func(tw *fifoTwin) { tw.sw.SetPortUp(p, up) })
		case r < 7:
			p, rate := rng.Intn(4), rates[rng.Intn(len(rates))]
			both(func(tw *fifoTwin) { tw.sw.SetPortRate(p, rate) })
		case r < 10:
			// Flush, then enqueue on the same tick on some ports: an arrival
			// lands behind whatever credit a flushed head left on its port,
			// and a port left empty has that credit retired by the next pass.
			for _, c := range fast.sw.carry {
				if c > 0 {
					sawCreditFlush++
					break
				}
			}
			both(func(tw *fifoTwin) { tw.sw.FlushQueues(tw.emit(true)) })
			for p := int32(0); p < 4; p++ {
				if rng.Intn(2) == 0 {
					inject(p, sizes[rng.Intn(len(sizes))])
				}
			}
		}
		next := fast.sw.Now() + 1
		if rng.Intn(20) == 0 {
			next += int64(1 + rng.Intn(20))
			sawGap++
		}
		for p := 0; p < 4; p++ {
			if !fast.sw.PortUp(p) && fast.sw.PortQueueBytes(p) > 0 {
				sawDownWithQueue++
			}
		}
		both(func(tw *fifoTwin) { tw.sw.TickAt(next, tw.emit(false)) })

		a, b := fast.sw, slow.sw
		if !reflect.DeepEqual(fast.out, slow.out) {
			t.Fatalf("step %d: emitted packets diverge\nfifo loop:      %+v\ninterface loop: %+v", step, fast.out, slow.out)
		}
		for _, e := range fast.out {
			if !e.flushed && e.size > 2500 {
				sawOversized++
			}
		}
		fast.out, slow.out = fast.out[:0], slow.out[:0]
		if !reflect.DeepEqual(a.Stats(), b.Stats()) {
			t.Fatalf("step %d: Stats diverge\nfifo loop:      %+v\ninterface loop: %+v", step, a.Stats(), b.Stats())
		}
		if !reflect.DeepEqual(a.carry, b.carry) {
			t.Fatalf("step %d: store-and-forward credit %v vs %v", step, a.carry, b.carry)
		}
		if a.QueuedPkts() != b.QueuedPkts() || a.Now() != b.Now() {
			t.Fatalf("step %d: QueuedPkts %d vs %d, Now %d vs %d", step, a.QueuedPkts(), b.QueuedPkts(), a.Now(), b.Now())
		}
		if x, y := a.NextEventTick(a.Now()), b.NextEventTick(b.Now()); x != y {
			t.Fatalf("step %d: NextEventTick %d vs %d", step, x, y)
		}
		mustConserve(t, a)
		mustConserve(t, b)
	}

	for _, st := range fast.sw.Stats() {
		sawDrop += int(st.Drops)
	}
	for name, n := range map[string]int{
		"flush while a head held credit": sawCreditFlush, "oversized departure": sawOversized,
		"tail drop": sawDrop, "service pass over a downed, non-empty port": sawDownWithQueue,
		"idle gap": sawGap,
	} {
		if n == 0 {
			t.Errorf("the script never produced a %s", name)
		}
	}
	if !reflect.DeepEqual(fast.ring.Events(), slow.ring.Events()) || fast.ring.Seen() != slow.ring.Seen() {
		t.Errorf("trace rings diverge: %d vs %d events seen", fast.ring.Seen(), slow.ring.Seen())
	}
	if !reflect.DeepEqual(fast.reg.Snapshot(), slow.reg.Snapshot()) {
		t.Errorf("telemetry snapshots diverge")
	}
	if fast.ring.Len() == 0 || uint64(fast.ring.Len()) != fast.ring.Seen() {
		t.Errorf("trace ring holds %d of %d records; the comparison needs all of them", fast.ring.Len(), fast.ring.Seen())
	}
}

// TestFIFOSwitchZeroAlloc pins the standalone switch's allocation
// contract on the default FIFO rings: once the header pool and the rings
// are warm, injecting pooled headers and serving them through TickFunc
// (the emit callback hands each header back to the pool) allocates
// nothing.
func TestFIFOSwitchZeroAlloc(t *testing.T) {
	prog, err := codegen.CompileLeastSource(algorithms.SchedIngress)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := New(prog, Config{Ports: 4, ServiceBytesPerTick: 2048, QueueCapBytes: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	m := sw.Machine()
	tenants := []workload.TenantSpec{{Weight: 1, Flows: 4}, {Weight: 2, Flows: 4}, {Weight: 4, Flows: 4}}
	hs, _ := workload.MultiTenantTraceHeaders(m.Layout(), 1, tenants, 4096, 4)
	i, departed := 0, 0
	release := func(_ int, qh QueuedHeader) {
		m.ReleaseHeader(qh.H)
		departed++
	}
	step := func() {
		for k := 0; k < 2; k++ {
			h := m.AcquireHeader()
			copy(h, hs[i&4095])
			i++
			if _, _, err := sw.InjectH(h, 256); err != nil {
				t.Fatal(err)
			}
		}
		sw.TickFunc(release)
	}
	for k := 0; k < 64; k++ {
		step()
	}
	if n := testing.AllocsPerRun(4096, step); n != 0 {
		t.Errorf("InjectH ×2 + TickFunc: %.1f allocs per tick, want 0", n)
	}
	if departed == 0 {
		t.Fatal("nothing departed: the service loop was not exercised")
	}
	mustConserve(t, sw)
}
