package banzai

import (
	"testing"

	"domino/internal/atoms"
	"domino/internal/interp"
)

// pokeSrc reads a control-plane-owned state array: the program never
// writes port_up, so only PokeState can change what it reads — the
// netsim fault convention.
const pokeSrc = `
struct Packet { int idx; int out; int lvl; };
int port_up[4] = {1};
int level = 7;
void f(struct Packet pkt) {
  pkt.out = port_up[pkt.idx];
  pkt.lvl = level;
}
`

func TestPokePeekState(t *testing.T) {
	_, m := machine(t, pokeSrc, atoms.Nested)

	read := func(idx int32) int32 {
		out, err := m.Process(interp.Packet{"idx": idx})
		if err != nil {
			t.Fatal(err)
		}
		return out["out"]
	}
	if got := read(2); got != 1 {
		t.Fatalf("initial port_up[2] = %d, want 1", got)
	}
	if !m.PokeState("port_up", 2, 0) {
		t.Fatal("PokeState on a read state array returned false")
	}
	if got := read(2); got != 0 {
		t.Fatalf("after poke, program read port_up[2] = %d, want 0", got)
	}
	if got := read(1); got != 1 {
		t.Fatalf("poke bled into port_up[1]: got %d, want 1", got)
	}
	if v, ok := m.PeekState("port_up", 2); !ok || v != 0 {
		t.Fatalf("PeekState(port_up, 2) = %d,%v, want 0,true", v, ok)
	}

	// Scalars use index 0; other indices are out of range.
	if v, ok := m.PeekState("level", 0); !ok || v != 7 {
		t.Fatalf("PeekState(level, 0) = %d,%v, want 7,true", v, ok)
	}
	if !m.PokeState("level", 0, 9) {
		t.Fatal("PokeState on a scalar returned false")
	}
	if v, _ := m.PeekState("level", 0); v != 9 {
		t.Fatalf("scalar poke lost: %d", v)
	}
	if m.PokeState("level", 1, 1) {
		t.Fatal("PokeState(scalar, index 1) succeeded")
	}

	// Out-of-range and unknown names refuse instead of panicking.
	if m.PokeState("port_up", 4, 0) || m.PokeState("port_up", -1, 0) {
		t.Fatal("out-of-range array poke succeeded")
	}
	if m.PokeState("no_such_state", 0, 1) {
		t.Fatal("poke of an undeclared state succeeded")
	}
	if _, ok := m.PeekState("no_such_state", 0); ok {
		t.Fatal("peek of an undeclared state succeeded")
	}
}

// TestStateRef: a handle resolved once behaves exactly as the by-name
// calls do — same cell, same refusals — and keeps writing the storage the
// compiled closures read across ResetState and ScrambleState.
func TestStateRef(t *testing.T) {
	const src = `
struct Packet { int idx; int out; int lvl; };
int port_up[4] = {1};
int level = 7;
int spare[4] = {0};
void f(struct Packet pkt) {
  pkt.out = port_up[pkt.idx];
  pkt.lvl = level;
}
`
	_, m := machine(t, src, atoms.Nested)
	run := func(idx int32) (out, lvl int32) {
		pkt, err := m.Process(interp.Packet{"idx": idx})
		if err != nil {
			t.Fatal(err)
		}
		return pkt["out"], pkt["lvl"]
	}
	arr, ok := m.StateRef("port_up")
	if !ok {
		t.Fatal("StateRef(port_up) not found")
	}
	lvl, ok := m.StateRef("level")
	if !ok {
		t.Fatal("StateRef(level) not found")
	}

	// Handle and by-name access are one path: each sees the other's writes.
	if !arr.Set(3, 5) || !lvl.Set(0, 11) {
		t.Fatal("Set through a resolved handle refused")
	}
	if v, ok := m.PeekState("port_up", 3); !ok || v != 5 {
		t.Fatalf("PeekState after handle Set = %d,%v, want 5,true", v, ok)
	}
	if !m.PokeState("port_up", 0, -2) || !m.PokeState("level", 0, 12) {
		t.Fatal("PokeState refused")
	}
	if v, ok := arr.Get(0); !ok || v != -2 {
		t.Fatalf("handle Get after PokeState = %d,%v, want -2,true", v, ok)
	}
	if v, ok := lvl.Get(0); !ok || v != 12 {
		t.Fatalf("scalar handle Get after PokeState = %d,%v, want 12,true", v, ok)
	}
	if out, l := run(3); out != 5 || l != 12 {
		t.Fatalf("packet read port_up[3]=%d level=%d, want 5, 12", out, l)
	}

	// The refusals change nothing.
	if arr.Set(4, 9) || arr.Set(-1, 9) || lvl.Set(1, 9) {
		t.Fatal("out-of-range Set succeeded")
	}
	if _, ok := arr.Get(4); ok {
		t.Fatal("out-of-range Get succeeded")
	}
	if _, ok := lvl.Get(1); ok {
		t.Fatal("scalar Get at index 1 succeeded")
	}
	if out, l := run(3); out != 5 || l != 12 {
		t.Fatalf("a refused Set changed state: port_up[3]=%d level=%d", out, l)
	}

	// Unknown names, and state the program declares but never touches,
	// resolve to nothing; the zero handle refuses everything.
	for _, name := range []string{"no_such_state", "spare"} {
		r, ok := m.StateRef(name)
		if ok {
			t.Fatalf("StateRef(%s) found a cell", name)
		}
		if r.Set(0, 1) {
			t.Fatalf("Set through the missing %s handle succeeded", name)
		}
		if _, ok := r.Get(0); ok {
			t.Fatalf("Get through the missing %s handle succeeded", name)
		}
		if m.PokeState(name, 0, 1) {
			t.Fatalf("PokeState(%s) succeeded", name)
		}
	}

	// Handles taken before a wipe still reach the storage packets read.
	m.ResetState()
	if out, l := run(3); out != 1 || l != 7 {
		t.Fatalf("after ResetState packets read port_up[3]=%d level=%d, want the declared 1, 7", out, l)
	}
	for name, wipe := range map[string]func(){
		"ResetState":    m.ResetState,
		"ScrambleState": func() { m.ScrambleState(99) },
	} {
		wipe()
		if !arr.Set(2, 41) || !lvl.Set(0, 42) {
			t.Fatalf("after %s: Set through the old handle refused", name)
		}
		if out, l := run(2); out != 41 || l != 42 {
			t.Fatalf("after %s: packet read port_up[2]=%d level=%d, want the handle's 41, 42", name, out, l)
		}
	}
}

// TestLiveHeaders exercises the pool-leak oracle: acquires raise it,
// releases lower it, and the codec path (EncodeHeader) counts too.
func TestLiveHeaders(t *testing.T) {
	_, m := machine(t, pokeSrc, atoms.Nested)
	if got := m.LiveHeaders(); got != 0 {
		t.Fatalf("fresh machine has %d live headers", got)
	}
	a := m.AcquireHeader()
	b := m.EncodeHeader(interp.Packet{"idx": 1})
	c := m.AcquireHeaderUnzeroed()
	if got := m.LiveHeaders(); got != 3 {
		t.Fatalf("after 3 acquires: %d live", got)
	}
	m.ReleaseHeader(b)
	if got := m.LiveHeaders(); got != 2 {
		t.Fatalf("after 1 release: %d live", got)
	}
	m.ReleaseHeader(a)
	m.ReleaseHeader(c)
	if got := m.LiveHeaders(); got != 0 {
		t.Fatalf("after all releases: %d live", got)
	}
	// Reacquiring reuses the free list without growing `made`.
	d := m.AcquireHeader()
	if got := m.LiveHeaders(); got != 1 {
		t.Fatalf("reacquire: %d live", got)
	}
	m.ReleaseHeader(d)
}
