package switchsim

import "fmt"

// Totals aggregates a switch's lifetime packet accounting — the terms of
// the conservation identity
//
//	injected = departed + dropped + still-queued
//
// in both packets and bytes. Injected counts arrivals the pipeline
// accepted (enqueued or byte-cap dropped); pipeline errors and size
// rejections never enter the identity because the header is recycled at
// the admission edge.
type Totals struct {
	InjectedPkts, InjectedBytes int64
	DepartedPkts, DepartedBytes int64
	DroppedPkts, DroppedBytes   int64
	QueuedPkts, QueuedBytes     int64
}

// Totals sums the per-port statistics into the conservation terms.
func (s *Switch) Totals() Totals {
	t := Totals{InjectedPkts: s.injectedPkts, InjectedBytes: s.injectedBytes}
	for p := range s.stats {
		st := &s.stats[p]
		t.DepartedPkts += st.Departures
		t.DepartedBytes += st.DepartedBytes
		t.DroppedPkts += st.Drops
		t.DroppedBytes += st.DroppedBytes
		t.QueuedPkts += int64(s.queues[p].Len())
		t.QueuedBytes += st.QueueBytes
	}
	return t
}

// CheckConservation verifies the conservation identity on t, returning a
// descriptive error when packets or bytes leak. It is shared by the
// switch-level and network-level checks so every scenario test asserts
// the same invariant.
func (t Totals) CheckConservation() error {
	if got := t.DepartedPkts + t.DroppedPkts + t.QueuedPkts; got != t.InjectedPkts {
		return fmt.Errorf("packet conservation violated: injected %d != departed %d + dropped %d + queued %d (= %d)",
			t.InjectedPkts, t.DepartedPkts, t.DroppedPkts, t.QueuedPkts, got)
	}
	if got := t.DepartedBytes + t.DroppedBytes + t.QueuedBytes; got != t.InjectedBytes {
		return fmt.Errorf("byte conservation violated: injected %d != departed %d + dropped %d + queued %d (= %d)",
			t.InjectedBytes, t.DepartedBytes, t.DroppedBytes, t.QueuedBytes, got)
	}
	return nil
}

// CheckConservation asserts the switch's conservation identity: every
// injected packet (and byte) is accounted for as departed, dropped, or
// still queued. Call it at any quiescent point — mid-run (between Tick
// and the next Inject) or after Drain.
func (s *Switch) CheckConservation() error {
	t := s.Totals()
	if s.queued != t.QueuedPkts {
		return fmt.Errorf("queued-packet counter %d differs from the %d packets the port schedulers hold", s.queued, t.QueuedPkts)
	}
	return t.CheckConservation()
}

// Add accumulates another Totals into t (for summing switches network-wide).
func (t *Totals) Add(o Totals) {
	t.InjectedPkts += o.InjectedPkts
	t.InjectedBytes += o.InjectedBytes
	t.DepartedPkts += o.DepartedPkts
	t.DepartedBytes += o.DepartedBytes
	t.DroppedPkts += o.DroppedPkts
	t.DroppedBytes += o.DroppedBytes
	t.QueuedPkts += o.QueuedPkts
	t.QueuedBytes += o.QueuedBytes
}
