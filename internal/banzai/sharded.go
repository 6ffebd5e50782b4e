package banzai

import (
	"fmt"
	"sync"

	"domino/internal/codegen"
	"domino/internal/interp"
)

// ShardedMachine replicates a compiled pipeline across n shards, each a
// full Machine with its own atom-local state, executing on its own
// goroutine — the software analogue of a multi-pipeline switch chip with
// RSS-style flow steering. All shards share one Layout, so headers are
// interchangeable across shards and with the generators that produced them.
//
// State-consistency caveat: state is per shard. A flow observes serial
// transaction semantics only if every one of its packets is steered to the
// same shard, which is what key-field steering guarantees. Cross-flow state
// (a global counter, a shared sketch) is split n ways; AggregateState sums
// the per-shard deltas, which is exact for additive state (counters,
// byte/packet tallies) and meaningless for last-writer state (use
// Shard(i).State() for those). TestDifferentialExecutionPaths (one pinned
// flow ≡ serial), TestShardedAggregateState and netsim's
// TestShardedFlowPinnedDeterminism enforce this; shard workers run
// ProcessBatchStageMajor. The only remaining callers are those tests and
// bench/catalog.go's banzai.sharded2.ratio.
type ShardedMachine struct {
	shards  []*Machine
	layout  *Layout
	keys    []int // slots hashed for steering; empty → round-robin
	rr      int
	scratch [][]Header // per-shard partition buffers, reused across batches

	in   []chan []Header
	errs []error
	wg   sync.WaitGroup // outstanding partitions of the current batch
	done sync.WaitGroup // running workers
	once sync.Once
}

// NewSharded builds n shards of a compiled program. keyFields names the
// packet fields whose values steer a header to a shard (hashed together);
// flows identical in those fields are pinned to one shard. With no key
// fields, headers are sprayed round-robin — maximum balance, but no flow
// affinity and therefore no per-flow state consistency.
func NewSharded(p *codegen.Program, n int, keyFields ...string) (*ShardedMachine, error) {
	if n <= 0 {
		return nil, fmt.Errorf("banzai: need at least one shard")
	}
	layout := NewLayout(p)
	s := &ShardedMachine{
		layout:  layout,
		scratch: make([][]Header, n),
		in:      make([]chan []Header, n),
		errs:    make([]error, n),
	}
	for _, f := range keyFields {
		slot, ok := layout.Slot(f)
		if !ok {
			return nil, fmt.Errorf("banzai: unknown steering field %q", f)
		}
		s.keys = append(s.keys, slot)
	}
	for i := 0; i < n; i++ {
		m, err := NewWithLayout(p, layout)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, m)
		s.in[i] = make(chan []Header, 1)
	}
	for i := 0; i < n; i++ {
		s.done.Add(1)
		go s.worker(i)
	}
	return s, nil
}

func (s *ShardedMachine) worker(i int) {
	defer s.done.Done()
	m := s.shards[i]
	for batch := range s.in[i] {
		// Stage-major execution keeps each stage's op program and state
		// hot across the shard's partition; results are bit-identical to
		// packet-major ProcessBatch.
		if err := m.ProcessBatchStageMajor(batch); err != nil && s.errs[i] == nil {
			s.errs[i] = err
		}
		s.wg.Done()
	}
}

// NumShards returns the shard count.
func (s *ShardedMachine) NumShards() int { return len(s.shards) }

// Layout returns the layout shared by every shard.
func (s *ShardedMachine) Layout() *Layout { return s.layout }

// Shard returns shard i's machine, for state inspection or direct
// single-shard use. Do not drive it concurrently with ProcessBatch.
func (s *ShardedMachine) Shard(i int) *Machine { return s.shards[i] }

// ShardFor returns the shard a header steers to, without consuming
// anything: with key fields it is a pure hash of the key slots (Fibonacci
// multiplicative hashing), stable for a flow; without key fields it
// reports where the next ProcessBatch packet will land (the round-robin
// counter advances only when a packet is actually steered).
func (s *ShardedMachine) ShardFor(h Header) int {
	if len(s.keys) == 0 {
		return s.rr
	}
	acc := uint32(2166136261)
	for _, slot := range s.keys {
		acc = (acc ^ uint32(h[slot])) * 16777619
	}
	return int((uint64(acc*2654435761) * uint64(len(s.shards))) >> 32)
}

// steer is ShardFor plus the round-robin advance — the consuming form used
// when a packet is actually dispatched.
func (s *ShardedMachine) steer(h Header) int {
	i := s.ShardFor(h)
	if len(s.keys) == 0 {
		s.rr = (s.rr + 1) % len(s.shards)
	}
	return i
}

// ProcessBatch steers every header of the batch to its shard and runs the
// shards in parallel, each mutating its headers in place. It blocks until
// the whole batch has been processed. Not safe for concurrent calls. On
// error (a shard left busy via direct Shard(i) ticking), the affected
// shard's portion of the batch is unprocessed; the error reflects this
// call only, not past batches.
func (s *ShardedMachine) ProcessBatch(hs []Header) error {
	for i := range s.scratch {
		clear(s.scratch[i]) // drop header refs from the previous batch
		s.scratch[i] = s.scratch[i][:0]
		s.errs[i] = nil
	}
	for _, h := range hs {
		i := s.steer(h)
		s.scratch[i] = append(s.scratch[i], h)
	}
	for i, part := range s.scratch {
		if len(part) == 0 {
			continue
		}
		s.wg.Add(1)
		s.in[i] <- part
	}
	s.wg.Wait()
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close stops the shard workers. The shards' state remains inspectable;
// further ProcessBatch calls will panic.
func (s *ShardedMachine) Close() {
	s.once.Do(func() {
		for _, ch := range s.in {
			close(ch)
		}
		s.done.Wait()
	})
}

// Packets returns the total packets processed across all shards.
func (s *ShardedMachine) Packets() int64 {
	var n int64
	for _, m := range s.shards {
		n += m.Packets()
	}
	return n
}

// AggregateState merges the per-shard states into one view by summing each
// shard's delta from the initial value: init + Σ_i (shard_i − init). This
// is exact for additive state — counters, byte tallies, sketch buckets —
// the state RSS-style sharding is meant for. For non-additive state
// (last-writer registers such as flowlet saved_hop) the sum is
// meaningless; read Shard(i).State() instead.
func (s *ShardedMachine) AggregateState() *interp.State {
	agg := interp.NewState(s.shards[0].prog.Info)
	init := interp.NewState(s.shards[0].prog.Info)
	for _, m := range s.shards {
		st := m.State()
		for k, v := range st.Scalars {
			agg.Scalars[k] += v - init.Scalars[k]
		}
		for k, arr := range st.Arrays {
			ia, aa := init.Arrays[k], agg.Arrays[k]
			for i, v := range arr {
				aa[i] += v - ia[i]
			}
		}
	}
	return agg
}
