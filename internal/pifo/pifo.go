// Package pifo implements programmable packet scheduling with Push-In
// First-Out queues, the model of the Packet Transactions companion paper
// "Programmable Packet Scheduling at Line Rate" (Sivaraman et al.): each
// packet's scheduling order is decided at enqueue by a *rank* that a
// Domino packet transaction computes, the PIFO inserts the packet in rank
// order, and dequeue always takes the head. Hierarchical policies compose
// as a small tree of scheduling and shaping nodes (tree.go).
//
// Ranks are real compiled code, not callbacks: every rank or shaping
// transaction is compiled through the banzai closure engine and runs on
// the allocation-free header fast path (rank.go), so the PIFO subsystem
// inherits the line-rate, all-or-nothing guarantee of the ingress
// pipeline — a scheduling policy either maps to an atom pipeline or is
// rejected at build time.
//
// Contracts, each with the tests that enforce it:
//
//   - A Block pops in non-decreasing rank order with FIFO tie-break and
//     allocates nothing once grown (TestBlockMatchesReference,
//     TestBlockPopOrderNonDecreasing, TestBlockZeroAlloc); with a constant
//     rank a PIFO is exactly switchsim's FIFO (TestConstRankPIFOEqualsFIFO).
//   - Ownership: queued headers belong to the switch, which releases them
//     to the ingress machine's pool on departure or drop; a rank engine
//     copies into its one scratch header and never takes ownership, so
//     enqueue → rank → push → pop is 0 allocs/op
//     (TestRankEngineBridgePrecomputed, TestPIFOHotPathZeroAlloc). Per-port
//     schedulers are single-caller, each with private rank state.
//   - The build-time optimizer never changes a rank, hence never a
//     departure order (TestSchedulerOptimizerDifferential).
//   - Policies enforce what they claim (TestSTFQWeightedShares,
//     TestStrictPriority, TestWRRInterleaves, TestTokenBucketShaping,
//     TestHierarchicalSTFQ).
//   - Event driving: a tree whose visible heads are all shaped reports the
//     calendar's earliest send tick from NextEventTick without mutating
//     anything; answering early is allowed, late never
//     (TestShapedNextEventTickSkips, TestShapedEventDriverMatchesPolled).
package pifo

import "domino/internal/banzai"

// Item is one element of a PIFO block: a packet (at a leaf node) or a
// reference to a child node (at an internal node), ordered by Rank with
// FIFO tie-breaking on push order.
type Item struct {
	Rank int32
	seq  uint64

	// Leaf payload: the queued header and its metadata.
	H       banzai.Header
	Size    int64
	Arrived int64
	Seq     int64

	// Internal-node payload: the child the element refers to.
	Child int
}

// Block is one PIFO: push inserts in rank order, pop removes the minimum
// rank, equal ranks leave in push order (FIFO tie-break). It is a binary
// min-heap over (Rank, push sequence), split for the scheduler hot path:
// the heap itself holds compact 16-byte references ordered by rank and
// push sequence, while the Item payloads (~72 bytes with the header
// slice) sit in a stable side pool indexed by the references. Sifting
// therefore compares and moves only the small references — a 512-packet
// queue's heap stays L1-resident instead of streaming payloads — and a
// payload is copied exactly once on push and once on pop. Both arrays
// grow once and are recycled through a free list, so steady-state
// push/pop performs no allocation.
type Block struct {
	heap   []ref
	items  []Item
	free   []int32
	pushes uint64
}

// ref is one heap entry: the ordering key plus the payload's pool index.
type ref struct {
	rank int32
	idx  int32
	seq  uint64
}

// refLess orders a Block's heap by rank, then by push sequence.
func refLess(a, b ref) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// Len returns the number of queued items.
func (b *Block) Len() int { return len(b.heap) }

// Push inserts an item by its Rank.
func (b *Block) Push(it Item) {
	b.pushes++
	it.seq = b.pushes
	var idx int32
	if n := len(b.free); n > 0 {
		idx = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		idx = int32(len(b.items))
		b.items = append(b.items, Item{})
	}
	b.items[idx] = it
	b.heap = append(b.heap, ref{rank: it.Rank, idx: idx, seq: it.seq})
	b.siftUp()
}

// Peek returns the head (minimum rank, earliest push) without removing it.
func (b *Block) Peek() (Item, bool) {
	if len(b.heap) == 0 {
		return Item{}, false
	}
	return b.items[b.heap[0].idx], true
}

// Pop removes and returns the head.
func (b *Block) Pop() (Item, bool) {
	n := len(b.heap)
	if n == 0 {
		return Item{}, false
	}
	idx := b.heap[0].idx
	head := b.items[idx]
	b.items[idx] = Item{} // drop the header reference
	b.free = append(b.free, idx)
	b.heap[0] = b.heap[n-1]
	b.heap = b.heap[:n-1]
	b.siftDown()
	return head, true
}

// siftUp restores heap order after an append at the tail. Hole-based:
// the new reference rides in a register while parents slide down.
func (b *Block) siftUp() {
	h := b.heap
	i := len(h) - 1
	it := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(it, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// siftDown restores heap order after the root was replaced by the former
// tail, hole-based like siftUp.
func (b *Block) siftDown() {
	h := b.heap
	n := len(h)
	if n == 0 {
		return
	}
	it := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && refLess(h[r], h[c]) {
			c = r
		}
		if !refLess(h[c], it) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}

// siftUp restores the min-heap order after an append at the tail. It is
// hole-based: the inserted element is held in a register while parents
// slide down into the hole, so each level moves one element instead of
// swapping two. The generic forms serve tree.go's shaping calendar heap
// (calItem entries, off the per-packet path); Block carries its own
// monomorphic copies above so the packet hot path inlines refLess.
func siftUp[T any](h []T, less func(a, b T) bool) {
	i := len(h) - 1
	it := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(it, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// siftDown restores the min-heap order after the root was replaced by the
// former tail, hole-based like siftUp: the displaced root rides in a
// register while the smaller child of each level slides up.
func siftDown[T any](h []T, less func(a, b T) bool) {
	n := len(h)
	if n == 0 {
		return
	}
	it := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], it) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}
