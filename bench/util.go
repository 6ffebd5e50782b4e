package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"domino/internal/banzai"
	"domino/internal/workload"
)

// digest fingerprints generated inputs, so that a run records which
// inputs it measured and the seed tests can tell two seeds apart.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int64(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) int32s(vs []int32) {
	for _, v := range vs {
		d.int64(int64(v))
	}
}

func (d *digest) netTrace(tr *workload.NetTrace) {
	for i := range tr.Packets {
		p := &tr.Packets[i]
		for _, v := range [...]int64{int64(p.Src), int64(p.Dst), int64(p.Sport), int64(p.Dport), int64(p.Flow), int64(p.Size), p.Arrival} {
			d.int64(v)
		}
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// shiftTrace moves every arrival of tr by delta ticks, in place: a
// fabric's clock never rewinds, so each replay is the same trace moved
// past Now().
func shiftTrace(tr *workload.NetTrace, delta int64) {
	for i := range tr.Packets {
		tr.Packets[i].Arrival += delta
	}
	for i := range tr.FlowStart {
		tr.FlowStart[i] += delta
	}
}

// cloneTrace copies the parts of a trace a replay mutates or a fabric
// retains.
func cloneTrace(tr *workload.NetTrace) *workload.NetTrace {
	c := *tr
	c.Packets = append([]workload.NetPacket(nil), tr.Packets...)
	c.FlowStart = append([]int64(nil), tr.FlowStart...)
	return &c
}

// netHeaders stamps a network trace into one slab of headers of layout
// l, the fields a host injection stamps (missing fields are skipped), so
// the ladder can push a fabric workload's own packets through a bare
// machine or a lone switch.
func netHeaders(l *banzai.Layout, pkts []workload.NetPacket) []banzai.Header {
	width := l.NumSlots()
	slab := make([]int32, len(pkts)*width)
	hs := make([]banzai.Header, len(pkts))
	slot := func(f string) int {
		if s, ok := l.Slot(f); ok {
			return s
		}
		return -1
	}
	fields := []int{slot("sport"), slot("dport"), slot("arrival"), slot("src"), slot("dst"), slot("size_bytes"), slot("flow")}
	for i := range pkts {
		p := &pkts[i]
		h := banzai.Header(slab[i*width : (i+1)*width : (i+1)*width])
		for k, v := range []int32{p.Sport, p.Dport, int32(p.Arrival), p.Src, p.Dst, p.Size, p.Flow} {
			if fields[k] >= 0 {
				h[fields[k]] = v
			}
		}
		hs[i] = h
	}
	return hs
}
