package ef

import (
	"fmt"

	xbits "rdfindexes/internal/bits"
	"rdfindexes/internal/codec"
)

// OptPartitioned is the cost-optimized variant of partitioned Elias-Fano:
// instead of fixed-size partitions, boundaries are chosen by a dynamic
// program minimizing the estimated encoded size (the approach of
// Ottaviano and Venturini, here at a boundary granularity of optGrain
// positions, which approximates the optimum within a small constant).
// Random access pays one extra search to locate the partition of a
// position; the space is at most that of the uniform partitioning.
//
// It reads through the same decoded directory and iterator as
// Partitioned; only the partitioning and the encoded form differ.
type OptPartitioned struct {
	Partitioned
}

// optGrain is the boundary granularity of the partitioning DP.
const optGrain = 64

// optMaxPart is the maximum partition size considered by the DP.
const optMaxPart = 4096

// optFixedCost approximates the per-partition overhead in bits (endpoint,
// upper bound, offset and kind entries).
const optFixedCost = 96

// estimateCost approximates the encoded size in bits of one partition.
func estimateCost(sz int, span uint64) uint64 {
	if span == uint64(sz) {
		return optFixedCost // likely allOnes
	}
	l := lowBitsFor(sz, span)
	ef := uint64(6) + uint64(sz)*uint64(l) + uint64(sz) + span>>l + 1
	if span < ef {
		return span + optFixedCost // bitmap
	}
	return ef + optFixedCost
}

// NewOptPartitioned encodes values (non-decreasing) with cost-optimized
// partition boundaries.
func NewOptPartitioned(values []uint64) *OptPartitioned {
	p := &OptPartitioned{*newPartitioned(values, 0)}
	n := p.n

	// Candidate boundaries at multiples of optGrain plus n itself.
	numCands := (n + optGrain - 1) / optGrain
	boundary := func(c int) int { // boundary position of candidate c
		if pos := c * optGrain; pos < n {
			return pos
		}
		return n
	}
	// dp over candidates 0..numCands; dp[c] = best cost of encoding
	// values[0:boundary(c)].
	const inf = ^uint64(0) >> 1
	dp := make([]uint64, numCands+1)
	from := make([]int32, numCands+1)
	for c := 1; c <= numCands; c++ {
		dp[c] = inf
		end := boundary(c)
		maxBack := optMaxPart / optGrain
		for back := 1; back <= maxBack && c-back >= 0; back++ {
			start := boundary(c - back)
			if start >= end {
				continue
			}
			var base uint64
			if start > 0 {
				base = values[start-1]
			}
			cost := dp[c-back] + estimateCost(end-start, values[end-1]-base)
			if cost < dp[c] {
				dp[c] = cost
				from[c] = int32(c - back)
			}
		}
	}

	// Recover boundaries and encode each partition.
	var cuts []int
	for c := numCands; c > 0; c = int(from[c]) {
		cuts = append(cuts, boundary(c))
	}
	start := 0
	for i := len(cuts) - 1; i >= 0; i-- {
		p.appendPartition(values, start, cuts[i])
		start = cuts[i]
	}
	ends, uppers, offsets, kinds := p.encodedColumns()
	p.sizeBits = p.payload.SizeBits() + ends.SizeBits() + uppers.SizeBits() +
		uint64(len(kinds))*8 + offsets.SizeBits() + 2*64
	return p
}

// encodedColumns returns the directory columns as Encode writes them.
func (p *OptPartitioned) encodedColumns() (ends, uppers *Sequence, offsets *xbits.CompactVector, kinds []byte) {
	u, e, offs, kinds := p.columns()
	if len(offs) == 0 {
		offs = []uint64{0}
	}
	return New(e), New(u), xbits.NewCompact(offs), kinds
}

// Encode writes the sequence to w.
func (p *OptPartitioned) Encode(w *codec.Writer) {
	ends, uppers, offsets, kinds := p.encodedColumns()
	w.Uvarint(uint64(p.n))
	w.Uvarint(p.universe)
	ends.Encode(w)
	uppers.Encode(w)
	w.Bytes(kinds)
	offsets.Encode(w)
	p.payload.Encode(w)
}

// DecodeOptPartitioned reads a sequence written by Encode.
func DecodeOptPartitioned(r *codec.Reader) (*OptPartitioned, error) {
	p := &OptPartitioned{}
	p.n = int(r.Uvarint())
	p.universe = r.Uvarint()
	if p.n < 0 {
		return nil, r.Fail(fmt.Errorf("%w: opt-pef header", codec.ErrCorrupt))
	}
	ends, err := Decode(r)
	if err != nil {
		return nil, err
	}
	upper, err := Decode(r)
	if err != nil {
		return nil, err
	}
	kinds := r.BytesBuf()
	offsets, err := xbits.DecodeCompact(r)
	if err != nil {
		return nil, err
	}
	if p.payload, err = xbits.DecodeVector(r); err != nil {
		return nil, err
	}
	numParts := ends.Len()
	if len(kinds) != numParts || upper.Len() != numParts || offsets.Len() != max(numParts, 1) {
		return nil, r.Fail(fmt.Errorf("%w: opt-pef partition count", codec.ErrCorrupt))
	}
	if err := p.decodeDirectory(upper, kinds, offsets, ends); err != nil {
		return nil, r.Fail(err)
	}
	p.sizeBits = p.payload.SizeBits() + ends.SizeBits() + upper.SizeBits() +
		uint64(len(kinds))*8 + offsets.SizeBits() + 2*64
	return p, nil
}
