// Package wavelet implements a level-wise (pointerless) wavelet tree over
// an integer sequence with alphabet [0, sigma), supporting access, rank
// and select in O(log sigma) time. It is the substrate HDT-FoQ uses to
// represent the predicate level of its single SPO trie (Section 2 of the
// paper); the per-occurrence select cost is what makes HDT-FoQ's ?P?
// pattern slow in Tables 5 and 6.
package wavelet

import (
	"fmt"
	"math/bits"

	xbits "rdfindexes/internal/bits"
	"rdfindexes/internal/codec"
)

// Tree is an immutable wavelet tree.
type Tree struct {
	n      int
	sigma  uint64
	height uint
	levels []*xbits.RankSelect
}

// New builds a wavelet tree over data with alphabet [0, sigma). Every
// value must be below sigma.
func New(data []uint64, sigma uint64) *Tree {
	if sigma == 0 {
		sigma = 1
	}
	t := &Tree{n: len(data), sigma: sigma, height: uint(bits.Len64(sigma - 1))}
	if t.height == 0 {
		return t // single-symbol alphabet: nothing to store
	}
	t.levels = make([]*xbits.RankSelect, t.height)
	cur := append([]uint64(nil), data...)
	next := make([]uint64, len(data))
	for l := uint(0); l < t.height; l++ {
		shift := t.height - 1 - l
		bv := xbits.NewVector(len(cur))
		for i, v := range cur {
			if v >= sigma {
				panic(fmt.Sprintf("wavelet: value %d outside alphabet [0, %d)", v, sigma))
			}
			if v>>shift&1 == 1 {
				bv.SetBit(i)
			}
		}
		t.levels[l] = xbits.NewRankSelect(bv)
		// Reorder stably by the top l+1 bits (counting sort by prefix):
		// cur is already grouped by the top l bits, so this partitions
		// each node's interval into its two children.
		numPrefixes := int((sigma-1)>>shift) + 1
		offsets := make([]int, numPrefixes+1)
		for _, v := range cur {
			offsets[v>>shift+1]++
		}
		for p := 1; p <= numPrefixes; p++ {
			offsets[p] += offsets[p-1]
		}
		for _, v := range cur {
			next[offsets[v>>shift]] = v
			offsets[v>>shift]++
		}
		cur, next = next, cur
	}
	return t
}

// Len returns the sequence length.
func (t *Tree) Len() int { return t.n }

// Access returns the symbol at position i.
func (t *Tree) Access(i int) uint64 {
	var sym uint64
	a, b := 0, t.n
	for l := uint(0); l < t.height; l++ {
		rs := t.levels[l]
		onesA := rs.Rank1(a)
		zeros := (b - a) - (rs.Rank1(b) - onesA)
		sym <<= 1
		if rs.Vector().Bit(i) {
			sym |= 1
			i = a + zeros + (rs.Rank1(i) - onesA)
			a += zeros
		} else {
			i = a + (rs.Rank0(i) - (a - onesA))
			b = a + zeros
		}
	}
	return sym
}

// Count returns the number of occurrences of sym: the width of its leaf
// interval.
func (t *Tree) Count(sym uint64) int {
	if sym >= t.sigma {
		return 0
	}
	a, b := 0, t.n
	for l := uint(0); l < t.height; l++ {
		rs := t.levels[l]
		onesA := rs.Rank1(a)
		zeros := (b - a) - (rs.Rank1(b) - onesA)
		if sym>>(t.height-1-l)&1 == 0 {
			b = a + zeros
		} else {
			a += zeros
		}
	}
	return b - a
}

// Select returns the position of the k-th (0-based) occurrence of sym, or
// -1 if sym occurs fewer than k+1 times.
func (t *Tree) Select(sym uint64, k int) int {
	if sym >= t.sigma || k < 0 {
		return -1
	}
	if t.height == 0 {
		if k >= t.n {
			return -1
		}
		return k
	}
	// Descend to the leaf interval, recording the node start per level.
	starts := make([]int, t.height)
	a, b := 0, t.n
	for l := uint(0); l < t.height; l++ {
		starts[l] = a
		rs := t.levels[l]
		onesA := rs.Rank1(a)
		zeros := (b - a) - (rs.Rank1(b) - onesA)
		if sym>>(t.height-1-l)&1 == 0 {
			b = a + zeros
		} else {
			a += zeros
		}
	}
	if k >= b-a {
		return -1
	}
	// Ascend, translating the occurrence index into positions.
	p := k
	for l := int(t.height) - 1; l >= 0; l-- {
		rs := t.levels[l]
		na := starts[l]
		if sym>>(t.height-1-uint(l))&1 == 0 {
			p = rs.Select0(rs.Rank0(na)+p) - na
		} else {
			p = rs.Select1(rs.Rank1(na)+p) - na
		}
	}
	return p
}

// SizeBits returns the storage footprint in bits.
func (t *Tree) SizeBits() uint64 {
	var total uint64 = 3 * 64
	for _, rs := range t.levels {
		total += rs.Vector().SizeBits() + rs.SizeBits()
	}
	return total
}

// Encode writes the tree to w; the rank/select directories are rebuilt at
// decode time.
func (t *Tree) Encode(w *codec.Writer) {
	w.Uvarint(uint64(t.n))
	w.Uvarint(t.sigma)
	for _, rs := range t.levels {
		rs.Vector().Encode(w)
	}
}

// Decode reads a tree written by Encode.
func Decode(r *codec.Reader) (*Tree, error) {
	t := &Tree{}
	t.n = int(r.Uvarint())
	t.sigma = r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if t.sigma == 0 {
		return nil, r.Fail(fmt.Errorf("%w: wavelet sigma", codec.ErrCorrupt))
	}
	t.height = uint(bits.Len64(t.sigma - 1))
	t.levels = make([]*xbits.RankSelect, t.height)
	for l := range t.levels {
		bv, err := xbits.DecodeVector(r)
		if err != nil {
			return nil, err
		}
		if bv.Len() != t.n {
			return nil, r.Fail(fmt.Errorf("%w: wavelet level length", codec.ErrCorrupt))
		}
		t.levels[l] = xbits.NewRankSelect(bv)
	}
	return t, nil
}
