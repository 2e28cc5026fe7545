// Package ef implements Elias-Fano encodings of monotone integer
// sequences: the plain encoding with constant-time access and fast
// successor queries, and the partitioned variant (PEF) of Ottaviano and
// Venturini that splits the sequence into partitions encoded independently
// as Elias-Fano, plain bitmaps, or implicit runs, whichever is smallest.
package ef

import (
	"fmt"
	"math/bits"

	xbits "rdfindexes/internal/bits"
	"rdfindexes/internal/codec"
)

// Sequence is a plain Elias-Fano encoded non-decreasing integer sequence.
// It supports O(1) Access, near-O(1) NextGEQ, and fast sequential
// iteration.
type Sequence struct {
	n        int
	universe uint64
	l        uint
	low      *xbits.Vector
	high     *xbits.RankSelect
}

// lowBitsFor returns the optimal number of low bits: floor(log2(u/n)).
func lowBitsFor(n int, universe uint64) uint {
	if n == 0 || universe/uint64(n) < 2 {
		return 0
	}
	return uint(bits.Len64(universe/uint64(n)) - 1)
}

// New encodes values, which must be non-decreasing. An empty slice yields
// an empty sequence.
func New(values []uint64) *Sequence {
	var universe uint64
	if len(values) > 0 {
		universe = values[len(values)-1]
	}
	return NewWithUniverse(values, universe)
}

// NewWithUniverse encodes values with an explicit universe >= the last
// value. A larger universe wastes space but lets callers reserve headroom.
func NewWithUniverse(values []uint64, universe uint64) *Sequence {
	n := len(values)
	l := lowBitsFor(n, universe)
	s := &Sequence{n: n, universe: universe, l: l}
	highLen := n + int(universe>>l) + 1
	high := xbits.NewVector(highLen)
	low := xbits.WithCapacity(n * int(l))
	var prev uint64
	for i, v := range values {
		if v < prev {
			panic(fmt.Sprintf("ef: sequence not monotone at %d: %d < %d", i, v, prev))
		}
		if v > universe {
			panic(fmt.Sprintf("ef: value %d exceeds universe %d", v, universe))
		}
		prev = v
		high.SetBit(int(v>>l) + i)
		low.AppendBits(v&(1<<l-1), l)
	}
	s.low = low
	s.high = xbits.NewRankSelect(high)
	return s
}

// Len returns the number of elements.
func (s *Sequence) Len() int { return s.n }

// Universe returns the declared universe (an upper bound on all values).
func (s *Sequence) Universe() uint64 { return s.universe }

// Access returns the i-th value.
func (s *Sequence) Access(i int) uint64 {
	pos := s.high.Select1(i)
	return uint64(pos-i)<<s.l | s.low.Get(i*int(s.l), s.l)
}

// AccessPair returns the i-th and (i+1)-th values with a single select:
// the successor's high part is found by scanning forward from the first
// one's position. Trie pointer lookups (begin, end) are the hot caller.
func (s *Sequence) AccessPair(i int) (uint64, uint64) {
	pos := s.high.Select1(i)
	v1 := uint64(pos-i)<<s.l | s.low.Get(i*int(s.l), s.l)
	words := s.high.Vector().Words()
	w := pos >> 6
	cur := words[w] &^ (uint64(1)<<(uint(pos)&63) - 1)
	cur &= cur - 1 // drop the i-th one itself
	for cur == 0 {
		w++
		cur = words[w]
	}
	pos2 := w<<6 + bits.TrailingZeros64(cur)
	v2 := uint64(pos2-(i+1))<<s.l | s.low.Get((i+1)*int(s.l), s.l)
	return v1, v2
}

// NextGEQ returns the position and value of the first element >= x. ok is
// false when every element is smaller than x, in which case pos is Len().
func (s *Sequence) NextGEQ(x uint64) (pos int, val uint64, ok bool) {
	if s.n == 0 || x > s.universe {
		return s.n, 0, false
	}
	hx := x >> s.l
	i := 0
	p := 0
	if hx > 0 {
		// Elements with high part < hx all precede the (hx-1)-th zero.
		p = s.high.Select0(int(hx)-1) + 1
		i = p - int(hx) // number of ones before position p
	}
	// Scan the candidates by streaming over the upper-bits words from
	// position p instead of paying one Select1 per candidate; at most one
	// bucket is traversed before values reach x.
	words := s.high.Vector().Words()
	w := p >> 6
	cur := words[w] &^ (1<<(uint(p)&63) - 1)
	l := s.l
	lowPos := i * int(l)
	for i < s.n {
		for cur == 0 {
			w++
			cur = words[w]
		}
		bitPos := w<<6 + bits.TrailingZeros64(cur)
		cur &= cur - 1
		v := uint64(bitPos-i)<<l | s.low.Get(lowPos, l)
		if v >= x {
			return i, v, true
		}
		i++
		lowPos += int(l)
	}
	return s.n, 0, false
}

// Iterator iterates the sequence from index from, decoding the upper bits
// by streaming over the words of the high bit vector.
type Iterator struct {
	s       *Sequence
	i       int
	wordIdx int
	word    uint64
}

// MakeIterator returns an iterator positioned at index from, as a value
// that callers embed without a separate allocation.
func (s *Sequence) MakeIterator(from int) Iterator {
	it := Iterator{s: s}
	it.Reset(from)
	return it
}

// MakeIteratorBase returns an iterator positioned at index from together
// with the value at from-1, sharing the positioning work instead of
// paying a separate random access for the predecessor. from must be in
// [1, Len()].
func (s *Sequence) MakeIteratorBase(from int) (Iterator, uint64) {
	it := Iterator{s: s}
	it.Reset(from - 1)
	base, _ := it.Next()
	return it, base
}

// Reset repositions the iterator at index from.
func (it *Iterator) Reset(from int) {
	s := it.s
	if from >= s.n {
		it.i = s.n
		it.word = 0
		return
	}
	it.i = from
	p := s.high.Select1(from)
	it.wordIdx = p >> 6
	it.word = s.high.Vector().Words()[it.wordIdx] &^ (1<<(uint(p)&63) - 1)
}

// Next returns the next value, or ok=false at the end.
func (it *Iterator) Next() (uint64, bool) {
	s := it.s
	if it.i >= s.n {
		return 0, false
	}
	words := s.high.Vector().Words()
	for it.word == 0 {
		it.wordIdx++
		it.word = words[it.wordIdx]
	}
	p := it.wordIdx<<6 + bits.TrailingZeros64(it.word)
	it.word &= it.word - 1
	v := uint64(p-it.i)<<s.l | s.low.Get(it.i*int(s.l), s.l)
	it.i++
	return v, true
}

// NextBatch decodes up to len(buf) consecutive values into buf and
// returns how many were written (0 iff the sequence is exhausted). The
// upper-bits vector is consumed by word-level trailing-zero scans and the
// low-bits cursor advances sequentially, so the per-element cost is a few
// instructions instead of a Select1.
func (it *Iterator) NextBatch(buf []uint64) int {
	s := it.s
	m := s.n - it.i
	if m <= 0 {
		return 0
	}
	if m > len(buf) {
		m = len(buf)
	}
	words := s.high.Vector().Words()
	l := s.l
	lowPos := it.i * int(l)
	i, wordIdx, word := it.i, it.wordIdx, it.word
	for j := 0; j < m; j++ {
		for word == 0 {
			wordIdx++
			word = words[wordIdx]
		}
		p := wordIdx<<6 + bits.TrailingZeros64(word)
		word &= word - 1
		buf[j] = uint64(p-i)<<l | s.low.Get(lowPos, l)
		lowPos += int(l)
		i++
	}
	it.i, it.wordIdx, it.word = i, wordIdx, word
	return m
}

// SkipTo advances the iterator to the first element at or after the
// current position whose value is >= x, consumes it, and returns its
// index and value. ok is false when no remaining element qualifies, in
// which case the iterator is exhausted.
func (it *Iterator) SkipTo(x uint64) (int, uint64, bool) {
	s := it.s
	if it.i >= s.n {
		return s.n, 0, false
	}
	// Close targets are cheaper to reach by scanning the upper-bits words
	// ahead of the cursor than by a directory jump: the target's bucket
	// starts at bit position (x>>l)+i, so the distance is known up front.
	if targetBit := int(x>>s.l) + it.i; targetBit-(it.wordIdx<<6) <= 4*64 {
		for {
			v, ok := it.Next()
			if !ok {
				return s.n, 0, false
			}
			if v >= x {
				return it.i - 1, v, true
			}
		}
	}
	pos, val, ok := s.NextGEQ(x)
	if !ok {
		it.i = s.n
		it.word = 0
		return s.n, 0, false
	}
	if pos <= it.i {
		// The sequence is monotone, so the next element already
		// qualifies; consume it in place.
		v, _ := it.Next()
		return it.i - 1, v, true
	}
	it.Reset(pos + 1)
	return pos, val, true
}

// SizeBits returns the storage footprint in bits: what Encode writes from
// an 8-byte aligned offset. The rank/select directory that decode
// rebuilds is not written, so it is not counted.
func (s *Sequence) SizeBits() uint64 { return 8 * uint64(codec.Size(s.Encode)) }

// Encode writes the sequence to w. The rank/select directory is rebuilt at
// decode time rather than serialized.
func (s *Sequence) Encode(w *codec.Writer) {
	w.Uvarint(uint64(s.n))
	w.Uvarint(s.universe)
	w.Byte(byte(s.l))
	s.low.Encode(w)
	s.high.Vector().Encode(w)
}

// Decode reads a sequence written by Encode.
func Decode(r *codec.Reader) (*Sequence, error) {
	n := int(r.Uvarint())
	universe := r.Uvarint()
	l := uint(r.Byte())
	low, err := xbits.DecodeVector(r)
	if err != nil {
		return nil, err
	}
	high, err := xbits.DecodeVector(r)
	if err != nil {
		return nil, err
	}
	// The upper bits hold one 1 per value and one 0 per bucket of the
	// universe, as New lays them out; NextGEQ's Select0 relies on it.
	if hl := uint64(high.Len()); l > 64 || low.Len() != n*int(l) || hl < uint64(n)+1 || hl-uint64(n)-1 != universe>>l {
		return nil, r.Fail(fmt.Errorf("%w: elias-fano header", codec.ErrCorrupt))
	}
	s := &Sequence{n: n, universe: universe, l: l, low: low}
	s.high = xbits.NewRankSelect(high)
	if s.high.Ones() != n {
		return nil, r.Fail(fmt.Errorf("%w: elias-fano high bits", codec.ErrCorrupt))
	}
	return s, nil
}
