// Package seq presents the four integer-sequence representations of the
// paper (Compact, Elias-Fano, partitioned Elias-Fano, blocked VByte)
// behind a single interface suited to trie levels: sequences whose values
// are sorted only within the sibling ranges delimited by an external
// pointer structure.
//
// For the monotone encoders (EF, PEF, VByte) the package applies the
// prefix-sum transformation of Section 3.1 of the paper: each stored value
// is the original plus the running base of its range, where the base of a
// range is the stored value immediately preceding it. Lookups take the
// start of the enclosing range and add/subtract the base transparently;
// the Compact representation stores original values and needs no
// transformation.
package seq

import (
	"fmt"
	"sort"

	"rdfindexes/internal/bits"
	"rdfindexes/internal/codec"
	"rdfindexes/internal/ef"
	"rdfindexes/internal/vbyte"
)

// Kind identifies a sequence representation.
type Kind uint8

// The four representations benchmarked in Table 1 of the paper. The
// values are the kind bytes Write stores; Read refuses any other byte.
const (
	KindCompact Kind = iota
	KindEF
	KindPEF
	KindVByte
)

// String returns the representation name as used in the paper.
func (k Kind) String() string {
	switch k {
	case KindCompact:
		return "Compact"
	case KindEF:
		return "EF"
	case KindPEF:
		return "PEF"
	case KindVByte:
		return "VByte"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Iterator yields consecutive original values of one range. Beyond
// per-element Next, every implementation supports block decoding
// (NextBatch), forward skips for merge-intersections (NextGEQ) and
// in-place repositioning (Reset), so hot loops pay neither an interface
// dispatch per element nor an allocation per sibling range.
type Iterator interface {
	// Next returns the next value, or ok=false at the end of the range.
	Next() (uint64, bool)
	// NextBatch decodes up to len(buf) next values into buf and returns
	// how many were written; 0 iff the range is exhausted.
	// Implementations may return short (non-zero) counts at internal
	// block boundaries, so callers must loop.
	NextBatch(buf []uint64) int
	// NextGEQ skips forward to the first remaining value >= x, consumes
	// it and returns it. ok is false when no remaining value qualifies,
	// in which case the iterator is exhausted.
	NextGEQ(x uint64) (uint64, bool)
	// Reset repositions the iterator to positions [from, end) of the
	// sorted range starting at rangeBegin of the same sequence, reusing
	// its state instead of allocating a fresh iterator. When the new
	// range starts exactly where the previous one ended (the common case
	// when scanning consecutive sibling ranges), the prefix-sum base is
	// carried over from the last decoded value instead of being fetched
	// with a random access; any other reset to a range start positions the
	// cursor once, on the base, and reads it on the way.
	Reset(rangeBegin, from, end int)
}

// Sequence is an immutable compressed integer sequence whose values are
// sorted (strictly increasing) within externally delimited ranges.
type Sequence interface {
	// Len returns the total number of values.
	Len() int
	// At returns the original value at absolute position i; begin must be
	// the start of the range containing i.
	At(begin, i int) uint64
	// At2 returns the values at positions i and i+1 (both within the
	// range starting at begin). Implementations may amortize the two
	// lookups; trie pointer pairs are the hot caller.
	At2(begin, i int) (uint64, uint64)
	// First returns the value at position begin, the start of a range:
	// At(begin, begin) with one random access where the monotone kinds
	// need two.
	First(begin int) uint64
	// Base returns what the representation adds to the values of the
	// range starting at begin: the prefix-sum base for the monotone
	// kinds, 0 for Compact. Read as one range from position 0, the
	// sequence yields the stored values, so for a caller holding a
	// range's base, At(0, i) minus it is the value at i.
	Base(begin int) uint64
	// Find returns the absolute position of x within the sorted range
	// [begin, end), or -1 if x does not occur there.
	Find(begin, end int, x uint64) int
	// FindGEQ returns the absolute position and value of the first element
	// >= x within the sorted range [begin, end); ok is false when every
	// element of the range is smaller.
	FindGEQ(begin, end int, x uint64) (pos int, val uint64, ok bool)
	// Iter iterates the original values of the range [begin, end).
	Iter(begin, end int) Iterator
	// IterFrom iterates the original values of positions [from, end)
	// within the sorted range starting at rangeBegin (rangeBegin <= from).
	IterFrom(rangeBegin, from, end int) Iterator
	// SizeBits returns the storage footprint in bits: 8 times the bytes
	// Write stores for the sequence from an 8-byte aligned offset. A
	// directory that decoding rebuilds is not counted.
	SizeBits() uint64
	// Kind returns the representation identifier.
	Kind() Kind

	encode(w *codec.Writer)
}

// Build encodes values with the given representation. ranges delimits the
// sorted sub-ranges: ranges[k] is the start of range k, with
// ranges[0] == 0 and ranges[len-1] == len(values). A nil ranges treats the
// whole input as a single sorted range (a plain monotone sequence).
func Build(kind Kind, values []uint64, ranges []int) Sequence {
	if ranges == nil {
		ranges = []int{0, len(values)}
	}
	if len(ranges) < 2 || ranges[0] != 0 || ranges[len(ranges)-1] != len(values) {
		panic("seq: invalid range delimiters")
	}
	switch kind {
	case KindCompact:
		return newCompactSeq(values)
	case KindEF:
		return &efSeq{s: ef.New(prefixSum(values, ranges))}
	case KindPEF:
		return &pefSeq{s: ef.NewPartitioned(prefixSum(values, ranges))}
	case KindVByte:
		return &vbyteSeq{s: vbyte.NewBlocked(prefixSum(values, ranges))}
	}
	panic(fmt.Sprintf("seq: unknown kind %d", kind))
}

// PrefixSummed reports whether s stores each value of a range plus the
// range's base, the stored value just before the range (every kind but
// Compact): then a cursor reading stored values across consecutive
// ranges takes each range's base from the last value it read.
func PrefixSummed(s Sequence) bool { return s.Kind() != KindCompact }

// BuildMono encodes an already-monotone sequence (e.g. trie pointers).
func BuildMono(kind Kind, values []uint64) Sequence {
	return Build(kind, values, nil)
}

// prefixSum rewrites each range by adding the stored value that precedes
// it, making the concatenation globally non-decreasing (Section 3.1).
func prefixSum(values []uint64, ranges []int) []uint64 {
	enc := make([]uint64, len(values))
	var base uint64
	for k := 0; k+1 < len(ranges); k++ {
		lo, hi := ranges[k], ranges[k+1]
		for i := lo; i < hi; i++ {
			enc[i] = values[i] + base
		}
		if hi > lo {
			base = enc[hi-1]
		}
	}
	return enc
}

// monotone abstracts the three monotone encoders.
type monotone interface {
	Len() int
	Access(i int) uint64
	NextGEQ(x uint64) (int, uint64, bool)
}

// nextGEQFrom is m.NextGEQ(x) for a search that no element before
// position from can answer: PEF then searches its directory from from's
// partition instead of all of it.
func nextGEQFrom(m monotone, from int, x uint64) (int, uint64, bool) {
	if p, ok := m.(*ef.Partitioned); ok {
		return p.NextGEQFrom(from, x)
	}
	return m.NextGEQ(x)
}

func monoBase(m monotone, begin int) uint64 {
	if begin == 0 {
		return 0
	}
	return m.Access(begin - 1)
}

//rdf:hotpath
func monoAt(m monotone, begin, i int) uint64 {
	v := m.Access(i)
	if begin > 0 {
		v -= m.Access(begin - 1)
	}
	return v
}

//rdf:hotpath
func monoFindGEQ(m monotone, begin, end int, x uint64) (int, uint64, bool) {
	if begin >= end {
		return end, 0, false
	}
	var base uint64
	if begin > 0 {
		base = m.Access(begin - 1)
	}
	pos, val, ok := nextGEQFrom(m, begin, base+x)
	if !ok {
		return end, 0, false
	}
	if pos < begin {
		// Everything in the range is >= its base, hence >= the target.
		pos = begin
		val = m.Access(begin)
	}
	if pos >= end {
		return end, 0, false
	}
	return pos, val - base, true
}

//rdf:hotpath
func monoFind(m monotone, begin, end int, x uint64) int {
	if begin >= end {
		return -1
	}
	target := monoBase(m, begin) + x
	pos, val, ok := nextGEQFrom(m, begin, target)
	if !ok || val != target {
		return -1
	}
	// Duplicates of target may precede the range (the first value of a
	// range repeats its base when the original value is zero).
	for pos < begin {
		pos++
		if pos >= m.Len() || m.Access(pos) != target {
			return -1
		}
	}
	if pos >= end {
		return -1
	}
	return pos
}

// shortRange is the longest sibling range Find resolves by scanning
// forward from the range start. A trie's second level under a subject
// holds a handful of predicates (paper Table 2); for such a range one
// cursor positioned at begin-1 (which decodes the prefix-sum base on the
// way) and a few sequential decodes cost less than a random Access for
// the base plus a search of the whole sequence.
const shortRange = 16

// isShort reports whether [begin, end) takes the scanning Find. The
// first range of a sequence has no predecessor to position a cursor on
// and keeps the search path.
func isShort(begin, end int) bool { return begin > 0 && end-begin <= shortRange }

// scanFind reads stored values of positions begin, begin+1, … from next
// and returns the position of target within [begin, end), or -1. The
// scan starts inside the range, so a first value repeating its base
// (original value zero) is found at begin like any other. Each kind's
// Find makes its own concrete cursor and passes its Next as a method
// value: behind an interface the cursor would move to the heap.
//
//rdf:hotpath
func scanFind(next func() (uint64, bool), begin, end int, target uint64) int {
	for pos := begin; pos < end; pos++ {
		v, _ := next()
		if v >= target {
			if v == target {
				return pos
			}
			return -1
		}
	}
	return -1
}

// storedIter is the cursor over stored (prefix-summed) values that each
// monotone encoder provides: ef.Iterator, ef.PartIterator and
// vbyte.Iterator all satisfy it.
type storedIter interface {
	Next() (uint64, bool)
	NextBatch(buf []uint64) int
	// SkipTo consumes elements up to and including the first one at or
	// after the cursor with value >= x, returning its index and value.
	SkipTo(x uint64) (int, uint64, bool)
	Reset(from int)
}

// monoIter adapts a stored-value cursor into original values of one
// sorted range by subtracting the range's prefix-sum base. It tracks the
// last stored value it decoded so that Reset to a contiguous next range
// can reuse it as the new base without a random access.
type monoIter struct {
	m        monotone
	inner    storedIter
	base     uint64
	pos, end int // absolute position of the next element, range end
	last     uint64
	haveLast bool // last == stored value at pos-1
}

//rdf:hotpath
func (it *monoIter) Next() (uint64, bool) {
	if it.pos >= it.end {
		return 0, false
	}
	v, ok := it.inner.Next()
	if !ok {
		it.pos = it.end
		it.haveLast = false
		return 0, false
	}
	it.pos++
	it.last = v
	it.haveLast = true
	return v - it.base, true
}

//rdf:hotpath
func (it *monoIter) NextBatch(buf []uint64) int {
	k := it.end - it.pos
	if k <= 0 || len(buf) == 0 {
		// An empty buffer must not disturb the cursor or the base
		// bookkeeping below.
		return 0
	}
	if k > len(buf) {
		k = len(buf)
	}
	n := it.inner.NextBatch(buf[:k])
	if n == 0 {
		it.pos = it.end
		return 0
	}
	it.pos += n
	it.last = buf[n-1]
	it.haveLast = true
	if base := it.base; base != 0 {
		for i := range buf[:n] {
			buf[i] -= base
		}
	}
	return n
}

//rdf:hotpath
func (it *monoIter) NextGEQ(x uint64) (uint64, bool) {
	if it.pos >= it.end {
		return 0, false
	}
	p, v, ok := it.inner.SkipTo(it.base + x)
	if !ok {
		// The cursor sits at the sequence end; keep pos in sync with it.
		it.pos = p
		it.haveLast = false
		return 0, false
	}
	it.pos = p + 1
	it.last = v
	it.haveLast = true
	if p >= it.end {
		return 0, false
	}
	return v - it.base, true
}

func (it *monoIter) Reset(rangeBegin, from, end int) {
	it.end = end
	switch {
	case from == rangeBegin && from > 0 && from == it.pos && it.haveLast:
		// Contiguous advance: the base of the new range is the stored
		// value just before it, which is the last one decoded.
		it.base = it.last
	case from == rangeBegin && from > 0 && from <= it.m.Len():
		// Position the cursor once, on the base: reading it leaves the
		// cursor at the range start and doubles as the last stored value.
		it.inner.Reset(from - 1)
		it.base, _ = it.inner.Next()
		it.last, it.haveLast = it.base, true
		it.pos = from
	default:
		if from != it.pos {
			it.inner.Reset(from)
			it.pos = from
			it.haveLast = false
		}
		it.base = 0
		if rangeBegin > 0 {
			it.base = it.m.Access(rangeBegin - 1)
		}
	}
}

// The per-kind iterator wrappers embed their concrete stored-value
// cursor so that one allocation covers the whole iterator; the embedded
// monoIter reaches the cursor through its interface field, which points
// back into the same object. A fresh iterator is a Reset from an unknown
// position.

type efIter struct {
	monoIter
	cur ef.Iterator
}

func newEFIter(s *ef.Sequence, rangeBegin, from, end int) Iterator {
	it := &efIter{cur: s.MakeIterator(s.Len())}
	it.monoIter = monoIter{m: s, inner: &it.cur, pos: -1}
	it.Reset(rangeBegin, from, end)
	return it
}

type pefIter struct {
	monoIter
	cur ef.PartIterator
}

func newPEFIter(s *ef.Partitioned, rangeBegin, from, end int) Iterator {
	it := &pefIter{cur: s.MakeIterator(s.Len())}
	it.monoIter = monoIter{m: s, inner: &it.cur, pos: -1}
	it.Reset(rangeBegin, from, end)
	return it
}

type vbyteIter struct {
	monoIter
	cur vbyte.Iterator
}

func newVByteIter(s *vbyte.Blocked, rangeBegin, from, end int) Iterator {
	it := &vbyteIter{cur: s.MakeIterator(s.Len())}
	it.monoIter = monoIter{m: s, inner: &it.cur, pos: -1}
	it.Reset(rangeBegin, from, end)
	return it
}

// compactSeq is the fixed-width representation; values are stored as-is.
type compactSeq struct {
	v *bits.CompactVector
}

func newCompactSeq(values []uint64) *compactSeq {
	return &compactSeq{v: bits.NewCompact(values)}
}

func (c *compactSeq) Len() int               { return c.v.Len() }
func (c *compactSeq) Kind() Kind             { return KindCompact }
func (c *compactSeq) SizeBits() uint64       { return writtenBits(c) }
func (c *compactSeq) At(_, i int) uint64     { return c.v.At(i) }
func (c *compactSeq) Base(int) uint64        { return 0 }
func (c *compactSeq) First(begin int) uint64 { return c.v.At(begin) }
func (c *compactSeq) At2(_, i int) (uint64, uint64) {
	return c.v.At(i), c.v.At(i + 1)
}

func (c *compactSeq) Find(begin, end int, x uint64) int {
	i := begin + sort.Search(end-begin, func(j int) bool { return c.v.At(begin+j) >= x })
	if i < end && c.v.At(i) == x {
		return i
	}
	return -1
}

func (c *compactSeq) FindGEQ(begin, end int, x uint64) (int, uint64, bool) {
	i := begin + sort.Search(end-begin, func(j int) bool { return c.v.At(begin+j) >= x })
	if i < end {
		return i, c.v.At(i), true
	}
	return end, 0, false
}

type compactIter struct {
	v   *bits.CompactVector
	i   int
	end int
}

//rdf:hotpath
func (it *compactIter) Next() (uint64, bool) {
	if it.i >= it.end {
		return 0, false
	}
	v := it.v.At(it.i)
	it.i++
	return v, true
}

//rdf:hotpath
func (it *compactIter) NextBatch(buf []uint64) int {
	m := it.end - it.i
	if m <= 0 {
		return 0
	}
	if m > len(buf) {
		m = len(buf)
	}
	it.v.Fill(it.i, buf[:m])
	it.i += m
	return m
}

//rdf:hotpath
func (it *compactIter) NextGEQ(x uint64) (uint64, bool) {
	lo, hi := it.i, it.end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if it.v.At(mid) >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= it.end {
		it.i = it.end
		return 0, false
	}
	it.i = lo + 1
	return it.v.At(lo), true
}

func (it *compactIter) Reset(_, from, end int) {
	it.i, it.end = from, end
}

func (c *compactSeq) Iter(begin, end int) Iterator {
	return &compactIter{v: c.v, i: begin, end: end}
}

func (c *compactSeq) IterFrom(_, from, end int) Iterator {
	return &compactIter{v: c.v, i: from, end: end}
}

func (c *compactSeq) encode(w *codec.Writer) { c.v.Encode(w) }

// efSeq wraps a plain Elias-Fano sequence of prefix-summed values.
type efSeq struct {
	s *ef.Sequence
}

func (e *efSeq) Len() int         { return e.s.Len() }
func (e *efSeq) Kind() Kind       { return KindEF }
func (e *efSeq) SizeBits() uint64 { return writtenBits(e) }
func (e *efSeq) At(begin, i int) uint64 {
	return monoAt(e.s, begin, i)
}
func (e *efSeq) Base(begin int) uint64 { return monoBase(e.s, begin) }
func (e *efSeq) First(begin int) uint64 {
	if begin == 0 {
		return e.s.Access(0)
	}
	base, v := e.s.AccessPair(begin - 1)
	return v - base
}
func (e *efSeq) At2(begin, i int) (uint64, uint64) {
	v1, v2 := e.s.AccessPair(i)
	if begin > 0 {
		base := e.s.Access(begin - 1)
		v1 -= base
		v2 -= base
	}
	return v1, v2
}
func (e *efSeq) Find(begin, end int, x uint64) int {
	if isShort(begin, end) {
		it, base := e.s.MakeIteratorBase(begin)
		return scanFind(it.Next, begin, end, base+x)
	}
	return monoFind(e.s, begin, end, x)
}
func (e *efSeq) FindGEQ(begin, end int, x uint64) (int, uint64, bool) {
	return monoFindGEQ(e.s, begin, end, x)
}
func (e *efSeq) Iter(begin, end int) Iterator {
	return newEFIter(e.s, begin, begin, end)
}
func (e *efSeq) IterFrom(rangeBegin, from, end int) Iterator {
	return newEFIter(e.s, rangeBegin, from, end)
}
func (e *efSeq) encode(w *codec.Writer) { e.s.Encode(w) }

// pefSeq wraps a partitioned Elias-Fano sequence of prefix-summed values.
type pefSeq struct {
	s *ef.Partitioned
}

// IndexedPEF returns the partitioned Elias-Fano sequence behind s, with
// its select directory built for reads mostly at random
// (ef.Partitioned.IndexSelect), or nil when s is of another kind. Read
// as one range from position 0, it holds s's stored values. It must run
// before s is shared.
func IndexedPEF(s Sequence) *ef.Partitioned {
	p, ok := s.(*pefSeq)
	if !ok {
		return nil
	}
	p.s.IndexSelect()
	return p.s
}

func (p *pefSeq) Len() int         { return p.s.Len() }
func (p *pefSeq) Kind() Kind       { return KindPEF }
func (p *pefSeq) SizeBits() uint64 { return writtenBits(p) }
func (p *pefSeq) At(begin, i int) uint64 {
	return monoAt(p.s, begin, i)
}
func (p *pefSeq) Base(begin int) uint64 { return monoBase(p.s, begin) }
func (p *pefSeq) First(begin int) uint64 {
	if begin == 0 {
		return p.s.Access(0)
	}
	base, v := p.s.AccessPair(begin - 1)
	return v - base
}
func (p *pefSeq) At2(begin, i int) (uint64, uint64) {
	v1, v2 := p.s.AccessPair(i)
	if begin > 0 {
		base := p.s.Access(begin - 1)
		v1 -= base
		v2 -= base
	}
	return v1, v2
}
func (p *pefSeq) Find(begin, end int, x uint64) int {
	if isShort(begin, end) {
		it, base := p.s.MakeIteratorBase(begin)
		return scanFind(it.Next, begin, end, base+x)
	}
	return monoFind(p.s, begin, end, x)
}
func (p *pefSeq) FindGEQ(begin, end int, x uint64) (int, uint64, bool) {
	return monoFindGEQ(p.s, begin, end, x)
}
func (p *pefSeq) Iter(begin, end int) Iterator {
	return newPEFIter(p.s, begin, begin, end)
}
func (p *pefSeq) IterFrom(rangeBegin, from, end int) Iterator {
	return newPEFIter(p.s, rangeBegin, from, end)
}
func (p *pefSeq) encode(w *codec.Writer) { p.s.Encode(w) }

// vbyteSeq wraps a blocked VByte sequence of prefix-summed values.
type vbyteSeq struct {
	s *vbyte.Blocked
}

func (v *vbyteSeq) Len() int         { return v.s.Len() }
func (v *vbyteSeq) Kind() Kind       { return KindVByte }
func (v *vbyteSeq) SizeBits() uint64 { return writtenBits(v) }
func (v *vbyteSeq) At(begin, i int) uint64 {
	return monoAt(v.s, begin, i)
}
func (v *vbyteSeq) Base(begin int) uint64  { return monoBase(v.s, begin) }
func (v *vbyteSeq) First(begin int) uint64 { return monoAt(v.s, begin, begin) }
func (v *vbyteSeq) At2(begin, i int) (uint64, uint64) {
	return monoAt(v.s, begin, i), monoAt(v.s, begin, i+1)
}
func (v *vbyteSeq) Find(begin, end int, x uint64) int {
	if isShort(begin, end) {
		it, base := v.s.MakeIteratorBase(begin)
		return scanFind(it.Next, begin, end, base+x)
	}
	return monoFind(v.s, begin, end, x)
}
func (v *vbyteSeq) FindGEQ(begin, end int, x uint64) (int, uint64, bool) {
	return monoFindGEQ(v.s, begin, end, x)
}
func (v *vbyteSeq) Iter(begin, end int) Iterator {
	return newVByteIter(v.s, begin, begin, end)
}
func (v *vbyteSeq) IterFrom(rangeBegin, from, end int) Iterator {
	return newVByteIter(v.s, rangeBegin, from, end)
}
func (v *vbyteSeq) encode(w *codec.Writer) { v.s.Encode(w) }

// writtenBits is every kind's SizeBits: the bits Write stores for s.
func writtenBits(s Sequence) uint64 {
	return 8 * uint64(codec.Size(func(w *codec.Writer) { Write(w, s) }))
}

// Write serializes s with a leading kind tag.
func Write(w *codec.Writer, s Sequence) {
	w.Byte(byte(s.Kind()))
	s.encode(w)
}

// Read deserializes a sequence written by Write.
func Read(r *codec.Reader) (Sequence, error) {
	kind := Kind(r.Byte())
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch kind {
	case KindCompact:
		v, err := bits.DecodeCompact(r)
		if err != nil {
			return nil, err
		}
		return &compactSeq{v: v}, nil
	case KindEF:
		s, err := ef.Decode(r)
		if err != nil {
			return nil, err
		}
		return &efSeq{s: s}, nil
	case KindPEF:
		s, err := ef.DecodePartitioned(r)
		if err != nil {
			return nil, err
		}
		return &pefSeq{s: s}, nil
	case KindVByte:
		s, err := vbyte.DecodeBlocked(r)
		if err != nil {
			return nil, err
		}
		return &vbyteSeq{s: s}, nil
	}
	return nil, r.Fail(fmt.Errorf("%w: unknown sequence kind %d", codec.ErrCorrupt, kind))
}
