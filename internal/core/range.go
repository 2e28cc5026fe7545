package core

import (
	"rdfindexes/internal/codec"
	"rdfindexes/internal/ef"
	"rdfindexes/internal/seq"
	"rdfindexes/internal/trie"
)

// R is the auxiliary structure for range queries of Section 3.1: numeric
// literal objects receive consecutive IDs [Base, Base+Len) assigned in
// increasing value order, and their values are kept in a compressed
// sorted sequence searchable directly in compressed form.
type R struct {
	base   ID
	values *ef.Sequence
}

// NewR builds the structure for the numeric objects with IDs starting at
// base; values must be sorted ascending, value[k] belonging to ID base+k.
func NewR(base ID, values []uint64) *R {
	return &R{base: base, values: ef.New(values)}
}

// Base returns the first numeric object ID.
func (r *R) Base() ID { return r.base }

// Len returns the number of numeric objects.
func (r *R) Len() int { return r.values.Len() }

// Value returns the numeric value of object id (which must be in range).
func (r *R) Value(id ID) uint64 { return r.values.Access(int(id - r.base)) }

// IDRange returns the object IDs whose values fall in [lo, hi]. ok is
// false when the interval is empty.
func (r *R) IDRange(lo, hi uint64) (idLo, idHi ID, ok bool) {
	if r.values.Len() == 0 || lo > hi {
		return 0, 0, false
	}
	posLo, vLo, found := r.values.NextGEQ(lo)
	if !found || vLo > hi {
		return 0, 0, false
	}
	// Last position with value <= hi: the predecessor of the first value
	// strictly greater than hi.
	posHi := r.values.Len() - 1
	if hi < r.values.Universe() {
		p, _, found := r.values.NextGEQ(hi + 1)
		if found {
			posHi = p - 1
		}
	}
	// Values can repeat; extend posHi over duplicates of hi is already
	// handled since NextGEQ(hi+1) skips them all.
	if posHi < posLo {
		return 0, 0, false
	}
	return r.base + ID(posLo), r.base + ID(posHi), true
}

// SizeBits returns the storage footprint in bits. The paper measures this
// extra space at under 0.1 bits/triple on WatDiv.
func (r *R) SizeBits() uint64 { return r.values.SizeBits() + 64 }

// Encode writes the structure to w.
func (r *R) Encode(w *codec.Writer) {
	w.Uint32(uint32(r.base))
	r.values.Encode(w)
}

// DecodeR reads a structure written by Encode.
func DecodeR(rd *codec.Reader) (*R, error) {
	base := ID(rd.Uint32())
	values, err := ef.Decode(rd)
	if err != nil {
		return nil, err
	}
	return &R{base: base, values: values}, nil
}

// RangeSelecter is implemented by every static layout: it resolves ?P?
// patterns with the object constrained to an ID interval. Layouts that
// store POS seek the interval on its object level; 2To filters its ?P?
// route.
type RangeSelecter interface {
	Index
	SelectObjectRange(p ID, lo, hi ID) *Iterator
}

// SelectValueRange resolves the pattern (?, p, ?value) with the
// constraint lo <= value <= hi on the numeric values of r: the bounds are
// first translated to an ID interval with two searches in R, then the
// matches are produced by the index (Section 3.1).
func SelectValueRange(x RangeSelecter, r *R, p ID, lo, hi uint64) *Iterator {
	idLo, idHi, ok := r.IDRange(lo, hi)
	if !ok {
		return emptyIterator()
	}
	return x.SelectObjectRange(p, idLo, idHi)
}

// objectRangeState scans the children of predicate p whose IDs fall in
// [lo, hi], yielding all their subjects in blocks.
type objectRangeState struct {
	pos       *trie.Trie
	ref       *trie.Trie // non-nil: POS is cross-compressed (CC)
	p, curO   ID
	hi        uint64
	pos1      int
	it1       seq.Iterator
	it2       seq.Iterator
	it2Active bool
	left      int
	it        Iterator
	vals      []uint64
	vals0     [8]uint64
}

func (st *objectRangeState) fill(out []Triple) int {
	n := 0
	for n < len(out) {
		if st.it2Active {
			k := len(out) - n
			if k > st.left {
				k = st.left
			}
			vals := valBuf(&st.vals, k)
			m := st.it2.NextBatch(vals)
			st.left -= m
			if m > 0 {
				if st.ref != nil {
					unmap(st.ref, st.curO, vals[:m])
				}
				restoreBatch(PermPOS, st.p, st.curO, vals[:m], out[n:n+m])
				n += m
				continue
			}
			st.it2Active = false
		}
		ov, ok := st.it1.Next()
		if !ok || ov > st.hi {
			break
		}
		st.curO = ID(ov)
		b2, e2 := st.pos.ChildRange(st.pos1)
		st.pos1++
		if st.it2 == nil {
			st.it2 = st.pos.Iter2(b2, e2)
		} else {
			st.it2.Reset(b2, b2, e2)
		}
		st.left = e2 - b2
		st.it2Active = true
	}
	return n
}

// selectObjectRange seeks lo among the objects of p on the POS trie and
// streams the subjects of every object up to hi.
func selectObjectRange(pos, ref *trie.Trie, p ID, lo, hi ID) *Iterator {
	b1, e1 := pos.RootRange(uint32(p))
	j, val, ok := pos.Nodes(1).FindGEQ(b1, e1, uint64(lo))
	if !ok || val > uint64(hi) {
		return emptyIterator()
	}
	st := &objectRangeState{pos: pos, ref: ref, p: p, hi: uint64(hi), pos1: j}
	st.it1 = pos.Iter1From(b1, j, e1)
	st.vals = st.vals0[:]
	st.it.src = st
	return &st.it
}
