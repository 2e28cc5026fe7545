package core

import "rdfindexes/internal/ef"

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

// NewRSequence wraps values already coded as an Elias-Fano sequence:
// the value of ID base+k is values' k-th element. It is how a numeric
// section of the store's dictionary serves as an R.
func NewRSequence(base ID, values *ef.Sequence) *R {
	return &R{base: base, values: values}
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
		return EmptyIterator()
	}
	return x.SelectObjectRange(p, idLo, idHi)
}

// selectObjectRange seeks lo and past hi among the objects of p on the
// POS trie and walks the children of p in between.
func (x *staticIndex) selectObjectRange(p ID, lo, hi ID) *Iterator {
	pos := x.tries[PermPOS]
	b1, e1 := pos.RootRange(uint32(p))
	j, val, ok := pos.Nodes(1).FindGEQ(b1, e1, uint64(lo))
	if !ok || val > uint64(hi) {
		return x.empty()
	}
	if k, _, ok := pos.Nodes(1).FindGEQ(b1, e1, uint64(hi)+1); ok {
		e1 = k
	}
	return x.getWalk(&x.walks[PermPOS], PermPOS, nil).walkChildren(p, p+1, b1, j, e1)
}
