package core

import (
	"sync"

	"rdfindexes/internal/seq"
	"rdfindexes/internal/trie"
)

// VarIter iterates, in strictly increasing order and without duplicates,
// the IDs that the single wildcard component of a pattern can take. Its
// NextGEQ skip makes sorted merge-intersections of several such streams
// possible, which is what turns star-shaped joins from nested loops into
// galloping intersections (the Broccoli-style use of compressed index
// lists, arXiv:1207.2615).
//
// A static index's VarIter is a state it pools: Close hands it back, and
// the caller must not touch the stream after that. A stream left
// without Close is left to the collector.
type VarIter struct {
	it    seq.Iterator
	t     *trie.Trie // the trie it reads, kept reachable while it iterates
	ranks refRoot    // ranks.ref non-nil: it yields ranks in the list of the key ranks has loaded
	pool  *sync.Pool // non-nil: the stream goes back to it on Close
	empty bool
}

// Next returns the next candidate ID.
//
//rdf:hotpath
func (v *VarIter) Next() (ID, bool) {
	if v.empty {
		return 0, false
	}
	x, ok := v.it.Next()
	if ok && v.ranks.ref != nil {
		x = v.ranks.id(x)
	}
	return ID(x), ok
}

// NextGEQ skips forward to the first remaining candidate >= x, consumes
// it and returns it. On ranks it seeks the rank of the first child at or
// above x: ranks are monotone in the IDs they stand for.
//
//rdf:hotpath
func (v *VarIter) NextGEQ(x ID) (ID, bool) {
	if v.empty {
		return 0, false
	}
	target := uint64(x)
	if v.ranks.ref != nil {
		r, ok := v.ranks.rankGEQ(x)
		if !ok {
			v.empty = true
			return 0, false
		}
		target = r
	}
	got, ok := v.it.NextGEQ(target)
	if ok && v.ranks.ref != nil {
		got = v.ranks.id(got)
	}
	return ID(got), ok
}

// Close ends the stream; a pooled one goes back to its index's pool.
func (v *VarIter) Close() {
	if v.pool != nil {
		pool := v.pool
		v.pool = nil
		pool.Put(v)
	}
}

// noBindings matches no candidate. It is shared: nothing writes it, and
// its Close does nothing.
var noBindings = &VarIter{empty: true}

// varIter serves the sorted completions of the fixed prefix (a, b) on
// the third level of perm's trie: the values the trie's last component
// takes, which are exactly the bindings of the pattern's single wildcard
// when it sits in that position. On a cross-compressed level they are
// ranks in the list of (a, b)'s key, which the stream unmaps.
func (x *staticIndex) varIter(perm Perm, a, b ID) *VarIter {
	t := x.tries[perm]
	b1, e1 := t.RootRange(uint32(a))
	j := t.FindChild1(b1, e1, uint32(b))
	if j < 0 {
		return noBindings
	}
	b2, e2 := t.ChildRange(j)
	v := x.getVar(perm)
	if v.it == nil {
		v.it = t.Iter2(b2, e2)
	} else {
		v.it.Reset(b2, b2, e2)
	}
	if ref := v.ranks.ref; ref != nil {
		v.ranks.seek(ref.key(a, b))
	}
	return v
}

// VarSelecter is implemented by indexes that can produce the sorted
// stream of bindings for a pattern with exactly one wildcard without
// materializing triples. ok is false when the layout cannot serve the
// pattern natively (the executor then falls back to nested iteration).
type VarSelecter interface {
	SelectVarSorted(p Pattern) (*VarIter, bool)
}

// SelectVarSorted on a snapshot serves the base index's streams while the
// update log is empty. With pending updates a base stream would miss the
// inserts and keep the deletes, so it declines and the executor falls
// back to nested iteration over the merged Select.
func (x *DynamicSnapshot) SelectVarSorted(p Pattern) (*VarIter, bool) {
	vs, ok := x.base.(VarSelecter)
	if !ok || x.LogSize() > 0 {
		return nil, false
	}
	return vs.SelectVarSorted(p)
}
