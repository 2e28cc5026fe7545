package core

import (
	"rdfindexes/internal/seq"
	"rdfindexes/internal/trie"
)

// VarIter iterates, in strictly increasing order and without duplicates,
// the IDs that the single wildcard component of a pattern can take. Its
// NextGEQ skip makes sorted merge-intersections of several such streams
// possible, which is what turns star-shaped joins from nested loops into
// galloping intersections (the Broccoli-style use of compressed index
// lists, arXiv:1207.2615).
type VarIter struct {
	it    seq.Iterator
	t     *trie.Trie // the trie it reads, kept reachable while it iterates
	ranks refRoot    // ranks.ref non-nil: it yields ranks among the children of the root ranks has loaded
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

// emptyVarIter matches no candidate.
func emptyVarIter() *VarIter { return &VarIter{empty: true} }

// varIterOnTrie serves the sorted completions of the fixed prefix (a, b)
// on t's third level: the values the trie's last component takes, which
// are exactly the bindings of the pattern's single wildcard when it sits
// in that position. With a reference ref the level holds ranks among
// b's children in ref, which the stream unmaps.
func varIterOnTrie(t *trie.Trie, ref *crossRef, a, b ID) *VarIter {
	b1, e1 := t.RootRange(uint32(a))
	j := t.FindChild1(b1, e1, uint32(b))
	if j < 0 {
		return emptyVarIter()
	}
	b2, e2 := t.ChildRange(j)
	v := &VarIter{it: t.Iter2(b2, e2), t: t}
	if ref != nil {
		v.ranks.use(ref)
		v.ranks.seek(b)
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
