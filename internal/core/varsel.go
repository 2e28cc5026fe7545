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
	return ID(x), ok
}

// NextGEQ skips forward to the first remaining candidate >= x, consumes
// it and returns it.
//
//rdf:hotpath
func (v *VarIter) NextGEQ(x ID) (ID, bool) {
	if v.empty {
		return 0, false
	}
	got, ok := v.it.NextGEQ(uint64(x))
	return ID(got), ok
}

// emptyVarIter matches no candidate.
func emptyVarIter() *VarIter { return &VarIter{empty: true} }

// varIterOnTrie serves the sorted completions of the fixed prefix (a, b)
// on t's third level: the values the trie's last component takes, which
// are exactly the bindings of the pattern's single wildcard when it sits
// in that position.
func varIterOnTrie(t *trie.Trie, a, b ID) *VarIter {
	b1, e1 := t.RootRange(uint32(a))
	j := t.FindChild1(b1, e1, uint32(b))
	if j < 0 {
		return emptyVarIter()
	}
	b2, e2 := t.ChildRange(j)
	return &VarIter{it: t.Iter2(b2, e2), t: t}
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
