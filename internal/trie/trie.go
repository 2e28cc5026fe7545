// Package trie implements the three-level trie layout of Section 3.1 of
// the paper: one permutation of a triple set, with the nodes of each level
// concatenated into a compressed integer sequence and sibling groups
// delimited by pointer sequences. The first level is implicit (root IDs
// form the complete range [0, numRoots)), so a trie stores four sequences:
// pointers of levels 0 and 1 and nodes of levels 1 and 2.
package trie

import (
	"errors"
	"fmt"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/seq"
)

// Config selects the representation of each stored sequence. The
// layouts of the core package state theirs in one table.
type Config struct {
	Nodes1 seq.Kind // node IDs of the second level
	Nodes2 seq.Kind // node IDs of the third level
	Ptr0   seq.Kind // pointers of the first level
	Ptr1   seq.Kind // pointers of the second level
}

// Trie is an immutable three-level trie over n triples.
type Trie struct {
	n        int
	numRoots int
	ptr0     seq.Sequence // numRoots+1 positions into nodes1
	nodes1   seq.Sequence
	ptr1     seq.Sequence // len(nodes1)+1 positions into nodes2
	nodes2   seq.Sequence
	// owner keeps the memory the decoded sequences view (a mapped store
	// file) alive for as long as the trie is reachable; nil when built
	// in memory.
	owner any
}

// ErrUnsorted reports build input that is not strictly increasing.
var ErrUnsorted = errors.New("trie: triples not sorted or not distinct")

// Build constructs a trie over n triples. at(i) must return the i-th
// triple in the permutation's component order; triples must be sorted
// lexicographically and distinct. numRoots is the size of the first
// component's ID space; every first component must be below it.
func Build(n, numRoots int, at func(int) (uint32, uint32, uint32), cfg Config) (*Trie, error) {
	ptr0 := make([]uint64, 0, numRoots+1)
	ptr1 := []uint64{}
	var nodes1, nodes2 []uint64

	var pa, pb, pc uint32
	for i := 0; i < n; i++ {
		a, b, c := at(i)
		if int(a) >= numRoots {
			return nil, fmt.Errorf("trie: root %d out of range [0, %d)", a, numRoots)
		}
		newRoot := i == 0 || a != pa
		newChild := newRoot || b != pb
		if i > 0 {
			if a < pa || (a == pa && (b < pb || (b == pb && c <= pc))) {
				return nil, fmt.Errorf("%w: position %d", ErrUnsorted, i)
			}
		}
		if newRoot {
			for len(ptr0) <= int(a) {
				ptr0 = append(ptr0, uint64(len(nodes1)))
			}
		}
		if newChild {
			nodes1 = append(nodes1, uint64(b))
			ptr1 = append(ptr1, uint64(len(nodes2)))
		}
		nodes2 = append(nodes2, uint64(c))
		pa, pb, pc = a, b, c
	}
	for len(ptr0) <= numRoots {
		ptr0 = append(ptr0, uint64(len(nodes1)))
	}
	ptr1 = append(ptr1, uint64(len(nodes2)))

	// Range delimiters for the ranged node sequences.
	ranges1 := make([]int, len(ptr0))
	for i, p := range ptr0 {
		ranges1[i] = int(p)
	}
	ranges2 := make([]int, len(ptr1))
	for i, p := range ptr1 {
		ranges2[i] = int(p)
	}

	t := &Trie{
		n:        n,
		numRoots: numRoots,
		ptr0:     seq.BuildMono(cfg.Ptr0, ptr0),
		nodes1:   seq.Build(cfg.Nodes1, nodes1, normalizeRanges(ranges1, len(nodes1))),
		ptr1:     seq.BuildMono(cfg.Ptr1, ptr1),
		nodes2:   seq.Build(cfg.Nodes2, nodes2, normalizeRanges(ranges2, len(nodes2))),
	}
	return t, nil
}

// normalizeRanges validates pointer arrays as range delimiters for
// seq.Build (first 0, last n). An empty trie (numRoots == 0) yields a
// single-entry pointer array, normalized to the trivial delimiter pair.
func normalizeRanges(ranges []int, n int) []int {
	if len(ranges) == 1 && ranges[0] == 0 && n == 0 {
		return []int{0, 0}
	}
	if len(ranges) < 2 || ranges[0] != 0 || ranges[len(ranges)-1] != n {
		panic("trie: internal pointer inconsistency")
	}
	return ranges
}

// NumTriples returns the number of triples represented.
func (t *Trie) NumTriples() int { return t.n }

// NumRoots returns the size of the first level's ID space.
func (t *Trie) NumRoots() int { return t.numRoots }

// NumInternal returns the number of nodes in the second level (the number
// of distinct first-two-component pairs).
func (t *Trie) NumInternal() int { return t.nodes1.Len() }

// RootRange returns the positions [begin, end) of root a's children in
// the second level. The range is empty when the root has no triples.
func (t *Trie) RootRange(a uint32) (begin, end int) {
	if int(a) >= t.numRoots {
		return 0, 0
	}
	b, e := t.ptr0.At2(0, int(a))
	return int(b), int(e)
}

// ChildRange returns the positions [begin, end) in the third level of the
// children of the second-level node at absolute position i.
func (t *Trie) ChildRange(i int) (begin, end int) {
	b, e := t.ptr1.At2(0, i)
	return int(b), int(e)
}

// Ptr1Iter iterates the level-1 pointer values at positions [from, to).
// Scanning consecutive sibling ranges through this iterator costs a few
// nanoseconds per pointer instead of two random accesses per child, which
// is what makes the enumerate algorithm of Fig. 5 profitable.
func (t *Trie) Ptr1Iter(from, to int) seq.Iterator {
	return t.ptr1.IterFrom(0, from, to)
}

// FindChild1 locates node ID x among the second-level nodes in
// [begin, end) and returns its absolute position, or -1.
func (t *Trie) FindChild1(begin, end int, x uint32) int {
	return t.nodes1.Find(begin, end, uint64(x))
}

// FindChild2 locates node ID x among the third-level nodes in
// [begin, end) and returns its absolute position, or -1.
func (t *Trie) FindChild2(begin, end int, x uint32) int {
	return t.nodes2.Find(begin, end, uint64(x))
}

// Node1At returns the second-level node ID at absolute position i, where
// begin is the start of the sibling range containing i.
func (t *Trie) Node1At(begin, i int) uint32 {
	return uint32(t.nodes1.At(begin, i))
}

// Iter1 iterates the second-level node IDs in [begin, end).
func (t *Trie) Iter1(begin, end int) seq.Iterator { return t.nodes1.Iter(begin, end) }

// Iter1From iterates the second-level node IDs in [from, end) where
// rangeBegin is the start of the sibling range containing from.
func (t *Trie) Iter1From(rangeBegin, from, end int) seq.Iterator {
	return t.nodes1.IterFrom(rangeBegin, from, end)
}

// Iter2 iterates the third-level node IDs in [begin, end).
func (t *Trie) Iter2(begin, end int) seq.Iterator { return t.nodes2.Iter(begin, end) }

// Nodes returns the node sequence of level 1 or 2 (the paper's levels two
// and three); used by the Table 1 micro-benchmarks. The sequence reads
// the trie's bytes in place, which for a decoded trie are a mapped store
// file: it is valid only while the trie, or the index or store holding
// it, stays reachable (runtime.KeepAlive past the last read), since the
// sequence alone does not keep the mapping alive.
func (t *Trie) Nodes(level int) seq.Sequence {
	switch level {
	case 1:
		return t.nodes1
	case 2:
		return t.nodes2
	}
	panic(fmt.Sprintf("trie: no node sequence at level %d", level))
}

// Pointers returns the pointer sequence of level 0 or 1. Like Nodes, it
// is valid only while the trie, its index or its store stays reachable.
func (t *Trie) Pointers(level int) seq.Sequence {
	switch level {
	case 0:
		return t.ptr0
	case 1:
		return t.ptr1
	}
	panic(fmt.Sprintf("trie: no pointer sequence at level %d", level))
}

// ChildStats returns the average and maximum number of children of the
// nodes at the given level (1 = roots, 2 = second level), as in Table 2.
func (t *Trie) ChildStats(level int) (avg float64, max int) {
	var ptr seq.Sequence
	var parents int
	switch level {
	case 1:
		ptr, parents = t.ptr0, t.numRoots
	case 2:
		ptr, parents = t.ptr1, t.nodes1.Len()
	default:
		panic(fmt.Sprintf("trie: no children at level %d", level))
	}
	if parents == 0 {
		return 0, 0
	}
	prev := uint64(0)
	for i := 1; i <= parents; i++ {
		cur := ptr.At(0, i)
		if d := int(cur - prev); d > max {
			max = d
		}
		prev = cur
	}
	return float64(prev) / float64(parents), max
}

// SizeBits returns the total storage footprint in bits.
func (t *Trie) SizeBits() uint64 {
	return t.ptr0.SizeBits() + t.nodes1.SizeBits() + t.ptr1.SizeBits() + t.nodes2.SizeBits() + 2*64
}

// Encode writes the trie to w.
func (t *Trie) Encode(w *codec.Writer) {
	w.Uvarint(uint64(t.n))
	w.Uvarint(uint64(t.numRoots))
	seq.Write(w, t.ptr0)
	seq.Write(w, t.nodes1)
	seq.Write(w, t.ptr1)
	seq.Write(w, t.nodes2)
}

// Decode reads a trie written by Encode.
func Decode(r *codec.Reader) (*Trie, error) {
	t := &Trie{owner: r.Owner()}
	t.n = int(r.Uvarint())
	t.numRoots = int(r.Uvarint())
	var err error
	if t.ptr0, err = seq.Read(r); err != nil {
		return nil, err
	}
	if t.nodes1, err = seq.Read(r); err != nil {
		return nil, err
	}
	if t.ptr1, err = seq.Read(r); err != nil {
		return nil, err
	}
	if t.nodes2, err = seq.Read(r); err != nil {
		return nil, err
	}
	if t.ptr0.Len() != t.numRoots+1 || t.ptr1.Len() != t.nodes1.Len()+1 || t.nodes2.Len() != t.n {
		return nil, r.Fail(fmt.Errorf("%w: trie level sizes", codec.ErrCorrupt))
	}
	return t, nil
}
