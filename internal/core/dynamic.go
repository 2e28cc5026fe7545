package core

import (
	"fmt"
	"sort"

	"rdfindexes/internal/trie"
)

// DynamicIndex implements the amortized update strategy sketched in
// Section 3.1 of the paper: the static index is paired with a small
// in-memory log of insertions and deletions; queries consult both and
// merge, and when the log reaches a threshold it is merged into a freshly
// rebuilt static index.
//
// A DynamicIndex is single-writer: Insert, Delete and Merge need external
// synchronization. Concurrent readers must not call Select on the index
// directly while writes are possible; they take an immutable Snapshot
// (O(1): the copy-on-write log slices are shared) and query that. The
// serving stack in internal/store publishes snapshots through an atomic
// pointer so the read path stays lock-free.
//
// A DynamicIndex embeds its current state as a DynamicSnapshot, so it
// answers every read a snapshot does; writes replace the embedded
// fields, never the slices they point to.
type DynamicIndex struct {
	DynamicSnapshot
	opts      []Option
	threshold int
}

// DefaultMergeThreshold is the default log size triggering a merge.
const DefaultMergeThreshold = 1 << 16

// NewDynamic builds a dynamic index over an initial dataset. threshold
// == 0 selects DefaultMergeThreshold; threshold < 0 disables automatic
// merging entirely (the caller drives Merge, as the persistent store
// does to fold dictionaries and rewrite files atomically).
func NewDynamic(d *Dataset, layout Layout, threshold int, opts ...Option) (*DynamicIndex, error) {
	base, err := Build(d, layout, opts...)
	if err != nil {
		return nil, err
	}
	return NewDynamicFromIndex(base, threshold, opts...), nil
}

// NewDynamicFromIndex wraps an already-built static index (e.g. one
// loaded from disk) with an empty update log. Threshold semantics match
// NewDynamic.
func NewDynamicFromIndex(base Index, threshold int, opts ...Option) *DynamicIndex {
	if threshold == 0 {
		threshold = DefaultMergeThreshold
	}
	return &DynamicIndex{
		DynamicSnapshot: DynamicSnapshot{layout: base.Layout(), base: base},
		opts:            opts,
		threshold:       threshold,
	}
}

// logBits is the in-memory charge per pending log entry: one Triple
// (3 x 32 bits).
const logBits = 96

func searchTriple(ts []Triple, t Triple) (int, bool) {
	i := sort.Search(len(ts), func(j int) bool { return !ts[j].Less(t) })
	return i, i < len(ts) && ts[i] == t
}

// insertAt and removeAt are copy-on-write: they build a fresh slice
// instead of shifting in place (same O(n) cost), so log slices handed
// out by Snapshot — and captured by in-flight Select iterators — are
// never mutated by later writes. That is what makes Snapshot O(1).

func insertAt(ts []Triple, i int, t Triple) []Triple {
	out := make([]Triple, len(ts)+1)
	copy(out, ts[:i])
	out[i] = t
	copy(out[i+1:], ts[i:])
	return out
}

func removeAt(ts []Triple, i int) []Triple {
	out := make([]Triple, 0, len(ts)-1)
	out = append(out, ts[:i]...)
	return append(out, ts[i+1:]...)
}

// Insert adds a triple. It returns true if the logical set changed, and
// merges the log when it exceeds the threshold.
func (x *DynamicIndex) Insert(t Triple) (bool, error) {
	if i, ok := searchTriple(x.deleted, t); ok {
		// Re-insertion of a base triple that was pending deletion.
		x.deleted = removeAt(x.deleted, i)
		return true, nil
	}
	if Lookup(x.base, t) {
		return false, nil
	}
	i, ok := searchTriple(x.added, t)
	if ok {
		return false, nil
	}
	x.added = insertAt(x.added, i, t)
	return true, x.maybeMerge()
}

// Delete removes a triple. It returns true if the logical set changed.
func (x *DynamicIndex) Delete(t Triple) (bool, error) {
	if i, ok := searchTriple(x.added, t); ok {
		x.added = removeAt(x.added, i)
		return true, nil
	}
	if !Lookup(x.base, t) {
		return false, nil
	}
	i, ok := searchTriple(x.deleted, t)
	if ok {
		return false, nil
	}
	x.deleted = insertAt(x.deleted, i, t)
	return true, x.maybeMerge()
}

func (x *DynamicIndex) maybeMerge() error {
	if x.threshold < 0 || x.LogSize() < x.threshold {
		return nil
	}
	return x.Merge()
}

// Merge folds the log into a rebuilt static index ("whenever the small
// index reaches a predefined size, its content is merged with the one of
// the main, static, index").
func (x *DynamicIndex) Merge() error {
	if x.LogSize() == 0 {
		return nil
	}
	d := NewDataset(x.LiveTriples())
	base, err := Build(d, x.layout, x.opts...)
	if err != nil {
		return fmt.Errorf("core: merge rebuild failed: %w", err)
	}
	x.base = base
	x.added = nil
	x.deleted = nil
	return nil
}

// LiveTriples materializes the logical triple set, in no particular
// order: base triples not pending deletion, plus the insertion log. The
// persistent store uses it to rebuild the static index with remapped
// dictionary IDs at merge.
func (x *DynamicIndex) LiveTriples() []Triple {
	out := make([]Triple, 0, x.NumTriples())
	it := scanSet(x.base)
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		if _, del := searchTriple(x.deleted, t); !del {
			out = append(out, t)
		}
	}
	return append(out, x.added...)
}

// Snapshot returns an immutable view of the current logical state, in
// O(1): a copy of the embedded snapshot. The base index is shared (it is
// never mutated, only replaced), and the log slices are shared too,
// because every write replaces them copy-on-write (see insertAt/removeAt)
// rather than shifting in place.
func (x *DynamicIndex) Snapshot() *DynamicSnapshot {
	snap := x.DynamicSnapshot
	return &snap
}

// matchingRange narrows an SPO-sorted log slice to the smallest
// contiguous range that can contain matches of p: a (S) or (S, P)
// prefix binary search when those components are bound, the whole slice
// otherwise. Entries inside the range still need a Matches filter; the
// point is that fully- and subject-bound patterns — the bulk of point
// queries and BGP inner loops — stop paying a scan over the entire log.
func matchingRange(ts []Triple, p Pattern) []Triple {
	if p.S == Wildcard {
		return ts
	}
	lo := sort.Search(len(ts), func(i int) bool { return ts[i].S >= p.S })
	hi := lo + sort.Search(len(ts)-lo, func(i int) bool { return ts[lo+i].S > p.S })
	ts = ts[lo:hi]
	if p.P == Wildcard {
		return ts
	}
	lo = sort.Search(len(ts), func(i int) bool {
		return ts[i].P >= p.P
	})
	hi = lo + sort.Search(len(ts)-lo, func(i int) bool { return ts[lo+i].P > p.P })
	return ts[lo:hi]
}

// permLess reports whether t precedes u in the permutation's
// lexicographic order.
func permLess(p Perm, t, u Triple) bool {
	ta, tb, tc := p.Apply(t)
	ua, ub, uc := p.Apply(u)
	if ta != ua {
		return ta < ua
	}
	if tb != ub {
		return tb < ub
	}
	return tc < uc
}

// DynamicSnapshot is an immutable point-in-time view of a DynamicIndex.
// It implements Index (and CtxSelecter), so the whole read stack —
// pooled QueryCtx selection, the SPARQL executor, the HTTP server —
// serves it exactly like a static index while a single writer keeps
// advancing the live DynamicIndex underneath. Its slices and base are
// never mutated, so the iterators it returns stay valid across writes.
type DynamicSnapshot struct {
	layout  Layout
	base    Index
	added   []Triple // SPO-sorted, distinct, disjoint from base
	deleted []Triple // SPO-sorted, distinct, all present in base
}

// Layout returns the layout of the underlying static index.
func (x *DynamicSnapshot) Layout() Layout { return x.layout }

// Base returns the shared static index of the snapshot. It is replaced
// wholesale by a merge, never mutated.
func (x *DynamicSnapshot) Base() Index { return x.base }

// LogSize returns the number of pending updates in the snapshot.
func (x *DynamicSnapshot) LogSize() int { return len(x.added) + len(x.deleted) }

// NumTriples returns the logical triple count (base + inserted -
// deleted). The Insert/Delete invariants — added is disjoint from the
// base, deleted is a subset of the base, and the two logs are disjoint —
// make the sum exact.
func (x *DynamicSnapshot) NumTriples() int {
	return x.base.NumTriples() + len(x.added) - len(x.deleted)
}

// SizeBits returns the static index footprint plus the log: every
// pending insertion and deletion is charged at logBits, so /stats and
// the bits/triple gate see the update log.
func (x *DynamicSnapshot) SizeBits() uint64 {
	return x.base.SizeBits() + uint64(len(x.added)+len(x.deleted))*logBits
}

// Trie exposes the base index's materialized permutations. The log is
// not trie-shaped, so callers see the static core only; statistics over
// a snapshot should prefer NumTriples/SizeBits.
func (x *DynamicSnapshot) Trie(p Perm) *trie.Trie { return x.base.Trie(p) }

// Lookup reports whether the snapshot contains t.
func (x *DynamicSnapshot) Lookup(t Triple) bool {
	if _, ok := searchTriple(x.added, t); ok {
		return true
	}
	if _, ok := searchTriple(x.deleted, t); ok {
		return false
	}
	return Lookup(x.base, t)
}

// Select resolves a pattern against the base index and the log with a
// two-way sorted merge ("queries also need to involve both indexes and
// their results have to be merged accordingly"): base results arrive in
// the layout's emission order for the shape, the matching slice of the
// SPO-sorted insertion log is re-sorted into that same order, and
// base-side matches pending deletion are skipped.
func (x *DynamicSnapshot) Select(p Pattern) *Iterator { return x.SelectCtx(p, nil) }

// SelectCtx resolves a pattern like Select, drawing base-index scratch
// from c (which may be nil).
func (x *DynamicSnapshot) SelectCtx(p Pattern, c *QueryCtx) *Iterator {
	if x.LogSize() == 0 {
		return SelectWithCtx(x.base, p, c)
	}
	perm := emitPerm(x.layout, p.Shape())
	// The iterator keeps its own copy of the log slice header: on the
	// snapshot a DynamicIndex embeds, the next write replaces x.deleted.
	deleted := x.deleted
	var add []Triple
	for _, t := range matchingRange(x.added, p) {
		if p.Matches(t) {
			add = append(add, t)
		}
	}
	if len(add) > 1 {
		sort.Slice(add, func(i, j int) bool { return permLess(perm, add[i], add[j]) })
	}
	baseIt := SelectWithCtx(x.base, p, c)
	var pend Triple
	havePend := false
	baseDone := false
	addPos := 0
	return NewIterator(func() (Triple, bool) {
		if !havePend && !baseDone {
			for {
				t, ok := baseIt.Next()
				if !ok {
					baseDone = true
					break
				}
				if _, del := searchTriple(deleted, t); !del {
					pend, havePend = t, true
					break
				}
			}
		}
		if havePend {
			// The insertion log is disjoint from the base, so the merge
			// never sees equal keys.
			if addPos < len(add) && permLess(perm, add[addPos], pend) {
				t := add[addPos]
				addPos++
				return t, true
			}
			havePend = false
			return pend, true
		}
		if addPos < len(add) {
			t := add[addPos]
			addPos++
			return t, true
		}
		return Triple{}, false
	})
}
