package core

import (
	"math/rand"
	"testing"
)

// refDynamic is the oracle: a plain set.
type refDynamic map[Triple]bool

func (r refDynamic) selectPattern(p Pattern) []Triple {
	var out []Triple
	for t := range r {
		if p.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}

// sortedByPerm reports whether ts is nondecreasing in the permutation's
// lexicographic order.
func sortedByPerm(ts []Triple, p Perm) bool {
	for i := 1; i < len(ts); i++ {
		if permLess(p, ts[i], ts[i-1]) {
			return false
		}
	}
	return true
}

// checkDynamic cross-checks every pattern shape around a handful of
// reference triples: the result set must match the oracle and the
// stream must arrive merged in the layout's emission order for the
// shape ("results have to be merged accordingly").
func checkDynamic(t *testing.T, layout Layout, sel func(Pattern) *Iterator, ref refDynamic, step int) {
	t.Helper()
	for trial := 0; trial < 5; trial++ {
		var tr Triple
		for cand := range ref {
			tr = cand
			break
		}
		for _, s := range AllShapes() {
			pat := WithWildcards(tr, s)
			got := sel(pat).Collect(-1)
			want := ref.selectPattern(pat)
			if !sameTripleSet(got, want) {
				t.Fatalf("%v step %d: pattern %v: got %d, want %d", layout, step, pat, len(got), len(want))
			}
			if perm := emitPerm(layout, s); !sortedByPerm(got, perm) {
				t.Fatalf("%v step %d: pattern %v (%v): stream not sorted in %v order",
					layout, step, pat, s, perm)
			}
		}
	}
}

// TestDynamicIndexRandomOps interleaves Insert/Delete/Select/Merge
// against a map-backed oracle for all four layouts and all eight
// pattern shapes. The skewed dataset and small ID spaces make the edge
// transitions common: re-insert of a pending deletion, delete of a
// pending insertion, repeated no-op writes.
func TestDynamicIndexRandomOps(t *testing.T) {
	for _, layout := range []Layout{Layout3T, LayoutCC, Layout2Tp, Layout2To} {
		t.Run(layout.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(233 + int64(layout)))
			d := skewedDataset(rng, 1000)
			ns, np, no := d.NS, d.NP, d.NO
			x, err := NewDynamic(d, layout, 200)
			if err != nil {
				t.Fatal(err)
			}
			ref := refDynamic{}
			for _, tr := range d.Triples {
				ref[tr] = true
			}

			randTriple := func() Triple {
				return Triple{
					S: ID(rng.Intn(ns)), P: ID(rng.Intn(np)), O: ID(rng.Intn(no)),
				}
			}
			for step := 0; step < 600; step++ {
				tr := randTriple()
				if rng.Intn(2) == 0 {
					changed, err := x.Insert(tr)
					if err != nil {
						t.Fatal(err)
					}
					if changed == ref[tr] {
						t.Fatalf("step %d: Insert(%v) changed=%v but ref contains=%v", step, tr, changed, ref[tr])
					}
					ref[tr] = true
				} else {
					changed, err := x.Delete(tr)
					if err != nil {
						t.Fatal(err)
					}
					if changed != ref[tr] {
						t.Fatalf("step %d: Delete(%v) changed=%v but ref contains=%v", step, tr, changed, ref[tr])
					}
					delete(ref, tr)
				}
				if x.NumTriples() != len(ref) {
					t.Fatalf("step %d: NumTriples = %d, want %d", step, x.NumTriples(), len(ref))
				}
				if x.Lookup(tr) != ref[tr] {
					t.Fatalf("step %d: Lookup(%v) = %v, want %v", step, tr, x.Lookup(tr), ref[tr])
				}
				if step%97 == 0 {
					checkDynamic(t, layout, x.Select, ref, step)
				}
			}
			checkDynamic(t, layout, x.Select, ref, 600)

			// Force a final merge and re-verify: the log must be empty and
			// the results unchanged.
			if err := x.Merge(); err != nil {
				t.Fatal(err)
			}
			if x.LogSize() != 0 {
				t.Fatalf("log not empty after merge: %d", x.LogSize())
			}
			checkDynamic(t, layout, x.Select, ref, 601)
		})
	}
}

// TestDynamicSelectMergesSortedStreams checks emission order on every
// layout and shape: base results arrive in the order of the trie their
// route walks (emitPerm), and a snapshot with pending writes must
// interleave its logged insertions into that order, skipping deletions,
// rather than trail the base stream. Each (layout, shape) pair runs on
// the static index and on such a snapshot.
func TestDynamicSelectMergesSortedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	// The first triples pin the original bug: SPO-wise the inserts sort
	// late, but in the ?P? emission orders their low objects and subjects
	// interleave early. The random rest gives every shape several
	// matches over small ID spaces.
	base := []Triple{{5, 1, 9}, {6, 1, 2}, {6, 1, 7}, {7, 2, 3}}
	inserts := []Triple{{6, 1, 1}, {5, 1, 3}, {4, 2, 8}}
	deletes := []Triple{{6, 1, 2}}
	randTriple := func() Triple {
		return Triple{ID(rng.Intn(10)), ID(rng.Intn(4)), ID(rng.Intn(10))}
	}
	for i := 0; i < 150; i++ {
		base = append(base, randTriple())
	}
	d := NewDataset(base)
	ref := refDynamic{}
	for _, tr := range d.Triples {
		ref[tr] = true
	}
	for i := 0; i < 40; i++ {
		if tr := randTriple(); !ref[tr] {
			inserts = append(inserts, tr)
		}
	}
	for i := 0; i < 15; i++ {
		deletes = append(deletes, d.Triples[rng.Intn(d.Len())])
	}
	for _, c := range testLayouts {
		x, err := NewDynamic(d, c.layout, -1, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		static := x.Base()
		want := refDynamic{}
		for tr := range ref {
			want[tr] = true
		}
		for _, tr := range inserts {
			if _, err := x.Insert(tr); err != nil {
				t.Fatal(err)
			}
			want[tr] = true
		}
		for _, tr := range deletes {
			if _, err := x.Delete(tr); err != nil {
				t.Fatal(err)
			}
			delete(want, tr)
		}
		snap := x.Snapshot()
		if snap.LogSize() == 0 {
			t.Fatalf("%s: no pending writes", c.name)
		}
		views := []struct {
			name string
			x    Index
			ref  refDynamic
		}{{"static", static, ref}, {"snapshot", snap, want}}
		for _, s := range AllShapes() {
			perm := emitPerm(c.layout, s)
			for _, v := range views {
				for _, tr := range append(d.Triples[:30:30], inserts...) {
					pat := WithWildcards(tr, s)
					got := v.x.Select(pat).Collect(-1)
					if !sameTripleSet(got, v.ref.selectPattern(pat)) {
						t.Fatalf("%s %s: pattern %v: got %d triples, want %d",
							c.name, v.name, pat, len(got), len(v.ref.selectPattern(pat)))
					}
					if !sortedByPerm(got, perm) {
						t.Fatalf("%s %s: %v stream %v not sorted in %v order", c.name, v.name, s, got, perm)
					}
				}
			}
		}
	}
}

// TestDynamicAccounting pins the NumTriples and SizeBits bookkeeping
// that /stats and the bits/triple gate consume: pending deletions
// subtract from the logical count, and every log entry (insertion or
// deletion) charges logBits on top of the static footprint.
func TestDynamicAccounting(t *testing.T) {
	d := NewDataset([]Triple{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}})
	x, err := NewDynamic(d, Layout2Tp, 1000)
	if err != nil {
		t.Fatal(err)
	}
	baseBits := x.SizeBits()
	if x.NumTriples() != 4 {
		t.Fatalf("NumTriples = %d, want 4", x.NumTriples())
	}
	if _, err := x.Insert(Triple{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if x.NumTriples() != 5 {
		t.Fatalf("after insert: NumTriples = %d, want 5", x.NumTriples())
	}
	if got := x.SizeBits(); got != baseBits+logBits {
		t.Fatalf("after insert: SizeBits = %d, want base+%d = %d", got, logBits, baseBits+logBits)
	}
	if _, err := x.Delete(Triple{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if x.NumTriples() != 4 {
		t.Fatalf("after delete: NumTriples = %d, want 4 (deletion must subtract)", x.NumTriples())
	}
	if got := x.SizeBits(); got != baseBits+2*logBits {
		t.Fatalf("after delete: SizeBits = %d, want base+%d", got, 2*logBits)
	}
	// No-op writes change nothing.
	if _, err := x.Insert(Triple{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Delete(Triple{7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	if x.NumTriples() != 4 || x.SizeBits() != baseBits+2*logBits {
		t.Fatalf("no-op writes moved the accounting: n=%d bits=%d", x.NumTriples(), x.SizeBits())
	}
	// Cancelling the pending deletion empties half the log.
	if _, err := x.Insert(Triple{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if x.NumTriples() != 5 || x.SizeBits() != baseBits+logBits {
		t.Fatalf("resurrect: n=%d bits=%d, want 5 and base+%d", x.NumTriples(), x.SizeBits(), logBits)
	}
}

// TestDynamicSnapshotIsolation takes a snapshot, keeps writing, and
// checks the snapshot still answers from its point in time — the
// property the RCU serving path relies on.
func TestDynamicSnapshotIsolation(t *testing.T) {
	d := NewDataset([]Triple{{1, 1, 1}, {2, 1, 2}})
	x, err := NewDynamic(d, Layout2Tp, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Insert(Triple{3, 1, 3}); err != nil {
		t.Fatal(err)
	}
	snap := x.Snapshot()
	if snap.NumTriples() != 3 {
		t.Fatalf("snapshot NumTriples = %d, want 3", snap.NumTriples())
	}
	// Mutate heavily after the snapshot, crossing a merge.
	for i := 10; i < 40; i++ {
		if _, err := x.Insert(Triple{ID(i), 2, ID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := x.Delete(Triple{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := x.Merge(); err != nil {
		t.Fatal(err)
	}
	got := snap.Select(Pattern{Wildcard, Wildcard, Wildcard}).Collect(-1)
	want := []Triple{{1, 1, 1}, {2, 1, 2}, {3, 1, 3}}
	if !sameTripleSet(got, want) {
		t.Fatalf("snapshot drifted after writes: %v", got)
	}
	if !snap.Lookup(Triple{1, 1, 1}) || snap.Lookup(Triple{11, 2, 11}) {
		t.Fatal("snapshot Lookup reflects post-snapshot writes")
	}
}

func TestDynamicIndexAutoMerge(t *testing.T) {
	d := NewDataset([]Triple{{0, 0, 0}})
	x, err := NewDynamic(d, Layout2Tp, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if _, err := x.Insert(Triple{S: ID(i % 7), P: ID(i % 3), O: ID(i)}); err != nil {
			t.Fatal(err)
		}
		if x.LogSize() >= 10 {
			t.Fatalf("log size %d reached the threshold without merging", x.LogSize())
		}
	}
	if x.NumTriples() != 51 {
		t.Fatalf("NumTriples = %d, want 51", x.NumTriples())
	}
}

// TestDynamicManualMergeThreshold pins the threshold < 0 contract the
// persistent store uses: the log grows without bound until the caller
// merges.
func TestDynamicManualMergeThreshold(t *testing.T) {
	d := NewDataset([]Triple{{0, 0, 0}})
	x, err := NewDynamic(d, Layout2Tp, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if _, err := x.Insert(Triple{S: ID(i), P: 0, O: ID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if x.LogSize() != 100 {
		t.Fatalf("manual mode merged on its own: log %d, want 100", x.LogSize())
	}
	if err := x.Merge(); err != nil {
		t.Fatal(err)
	}
	if x.LogSize() != 0 || x.NumTriples() != 101 {
		t.Fatalf("after manual merge: log=%d n=%d", x.LogSize(), x.NumTriples())
	}
}

func TestDynamicInsertDeleteIdempotence(t *testing.T) {
	d := NewDataset([]Triple{{1, 1, 1}})
	x, err := NewDynamic(d, Layout3T, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Inserting an existing triple: no change.
	if changed, _ := x.Insert(Triple{1, 1, 1}); changed {
		t.Fatal("Insert of existing triple reported a change")
	}
	// Delete it, then delete again.
	if changed, _ := x.Delete(Triple{1, 1, 1}); !changed {
		t.Fatal("Delete of existing triple reported no change")
	}
	if changed, _ := x.Delete(Triple{1, 1, 1}); changed {
		t.Fatal("second Delete reported a change")
	}
	if x.Lookup(Triple{1, 1, 1}) {
		t.Fatal("deleted triple still visible")
	}
	// Re-insert resurrects it from the deletion log.
	if changed, _ := x.Insert(Triple{1, 1, 1}); !changed {
		t.Fatal("re-insert reported no change")
	}
	if !x.Lookup(Triple{1, 1, 1}) {
		t.Fatal("re-inserted triple not visible")
	}
	if x.NumTriples() != 1 {
		t.Fatalf("NumTriples = %d, want 1", x.NumTriples())
	}
	// Delete-from-added: a logged insertion deleted again leaves no
	// trace in either log.
	if changed, _ := x.Insert(Triple{2, 2, 2}); !changed {
		t.Fatal("insert of new triple reported no change")
	}
	if changed, _ := x.Delete(Triple{2, 2, 2}); !changed {
		t.Fatal("delete of pending insertion reported no change")
	}
	if x.LogSize() != 0 {
		t.Fatalf("insert+delete left log entries: %d", x.LogSize())
	}
}
