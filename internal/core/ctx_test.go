package core

import (
	"math/rand"
	"sync"
	"testing"
)

// drainWith collects an iterator through the ctx batch buffer.
func drainWith(qc *QueryCtx, it *Iterator) []Triple {
	var out []Triple
	buf := qc.Batch()
	for {
		k := it.NextBatch(buf)
		if k == 0 {
			return out
		}
		out = append(out, buf[:k]...)
	}
}

// TestSelectCtxMatchesSelect runs every shape on every layout twice —
// once through a plain Select, once through a heavily reused QueryCtx —
// and requires identical results. The ctx path reuses selection states
// and compressed-sequence cursors across queries, so this exercises the
// reset paths for every algorithm.
func TestSelectCtxMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	d := skewedDataset(rng, 3000)
	qc := AcquireQueryCtx()
	defer qc.Release()
	for name, x := range allLayouts(t, d) {
		cs, ok := x.(CtxSelecter)
		if !ok {
			t.Fatalf("%s does not implement CtxSelecter", name)
		}
		for i := 0; i < 150; i++ {
			tr := d.Triples[rng.Intn(len(d.Triples))]
			shape := Shape(rng.Intn(int(NumShapes)))
			if shape == Shapexxx && i%37 != 0 {
				continue // full scans are slow; keep a few
			}
			pat := WithWildcards(tr, shape)
			want := x.Select(pat).Collect(-1)
			got := drainWith(qc, cs.SelectCtx(pat, qc))
			if len(got) != len(want) {
				t.Fatalf("%s %v: ctx path returned %d triples, want %d", name, pat, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s %v: triple %d mismatch: %v != %v", name, pat, j, got[j], want[j])
				}
			}
		}
	}
}

// TestQueryCtxRecycling verifies that exhausted iterators return their
// states to the ctx free lists and that the next query actually reuses
// them instead of allocating.
func TestQueryCtxRecycling(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := skewedDataset(rng, 2000)
	x, err := Build(d, Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	qc := AcquireQueryCtx()
	defer qc.Release()
	// The pool may hand back a ctx warmed by an earlier test; start from
	// a known-empty free list.
	qc.freeW = nil
	tr := d.Triples[len(d.Triples)/2]
	pat := WithWildcards(tr, ShapeSPx)

	// Warm up: the first query allocates the state and recycles it on
	// exhaustion.
	drainWith(qc, SelectWithCtx(x, pat, qc))
	if len(qc.freeW) != 1 {
		t.Fatalf("after drain, freeW has %d states, want 1", len(qc.freeW))
	}
	st := qc.freeW[0]
	drainWith(qc, SelectWithCtx(x, pat, qc))
	if len(qc.freeW) != 1 || qc.freeW[0] != st {
		t.Fatalf("second query did not reuse the recycled state")
	}

	// Steady state is allocation-free for the per-triple work: only the
	// result append in the test harness allocates, so measure a pure
	// count drain.
	allocs := testing.AllocsPerRun(50, func() {
		it := SelectWithCtx(x, pat, qc)
		buf := qc.Batch()
		for it.NextBatch(buf) > 0 {
		}
	})
	if allocs > 0 {
		t.Errorf("ctx steady-state drain allocates %.1f objects/query, want 0", allocs)
	}
}

// TestQueryCtxPartialDrainAbandonment checks that abandoning an
// unexhausted iterator neither corrupts the ctx nor recycles its state
// early: a fresh query after abandonment must not alias the live state.
func TestQueryCtxPartialDrainAbandonment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := skewedDataset(rng, 2000)
	x, err := Build(d, Layout3T)
	if err != nil {
		t.Fatal(err)
	}
	qc := AcquireQueryCtx()
	defer qc.Release()
	tr := d.Triples[0]
	pat := WithWildcards(tr, ShapeSxx)

	it := SelectWithCtx(x, pat, qc)
	first, ok := it.Next() // partially consumed, then abandoned
	if !ok {
		t.Fatal("expected at least one match")
	}
	got := drainWith(qc, SelectWithCtx(x, pat, qc))
	want := x.Select(pat).Collect(-1)
	if len(got) != len(want) {
		t.Fatalf("query after abandonment returned %d triples, want %d", len(got), len(want))
	}
	if got[0] != first {
		t.Fatalf("first triple changed after abandonment: %v != %v", got[0], first)
	}
}

// TestQueryCtxConcurrent fires goroutines each owning a private ctx at
// one shared index; run with -race. This is the "one index, N
// goroutines" contract with pooling in play.
func TestQueryCtxConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	d := skewedDataset(rng, 3000)
	for name, x := range allLayouts(t, d) {
		x := x
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var wg sync.WaitGroup
			errs := make(chan string, 16)
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					local := rand.New(rand.NewSource(seed))
					qc := AcquireQueryCtx()
					defer qc.Release()
					buf := qc.Batch()
					for i := 0; i < 120; i++ {
						tr := d.Triples[local.Intn(len(d.Triples))]
						shape := Shape(local.Intn(int(NumShapes - 1))) // skip ??? for speed
						pat := WithWildcards(tr, shape)
						it := SelectWithCtx(x, pat, qc)
						found := false
						for {
							k := it.NextBatch(buf)
							if k == 0 {
								break
							}
							for _, m := range buf[:k] {
								if m == tr {
									found = true
								}
								if !pat.Matches(m) {
									errs <- "non-matching triple from " + pat.Shape().String()
									return
								}
							}
						}
						if !found {
							errs <- "source triple missing from " + pat.Shape().String()
							return
						}
					}
				}(int64(g))
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
		})
	}
}
