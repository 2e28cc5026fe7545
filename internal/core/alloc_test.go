package core

import (
	"math/rand"
	"testing"
)

// TestSteadyStateAllocations asserts the block-decoded pipeline's
// allocation contract: one Select plus a full drain through NextBatch
// performs only the constant handful of setup allocations (iterator
// state and per-level cursors), independent of how many triples stream
// out — i.e. zero allocations per triple in steady state.
func TestSteadyStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for _, d := range testDatasets(rng, 20000) {
		for name, x := range allLayouts(t, d) {
			x := x
			t.Run(name, func(t *testing.T) {
				var buf [512]Triple
				for _, shape := range AllShapes() {
					// Pick a pattern with a healthy number of matches so a
					// per-triple allocation would dominate the measurement.
					var pat Pattern
					matches := 0
					for _, tr := range d.Triples[:200] {
						p := WithWildcards(tr, shape)
						if n := x.Select(p).Count(); n > matches {
							matches = n
							pat = p
						}
					}
					if matches == 0 {
						continue
					}
					got := 0
					allocs := testing.AllocsPerRun(10, func() {
						it := x.Select(pat)
						got = 0
						for {
							k := it.NextBatch(buf[:])
							if k == 0 {
								break
							}
							got += k
						}
					})
					if got != matches {
						t.Fatalf("%s: drained %d, want %d", shape, got, matches)
					}
					// Setup allocations only: the bound is deliberately far
					// below the match counts of the broad shapes, so any
					// per-triple or per-sibling-range allocation fails it.
					const maxSetupAllocs = 16
					if allocs > maxSetupAllocs {
						t.Errorf("%s (%d matches): %.1f allocs per select+drain, want <= %d",
							shape, matches, allocs, maxSetupAllocs)
					}
					if matches >= 100 && allocs/float64(matches) > 0.05 {
						t.Errorf("%s: %.4f allocs per triple, want ~0", shape, allocs/float64(matches))
					}
				}
			})
		}
	}
}

// TestCountLookupAllocs pins Select, Count and Lookup at zero
// allocations on every layout and shape once the index's pools are warm:
// a Select drained through NextBatch, like Count and Lookup, hands its
// state back to the pool it came from, and the next selection of the
// same trie repositions its cursors, the full scan (???) too.
func TestCountLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rng := rand.New(rand.NewSource(283))
	for _, d := range testDatasets(rng, 5000) {
		var buf [64]Triple
		for name, x := range allLayouts(t, d) {
			t.Run(name, func(t *testing.T) {
				for _, tr := range d.Triples[:20] {
					for _, shape := range AllShapes() {
						pat := WithWildcards(tr, shape)
						want := x.Select(pat).Count()
						if allocs := testing.AllocsPerRun(20, func() {
							if got := Count(x, pat); got != want {
								t.Fatalf("Count(%v) = %d, want %d", pat, got, want)
							}
						}); allocs != 0 {
							t.Errorf("Count %s: %.1f allocs, want 0", shape, allocs)
						}
						if allocs := testing.AllocsPerRun(20, func() {
							got := 0
							it := x.Select(pat)
							for k := it.NextBatch(buf[:]); k > 0; k = it.NextBatch(buf[:]) {
								got += k
							}
							if got != want {
								t.Fatalf("Select(%v) drained %d, want %d", pat, got, want)
							}
						}); allocs != 0 {
							t.Errorf("Select %s: %.1f allocs, want 0", shape, allocs)
						}
					}
					if allocs := testing.AllocsPerRun(20, func() {
						if !Lookup(x, tr) {
							t.Fatalf("Lookup(%v) = false", tr)
						}
					}); allocs != 0 {
						t.Errorf("Lookup: %.1f allocs, want 0", allocs)
					}
				}
			})
		}
	}
}

// TestCountMatchesNextBatchAndCollect cross-checks the three drain paths
// of the buffered iterator on every layout and shape.
func TestCountMatchesNextBatchAndCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(277))
	for _, d := range testDatasets(rng, 5000) {
		for name, x := range allLayouts(t, d) {
			for _, shape := range AllShapes() {
				for _, tr := range d.Triples[:50] {
					pat := WithWildcards(tr, shape)
					want := 0
					it := x.Select(pat)
					for {
						if _, ok := it.Next(); !ok {
							break
						}
						want++
					}
					if got := x.Select(pat).Count(); got != want {
						t.Fatalf("%s/%s: Count = %d, Next-drain = %d", name, shape, got, want)
					}
					if got := len(x.Select(pat).Collect(-1)); got != want {
						t.Fatalf("%s/%s: Collect = %d, Next-drain = %d", name, shape, got, want)
					}
					var buf [33]Triple
					got := 0
					bit := x.Select(pat)
					for {
						k := bit.NextBatch(buf[:])
						if k == 0 {
							break
						}
						for _, m := range buf[:k] {
							if !pat.Matches(m) {
								t.Fatalf("%s/%s: NextBatch produced non-matching %v", name, shape, m)
							}
						}
						got += k
					}
					if got != want {
						t.Fatalf("%s/%s: NextBatch-drain = %d, Next-drain = %d", name, shape, got, want)
					}
				}
			}
		}
	}
}

// TestMixedNextAndNextBatch interleaves scalar and batched reads on one
// iterator; the buffered entries must hand over seamlessly.
func TestMixedNextAndNextBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(281))
	d := skewedDataset(rng, 4000)
	x, err := Build(d, Layout3T)
	if err != nil {
		t.Fatal(err)
	}
	pat := Pattern{S: Wildcard, P: d.Triples[0].P, O: Wildcard}
	want := x.Select(pat).Collect(-1)
	it := x.Select(pat)
	var got []Triple
	var buf [7]Triple
	for i := 0; ; i++ {
		if i%2 == 0 {
			tr, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, tr)
		} else {
			k := it.NextBatch(buf[:])
			if k == 0 {
				break
			}
			got = append(got, buf[:k]...)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("mixed drain: %d triples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed drain: pos %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSnapshotCloseReturnsBaseState checks that closing a selection
// over a pending log closes the base selection it merges, so the base's
// state goes back to its pool: on every layout and shape, a warm select
// closed after its first triple allocates no more than one drained to
// its end.
func TestSnapshotCloseReturnsBaseState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rng := rand.New(rand.NewSource(307))
	for _, d := range testDatasets(rng, 3000) {
		for name, x := range allLayouts(t, d) {
			t.Run(name, func(t *testing.T) {
				dyn := NewDynamicFromIndex(x, -1)
				for i := 0; i < 20; i++ {
					tr := d.Triples[rng.Intn(len(d.Triples))]
					if _, err := dyn.Delete(tr); err != nil {
						t.Fatal(err)
					}
					if _, err := dyn.Insert(Triple{tr.S, tr.P, ID(rng.Intn(d.NO))}); err != nil {
						t.Fatal(err)
					}
				}
				snap := dyn.Snapshot()
				var buf [64]Triple
				for _, shape := range AllShapes() {
					pat := WithWildcards(d.Triples[len(d.Triples)/2], shape)
					if snap.Select(pat).Count() < 2 {
						continue
					}
					drained := testing.AllocsPerRun(20, func() {
						it := snap.Select(pat)
						for it.NextBatch(buf[:]) > 0 {
						}
					})
					closed := testing.AllocsPerRun(20, func() {
						it := snap.Select(pat)
						if it.NextBatch(buf[:1]) != 1 {
							t.Fatalf("Select(%v) is empty", pat)
						}
						it.Close()
					})
					if closed > drained {
						t.Errorf("%s: %.1f allocs closed after one triple, %.1f drained", shape, closed, drained)
					}
				}
			})
		}
	}
}
