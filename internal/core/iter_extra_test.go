package core

import (
	"math/rand"
	"testing"
)

func TestFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	d := skewedDataset(rng, 800)
	x, err := Build(d, Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	all := x.Select(NewPattern(-1, 0, -1))
	even := Filter(all, func(tr Triple) bool { return tr.O%2 == 0 })
	count := 0
	for {
		tr, ok := even.Next()
		if !ok {
			break
		}
		if tr.P != 0 || tr.O%2 != 0 {
			t.Fatalf("filtered iterator yielded %v", tr)
		}
		count++
	}
	want := 0
	for _, tr := range d.Triples {
		if tr.P == 0 && tr.O%2 == 0 {
			want++
		}
	}
	if count != want {
		t.Fatalf("filtered count = %d, want %d", count, want)
	}
}

// TestIteratorExhaustionIsSticky: an ended iterator keeps answering no
// more results while nothing else selects on its index. Its state is
// back in the pool, so callers must not rely on this (Iterator's doc).
func TestIteratorExhaustionIsSticky(t *testing.T) {
	d := NewDataset([]Triple{{0, 0, 0}})
	x, err := Build(d, Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	it := x.Select(NewPattern(0, 0, 0))
	if _, ok := it.Next(); !ok {
		t.Fatal("first Next failed")
	}
	for i := 0; i < 3; i++ {
		if _, ok := it.Next(); ok {
			t.Fatal("exhausted iterator produced a triple")
		}
	}
}

func TestSelectOutOfSpaceComponents(t *testing.T) {
	// Patterns with IDs beyond the dense spaces must return no matches on
	// every layout rather than panicking.
	rng := rand.New(rand.NewSource(227))
	for _, d := range testDatasets(rng, 2000) {
		for name, x := range allLayouts(t, d) {
			for _, pat := range []Pattern{
				{S: ID(d.NS + 5), P: Wildcard, O: Wildcard},
				{S: Wildcard, P: ID(d.NP + 5), O: Wildcard},
				{S: Wildcard, P: Wildcard, O: ID(d.NO + 5)},
				{S: ID(d.NS + 5), P: ID(d.NP + 5), O: ID(d.NO + 5)},
				{S: ID(d.NS + 5), P: Wildcard, O: ID(d.NO + 5)},
			} {
				if got := x.Select(pat).Count(); got != 0 {
					t.Fatalf("%s: out-of-space pattern %v matched %d triples", name, pat, got)
				}
			}
		}
	}
}

func TestCountMatchesCollectLength(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	d := skewedDataset(rng, 1000)
	x, err := Build(d, Layout3T)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tr := d.Triples[rng.Intn(len(d.Triples))]
		for _, s := range AllShapes() {
			pat := WithWildcards(tr, s)
			if c, l := Count(x, pat), len(x.Select(pat).Collect(-1)); c != l {
				t.Fatalf("Count (%d) != len(Collect) (%d) for %v", c, l, pat)
			}
		}
	}
}
