package rdf3x

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/core"
)

func refSelect(ts []core.Triple, p core.Pattern) []core.Triple {
	var out []core.Triple
	for _, t := range ts {
		if p.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}

func sameSet(a, b []core.Triple) bool {
	if len(a) != len(b) {
		return false
	}
	less := func(ts []core.Triple) func(i, j int) bool {
		return func(i, j int) bool { return ts[i].Less(ts[j]) }
	}
	as := append([]core.Triple(nil), a...)
	bs := append([]core.Triple(nil), b...)
	sort.Slice(as, less(as))
	sort.Slice(bs, less(bs))
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func testDataset(rng *rand.Rand, n int) *core.Dataset {
	ts := make([]core.Triple, 0, n)
	for len(ts) < n {
		ts = append(ts, core.Triple{
			S: core.ID(rng.Intn(n/10 + 20)),
			P: core.ID(rng.Intn(12)),
			O: core.ID(rng.Intn(n/3 + 30)),
		})
	}
	return core.NewDataset(ts)
}

func TestRDF3XAgainstOracleAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	d := testDataset(rng, 5000) // > pageLen triples: exercises page scans
	x, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		tr := d.Triples[rng.Intn(len(d.Triples))]
		for _, s := range core.AllShapes() {
			pat := core.WithWildcards(tr, s)
			want := refSelect(d.Triples, pat)
			got := x.Select(pat).Collect(-1)
			if !sameSet(got, want) {
				t.Fatalf("pattern %v (%v): got %d matches, want %d", pat, s, len(got), len(want))
			}
		}
	}
}

func TestRDF3XMuchLargerThan2Tp(t *testing.T) {
	// Six materialized permutations: RDF-3X is reported 2-4.6x larger
	// than trie-based indexes.
	rng := rand.New(rand.NewSource(173))
	d := testDataset(rng, 20000)
	x, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	if x.SizeBits() < 2*p2.SizeBits() {
		t.Errorf("RDF-3X (%d bits) not at least 2x 2Tp (%d bits)", x.SizeBits(), p2.SizeBits())
	}
}

func TestRDF3XRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(179))
	d := testDataset(rng, 3000)
	x, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	x.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(codec.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		tr := d.Triples[rng.Intn(len(d.Triples))]
		for _, s := range core.AllShapes() {
			pat := core.WithWildcards(tr, s)
			if !sameSet(got.Select(pat).Collect(-1), x.Select(pat).Collect(-1)) {
				t.Fatalf("decoded index disagrees on %v", pat)
			}
		}
	}
}

func TestRDF3XEmpty(t *testing.T) {
	d := core.NewDataset(nil)
	x, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Select(core.NewPattern(-1, -1, -1)).Count(); got != 0 {
		t.Fatalf("scan of empty index returned %d", got)
	}
}
