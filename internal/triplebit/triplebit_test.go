package triplebit

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
	zipf := rand.NewZipf(rng, 1.3, 2, 11)
	ts := make([]core.Triple, 0, n)
	for len(ts) < n {
		ts = append(ts, core.Triple{
			S: core.ID(rng.Intn(n/10 + 20)),
			P: core.ID(zipf.Uint64()),
			O: core.ID(rng.Intn(n/3 + 30)),
		})
	}
	return core.NewDataset(ts)
}

func TestTripleBitAgainstOracleAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	d := testDataset(rng, 4000)
	x, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
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
	for i := 0; i < 30; i++ {
		tr := d.Triples[rng.Intn(len(d.Triples))]
		tr.S = core.ID(rng.Intn(d.NS))
		tr.O = core.ID(rng.Intn(d.NO))
		for _, s := range []core.Shape{core.ShapeSPO, core.ShapeSPx, core.ShapeSxO, core.ShapexPO} {
			pat := core.WithWildcards(tr, s)
			if !sameSet(x.Select(pat).Collect(-1), refSelect(d.Triples, pat)) {
				t.Fatalf("absent probe %v (%v) mismatch", pat, s)
			}
		}
	}
}

func TestTripleBitChunkBoundaries(t *testing.T) {
	// A single predicate with long runs of the same subject forces pairs
	// of one x to span multiple chunks.
	var ts []core.Triple
	for s := 0; s < 5; s++ {
		for o := 0; o < 3*chunkLen/2; o++ {
			ts = append(ts, core.Triple{S: core.ID(s), P: 0, O: core.ID(o)})
		}
	}
	d := core.NewDataset(ts)
	x, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		pat := core.NewPattern(s, 0, -1)
		if got, want := x.Select(pat).Count(), 3*chunkLen/2; got != want {
			t.Fatalf("SP? for s=%d: %d matches, want %d", s, got, want)
		}
	}
	if got := x.Select(core.NewPattern(2, 0, chunkLen)).Count(); got != 1 {
		t.Fatalf("SPO across chunk boundary: %d matches, want 1", got)
	}
}

func TestTripleBitLargerThan2Tp(t *testing.T) {
	// Table 5: TripleBit takes ~55-60% more space than 2Tp.
	rng := rand.New(rand.NewSource(157))
	d := testDataset(rng, 20000)
	x, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	if x.SizeBits() <= p2.SizeBits() {
		t.Errorf("TripleBit (%d bits) not larger than 2Tp (%d bits)", x.SizeBits(), p2.SizeBits())
	}
}

func TestTripleBitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	d := testDataset(rng, 2000)
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

func TestTripleBitEmptyPredicateBucket(t *testing.T) {
	// Predicate 1 exists in the ID space but has no triples.
	d := core.NewDataset([]core.Triple{{S: 0, P: 0, O: 0}, {S: 1, P: 2, O: 1}})
	x, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Select(core.NewPattern(-1, 1, -1)).Count(); got != 0 {
		t.Fatalf("?P? on empty predicate returned %d matches", got)
	}
	if got := x.Select(core.NewPattern(-1, -1, -1)).Count(); got != 2 {
		t.Fatalf("full scan returned %d matches, want 2", got)
	}
}
