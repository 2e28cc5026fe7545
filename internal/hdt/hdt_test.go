package hdt

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
		s := core.ID(rng.Intn(n/10 + 20))
		p := core.ID(zipf.Uint64())
		var o core.ID
		if rng.Intn(4) == 0 {
			o = core.ID(rng.Intn(30)) // popular objects
		} else {
			o = core.ID(30 + rng.Intn(n/3+20))
		}
		ts = append(ts, core.Triple{S: s, P: p, O: o})
	}
	return core.NewDataset(ts)
}

func TestHDTAgainstOracleAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	d := testDataset(rng, 4000)
	x, err := Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if x.NumTriples() != d.Len() {
		t.Fatalf("NumTriples = %d, want %d", x.NumTriples(), d.Len())
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
	// Absent probes.
	for i := 0; i < 30; i++ {
		tr := d.Triples[rng.Intn(len(d.Triples))]
		tr.P = core.ID(rng.Intn(d.NP))
		tr.O = core.ID(rng.Intn(d.NO))
		for _, s := range []core.Shape{core.ShapeSPO, core.ShapeSPx, core.ShapeSxO, core.ShapexPO} {
			pat := core.WithWildcards(tr, s)
			if !sameSet(x.Select(pat).Collect(-1), refSelect(d.Triples, pat)) {
				t.Fatalf("absent probe %v (%v) mismatch", pat, s)
			}
		}
	}
}

func TestHDTTinyDatasets(t *testing.T) {
	for _, triples := range [][]core.Triple{
		{{S: 0, P: 0, O: 0}},
		{{S: 0, P: 0, O: 0}, {S: 0, P: 0, O: 1}, {S: 1, P: 1, O: 0}},
	} {
		d := core.NewDataset(append([]core.Triple(nil), triples...))
		x, err := Build(d)
		if err != nil {
			t.Fatal(err)
		}
		got := x.Select(core.NewPattern(-1, -1, -1)).Collect(-1)
		if !sameSet(got, d.Triples) {
			t.Fatalf("scan of %d triples returned %d", len(d.Triples), len(got))
		}
	}
}

func TestHDTLargerThan2Tp(t *testing.T) {
	// Table 5: HDT-FoQ takes ~30-45% more space than 2Tp.
	rng := rand.New(rand.NewSource(139))
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
		t.Errorf("HDT (%d bits) not larger than 2Tp (%d bits)", x.SizeBits(), p2.SizeBits())
	}
}

func TestHDTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
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
