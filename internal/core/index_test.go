package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// refSelect is the brute-force oracle for pattern matching.
func refSelect(ts []Triple, p Pattern) []Triple {
	var out []Triple
	for _, t := range ts {
		if p.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}

func sortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
}

// sortedByPermCopy returns ts sorted in the permutation's lexicographic
// order, leaving ts as it was.
func sortedByPermCopy(ts []Triple, p Perm) []Triple {
	out := append([]Triple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return permLess(p, out[i], out[j]) })
	return out
}

// firstMismatch returns the first position where the equal-length
// sequences got and want differ, or -1 when they are the same.
func firstMismatch(got, want []Triple) int {
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

func sameTripleSet(a, b []Triple) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]Triple(nil), a...)
	bs := append([]Triple(nil), b...)
	sortTriples(as)
	sortTriples(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// skewedDataset mimics the RDF statistics the paper's techniques exploit:
// few, highly associative predicates; low subject out-degree; objects that
// are mostly rare (large ID space) with a small popular head.
func skewedDataset(rng *rand.Rand, n int) *Dataset {
	numS := n/12 + 30
	numP := 15
	popularO := 40
	longO := n/3 + 50
	zipfP := rand.NewZipf(rng, 1.3, 2, uint64(numP-1))
	ts := make([]Triple, 0, n)
	for len(ts) < n {
		s := ID(rng.Intn(numS))
		p := ID(zipfP.Uint64())
		var o ID
		if rng.Intn(100) < 25 {
			o = ID(rng.Intn(popularO))
		} else {
			o = ID(popularO + rng.Intn(longO))
		}
		ts = append(ts, Triple{s, p, o})
	}
	return NewDataset(ts)
}

// rankedDataset returns n triples on which 2Tp keeps POS's subjects as
// ranks in PS, as it does on DBpedia-like data: each predicate is used
// by few subjects, with several objects a (subject, predicate) pair, so
// that a rank in a predicate's list is narrower than a subject ID. A
// quarter of the objects are popular, as in skewedDataset.
func rankedDataset(rng *rand.Rand, n int) *Dataset {
	numS, numP := n/8+30, n/40+4
	ts := make([]Triple, 0, n+3)
	for len(ts) < n {
		s, p := ID(rng.Intn(numS)), ID(rng.Intn(numP))
		for range 4 {
			o := ID(rng.Intn(numS))
			if rng.Intn(4) == 0 {
				o = ID(rng.Intn(20))
			}
			ts = append(ts, Triple{s, p, o})
		}
	}
	return NewDataset(ts[:n])
}

// testDatasets returns the two datasets of n triples that tests run
// every layout on: skewedDataset drawn from rng, on which 2Tp keeps
// POS's subjects as IDs, and rankedDataset, on which it ranks them.
func testDatasets(rng *rand.Rand, n int) []*Dataset {
	return []*Dataset{skewedDataset(rng, n), rankedDataset(rand.New(rand.NewSource(int64(n))), n)}
}

// testLayouts names every layout the tests cover: the four of the
// paper plus CC's all-permutations ablation.
var testLayouts = []struct {
	name   string
	layout Layout
	opts   []Option
}{
	{"3T", Layout3T, nil},
	{"CC", LayoutCC, nil},
	{"CC-all", LayoutCC, []Option{WithCCAllPermutations()}},
	{"2Tp", Layout2Tp, nil},
	{"2To", Layout2To, nil},
}

// ranksOf returns what the third level of p ranks among when x
// cross-compresses p ("POS", "PS"), or "" when it holds IDs.
func ranksOf(x Index, p Perm) string {
	for _, s := range Sequences(x) {
		if s.Owner == p.String() && s.Part == "nodes L2" {
			return s.Ranks
		}
	}
	return ""
}

// allLayouts builds every layout of testLayouts on d. 2Tp is named
// "2Tp-PS" where it ranks POS's subjects in PS.
func allLayouts(t *testing.T, d *Dataset) map[string]Index {
	t.Helper()
	out := map[string]Index{}
	for _, c := range testLayouts {
		x, err := Build(d, c.layout, c.opts...)
		if err != nil {
			t.Fatalf("Build(%s): %v", c.name, err)
		}
		name := c.name
		if ranksOf(x, PermPOS) == "PS" {
			name += "-PS"
		}
		out[name] = x
	}
	return out
}

// TestDatasetsCoverBoth2TpForms: at every size the tests use, 2Tp keeps
// POS's subjects as IDs on the first of testDatasets and as ranks in PS
// on the second, and so does it on the numeric fixtures.
func TestDatasetsCoverBoth2TpForms(t *testing.T) {
	ranks := func(d *Dataset) bool {
		x, err := Build(d, Layout2Tp)
		if err != nil {
			t.Fatal(err)
		}
		return ranksOf(x, PermPOS) == "PS"
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1500, 2000, 3000, 4000, 5000, 8000, 20000} {
		ds := testDatasets(rng, n)
		if ranks(ds[0]) || !ranks(ds[1]) {
			t.Errorf("n=%d: 2Tp ranks POS's subjects on the skewed data %v, on the ranked data %v", n, ranks(ds[0]), ranks(ds[1]))
		}
	}
	for _, ranked := range []bool{false, true} {
		if got := ranks(newNumericFixture(rng, 4000, ranked).d); got != ranked {
			t.Errorf("numeric fixture, ranked %v: 2Tp ranks POS's subjects %v", ranked, got)
		}
	}
}

// TestCheckRanksOnBuiltIndexes: every index Build makes passes
// CheckRanks, the cross-compressed ones (CC, CC-all, 2Tp) included.
func TestCheckRanksOnBuiltIndexes(t *testing.T) {
	for _, d := range testDatasets(rand.New(rand.NewSource(72)), 4000) {
		for name, x := range allLayouts(t, d) {
			if err := CheckRanks(x); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestAllLayoutsAgainstOracleAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, d := range testDatasets(rng, 4000) {
		indexes := allLayouts(t, d)

		// Pattern pool: shapes derived from existing triples plus absent ones.
		var patterns []Pattern
		for i := 0; i < 60; i++ {
			tr := d.Triples[rng.Intn(len(d.Triples))]
			for _, s := range AllShapes() {
				patterns = append(patterns, WithWildcards(tr, s))
			}
		}
		// Absent probes: components beyond the used spaces are not possible
		// (dense spaces), so perturb components to likely-absent combos.
		for i := 0; i < 40; i++ {
			tr := d.Triples[rng.Intn(len(d.Triples))]
			tr.O = ID(rng.Intn(d.NO))
			tr.P = ID(rng.Intn(d.NP))
			for _, s := range []Shape{ShapeSPO, ShapeSPx, ShapeSxO, ShapexPO} {
				patterns = append(patterns, WithWildcards(tr, s))
			}
		}

		for name, x := range indexes {
			if x.NumTriples() != d.Len() {
				t.Fatalf("%s: NumTriples = %d, want %d", name, x.NumTriples(), d.Len())
			}
			for _, p := range patterns {
				want := refSelect(d.Triples, p)
				got := x.Select(p).Collect(-1)
				if !sameTripleSet(got, want) {
					t.Fatalf("%s: pattern %v (%v): got %d matches, want %d",
						name, p, p.Shape(), len(got), len(want))
				}
				// The stream must arrive in the route's emission order.
				perm := emitPerm(x.Layout(), p.Shape())
				if i := firstMismatch(got, sortedByPermCopy(want, perm)); i >= 0 {
					t.Fatalf("%s: pattern %v (%v): triple %d = %v out of %v order",
						name, p, p.Shape(), i, got[i], perm)
				}
				// Every produced triple must satisfy the pattern.
				for _, m := range got {
					if !p.Matches(m) {
						t.Fatalf("%s: pattern %v yielded non-matching %v", name, p, m)
					}
				}
			}
		}
	}
}

func TestFullScanAllLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, d := range testDatasets(rng, 2000) {
		for name, x := range allLayouts(t, d) {
			got := x.Select(NewPattern(-1, -1, -1)).Collect(-1)
			if !sameTripleSet(got, d.Triples) {
				t.Fatalf("%s: full scan returned %d triples, want %d", name, len(got), d.Len())
			}
		}
	}
}

func TestLookupAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, d := range testDatasets(rng, 1500) {
		for name, x := range allLayouts(t, d) {
			for i := 0; i < 100; i++ {
				tr := d.Triples[rng.Intn(len(d.Triples))]
				if !Lookup(x, tr) {
					t.Fatalf("%s: Lookup lost triple %v", name, tr)
				}
			}
			absent := Triple{ID(d.NS - 1), ID(d.NP - 1), ID(d.NO - 1)}
			if refSelect(d.Triples, PatternOf(absent)) == nil && Lookup(x, absent) {
				t.Fatalf("%s: Lookup found absent triple %v", name, absent)
			}
			p := NewPattern(-1, 0, -1)
			if got, want := Count(x, p), len(refSelect(d.Triples, p)); got != want {
				t.Fatalf("%s: Count(?0?) = %d, want %d", name, got, want)
			}
		}
	}
}

func TestSpaceOrderingAcrossLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	d := skewedDataset(rng, 20000)
	x3, _ := Build(d, Layout3T)
	cc, _ := Build(d, LayoutCC)
	p2, _ := Build(d, Layout2Tp)
	o2, _ := Build(d, Layout2To)
	// Paper Table 4: 3T > CC > 2To > 2Tp.
	if !(x3.SizeBits() > cc.SizeBits()) {
		t.Errorf("3T (%d bits) not larger than CC (%d bits)", x3.SizeBits(), cc.SizeBits())
	}
	if !(cc.SizeBits() > p2.SizeBits()) {
		t.Errorf("CC (%d bits) not larger than 2Tp (%d bits)", cc.SizeBits(), p2.SizeBits())
	}
	if !(o2.SizeBits() > p2.SizeBits()) {
		t.Errorf("2To (%d bits) not larger than 2Tp (%d bits)", o2.SizeBits(), p2.SizeBits())
	}
	if !(x3.SizeBits() > o2.SizeBits()) {
		t.Errorf("3T (%d bits) not larger than 2To (%d bits)", x3.SizeBits(), o2.SizeBits())
	}
}

func TestEmptyAndTinyDatasets(t *testing.T) {
	for _, triples := range [][]Triple{
		{},
		{{0, 0, 0}},
		{{0, 0, 0}, {0, 0, 1}, {1, 0, 0}},
	} {
		d := NewDataset(append([]Triple(nil), triples...))
		for name, x := range allLayouts(t, d) {
			for _, s := range AllShapes() {
				var pat Pattern
				if len(d.Triples) > 0 {
					pat = WithWildcards(d.Triples[0], s)
				} else {
					pat = NewPattern(-1, -1, -1)
				}
				want := refSelect(d.Triples, pat)
				got := x.Select(pat).Collect(-1)
				if !sameTripleSet(got, want) {
					t.Fatalf("%s (n=%d): pattern %v mismatch", name, len(triples), pat)
				}
			}
		}
	}
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, d := range testDatasets(rng, 2000) {
		for name, x := range allLayouts(t, d) {
			var buf bytes.Buffer
			if err := WriteIndex(&buf, x); err != nil {
				t.Fatalf("%s: WriteIndex: %v", name, err)
			}
			got, err := ReadIndex(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: ReadIndex: %v", name, err)
			}
			if got.Layout() != x.Layout() || got.NumTriples() != x.NumTriples() {
				t.Fatalf("%s: decoded header mismatch", name)
			}
			for i := 0; i < 50; i++ {
				tr := d.Triples[rng.Intn(len(d.Triples))]
				for _, s := range AllShapes() {
					pat := WithWildcards(tr, s)
					if !sameTripleSet(got.Select(pat).Collect(-1), x.Select(pat).Collect(-1)) {
						t.Fatalf("%s: decoded index disagrees on %v", name, pat)
					}
				}
			}
		}
	}
}

func TestReadIndexRejectsJunk(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("ReadIndex accepted junk")
	}
}

func TestBuildDispatch(t *testing.T) {
	d := NewDataset([]Triple{{0, 0, 0}, {1, 1, 1}})
	for _, l := range []Layout{Layout3T, LayoutCC, Layout2Tp, Layout2To} {
		x, err := Build(d, l)
		if err != nil {
			t.Fatalf("Build(%v): %v", l, err)
		}
		if x.Layout() != l {
			t.Fatalf("Build(%v) returned layout %v", l, x.Layout())
		}
	}
	if _, err := Build(d, Layout(99)); err == nil {
		t.Fatal("Build accepted unknown layout")
	}
}

func TestLayoutParse(t *testing.T) {
	for _, l := range []Layout{Layout3T, LayoutCC, Layout2Tp, Layout2To} {
		got, err := ParseLayout(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLayout(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLayout("9T"); err == nil {
		t.Error("ParseLayout accepted junk")
	}
}

func TestIteratorCollectLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	d := skewedDataset(rng, 500)
	x, _ := Build(d, Layout2Tp)
	got := x.Select(NewPattern(-1, -1, -1)).Collect(10)
	if len(got) != 10 {
		t.Fatalf("Collect(10) returned %d triples", len(got))
	}
}
