package gen

import (
	"math"
	"math/rand"
	"testing"

	"rdfindexes/internal/core"
)

func TestZipfDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	z := NewZipf(100, 1.0)
	counts := make([]int, 100)
	n := 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	// Element 0 should be about 2x element 1, 3x element 2 (harmonic).
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Fatalf("Zipf head not decreasing: %v", counts[:5])
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if math.Abs(ratio-2) > 0.3 {
		t.Errorf("counts[0]/counts[1] = %.2f, want ~2", ratio)
	}
	// Uniform case.
	u := NewZipf(10, 0)
	counts = make([]int, 10)
	for i := 0; i < n; i++ {
		counts[u.Sample(rng)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-float64(n)/10) > float64(n)/50 {
			t.Errorf("s=0 not uniform: counts[%d] = %d", i, c)
		}
	}
}

func TestZipfDeterministic(t *testing.T) {
	z := NewZipf(50, 1.2)
	a := z.Sample(rand.New(rand.NewSource(7)))
	b := z.Sample(rand.New(rand.NewSource(7)))
	if a != b {
		t.Fatal("Zipf sampling not deterministic for a fixed seed")
	}
}

func TestGeneratePresetShapes(t *testing.T) {
	for _, name := range PresetNames() {
		d, err := GeneratePreset(name, 30000, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := d.ComputeStats()
		if st.Triples < 25000 {
			t.Fatalf("%s: generated only %d triples", name, st.Triples)
		}
		cfg := presets[name]
		// Distinct subjects should be within 2x of the calibrated ratio
		// (skew makes some IDs unused).
		wantS := float64(st.Triples) * cfg.SubjectRatio
		if float64(st.DistinctS) > wantS*1.5 || float64(st.DistinctS) < wantS*0.3 {
			t.Errorf("%s: distinct subjects %d, calibrated for ~%.0f", name, st.DistinctS, wantS)
		}
		if st.DistinctP > cfg.Predicates {
			t.Errorf("%s: %d predicates exceeds configured %d", name, st.DistinctP, cfg.Predicates)
		}
		// RDF shape invariants the paper relies on.
		if st.DistinctP >= st.DistinctS || st.DistinctP >= st.DistinctO {
			t.Errorf("%s: predicates (%d) not the small component (S=%d, O=%d)",
				name, st.DistinctP, st.DistinctS, st.DistinctO)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := GeneratePreset("dbpedia", 5000, 9)
	b, _ := GeneratePreset("dbpedia", 5000, 9)
	if a.Len() != b.Len() {
		t.Fatal("same seed produced different sizes")
	}
	for i := range a.Triples {
		if a.Triples[i] != b.Triples[i] {
			t.Fatal("same seed produced different triples")
		}
	}
	c, _ := GeneratePreset("dbpedia", 5000, 10)
	same := c.Len() == a.Len()
	if same {
		for i := range a.Triples {
			if a.Triples[i] != c.Triples[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("nope", 10, 1); err == nil {
		t.Fatal("Preset accepted unknown name")
	}
}

func TestSampleTriplesAndWorkload(t *testing.T) {
	d, _ := GeneratePreset("dblp", 5000, 5)
	sample := SampleTriples(d, 100, 3)
	if len(sample) != 100 {
		t.Fatalf("sampled %d, want 100", len(sample))
	}
	pats := PatternWorkload(sample, core.ShapexPO)
	for i, p := range pats {
		if p.Shape() != core.ShapexPO {
			t.Fatalf("pattern %d has shape %v", i, p.Shape())
		}
		if !p.Matches(sample[i]) {
			t.Fatalf("pattern %d does not match its source triple", i)
		}
	}
	// Sampling more than the dataset returns everything.
	all := SampleTriples(d, d.Len()+10, 3)
	if len(all) != d.Len() {
		t.Fatalf("oversample returned %d, want %d", len(all), d.Len())
	}
}

func TestSubjectsByOutDegree(t *testing.T) {
	d := core.NewDataset([]core.Triple{
		{S: 0, P: 0, O: 0}, {S: 0, P: 1, O: 0}, {S: 0, P: 1, O: 1}, // s0: 2 predicates
		{S: 1, P: 2, O: 0}, // s1: 1 predicate
	})
	buckets := SubjectsByOutDegree(d)
	if len(buckets[2]) != 1 || buckets[2][0] != 0 {
		t.Fatalf("degree-2 bucket = %v, want [0]", buckets[2])
	}
	if len(buckets[1]) != 1 || buckets[1][0] != 1 {
		t.Fatalf("degree-1 bucket = %v, want [1]", buckets[1])
	}
}

func TestLUBMStructure(t *testing.T) {
	data := LUBM(3, 11)
	d := data.Dataset
	if d.Len() == 0 || len(data.Universities) != 3 {
		t.Fatalf("LUBM(3) produced %d triples, %d universities", d.Len(), len(data.Universities))
	}
	if d.NS != d.NO {
		t.Fatalf("LUBM spaces not unified: NS=%d NO=%d", d.NS, d.NO)
	}
	// Every department must belong to a university.
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, dept := range data.Departments {
		pat := core.Pattern{S: dept, P: core.ID(LubmSubOrganizationOf), O: core.Wildcard}
		if x.Select(pat).Count() != 1 {
			t.Fatalf("department %d has no university", dept)
		}
	}
	// Type triples exist for every professor.
	for _, prof := range data.Professors[:minInt(20, len(data.Professors))] {
		if !core.Lookup(x, core.Triple{S: prof, P: LubmType, O: LubmClassProfessor}) {
			t.Fatalf("professor %d missing type triple", prof)
		}
	}
}

func TestLUBMQueriesExecutable(t *testing.T) {
	data := LUBM(3, 13)
	x, err := core.Build(data.Dataset, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	queries := LUBMQueries(data, 12, 17)
	if len(queries) != 12 {
		t.Fatalf("generated %d queries", len(queries))
	}
	totalResults := 0
	for _, q := range queries {
		st, err := execCount(q, x)
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		totalResults += st
	}
	if totalResults == 0 {
		t.Fatal("no LUBM query produced any result; templates or data broken")
	}
}

func TestWatDivStructureAndNumerics(t *testing.T) {
	data := WatDiv(200, 19)
	d := data.Dataset
	if len(data.Products) != 200 {
		t.Fatalf("got %d products", len(data.Products))
	}
	// Numeric values sorted and aligned with the block.
	for i := 1; i < len(data.NumericValues); i++ {
		if data.NumericValues[i] < data.NumericValues[i-1] {
			t.Fatal("numeric values not sorted")
		}
	}
	r := data.R()
	if r.Len() != len(data.NumericValues) {
		t.Fatalf("R holds %d values, want %d", r.Len(), len(data.NumericValues))
	}
	// Every product must have a price triple pointing into the block.
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, prod := range data.Products[:20] {
		it := x.Select(core.Pattern{S: prod, P: WdPrice, O: core.Wildcard})
		tr, ok := it.Next()
		if !ok {
			t.Fatalf("product %d has no price", prod)
		}
		if tr.O < data.NumericBase || int(tr.O-data.NumericBase) >= r.Len() {
			t.Fatalf("price object %d outside numeric block", tr.O)
		}
	}
	// Range query sanity: prices are in [100, 100000); the full range
	// must return every price triple.
	prices := x.Select(core.Pattern{S: core.Wildcard, P: WdPrice, O: core.Wildcard}).Count()
	got := core.SelectValueRange(x.(core.RangeSelecter), r, WdPrice, 0, 1<<40).Count()
	if got != prices {
		t.Fatalf("full-range query returned %d, want %d", got, prices)
	}
	// A narrow range returns a subset consistent with the oracle.
	lo, hi := uint64(20000), uint64(30000)
	want := 0
	for _, tr := range d.Triples {
		if tr.P == WdPrice && tr.O >= data.NumericBase &&
			int(tr.O-data.NumericBase) < len(data.NumericValues) {
			v := data.NumericValues[tr.O-data.NumericBase]
			if v >= lo && v <= hi {
				want++
			}
		}
	}
	if got := core.SelectValueRange(x.(core.RangeSelecter), r, WdPrice, lo, hi).Count(); got != want {
		t.Fatalf("range [%d, %d] returned %d, want %d", lo, hi, got, want)
	}
}

func TestWatDivQueriesExecutable(t *testing.T) {
	data := WatDiv(150, 23)
	x, err := core.Build(data.Dataset, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	queries := WatDivQueries(data, 10, 29)
	total := 0
	for _, q := range queries {
		st, err := execCount(q, x)
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		total += st
	}
	if total == 0 {
		t.Fatal("no WatDiv query produced any result")
	}
}
