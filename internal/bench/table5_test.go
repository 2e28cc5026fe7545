package bench

import (
	"sort"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/hdt"
	"rdfindexes/internal/rdf3x"
	"rdfindexes/internal/triplebit"
)

// The fixtures of the paper's Table 5 as rdfbench -exp table5 builds
// them: table4Datasets at table5Triples, seed 1, sampling with seed+3.
const (
	table5Triples = 20_000
	table5Seed    = 1
)

func table5Dataset(t *testing.T, preset string) *core.Dataset {
	t.Helper()
	d, err := gen.GeneratePreset(preset, table5Triples, table5Seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTable5Space checks the paper's space claim against its baselines:
// on every Table 5 dataset 2Tp takes fewer bits/triple than HDT-FoQ,
// TripleBit and RDF-3X*.
func TestTable5Space(t *testing.T) {
	for _, preset := range table4Datasets {
		d := table5Dataset(t, preset)
		p2, err := core.Build(d, core.Layout2Tp)
		if err != nil {
			t.Fatal(err)
		}
		h, err := hdt.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := triplebit.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		r3, err := rdf3x.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		mine := BitsPerTriple(p2)
		for name, x := range map[string]Store{"HDT-FoQ": h, "TripleBit": tb, "RDF-3X*": r3} {
			if theirs := BitsPerTriple(x); mine >= theirs {
				t.Errorf("%s: 2Tp %.2f bits/triple, not below %s's %.2f", preset, mine, name, theirs)
			}
		}
	}
}

// table5Rounds is how many times each side of a factor is timed; the
// factor is the ratio of the two medians.
const table5Rounds = 7

// TestTable5Factors checks the paper's speed factors against HDT-FoQ on
// the Table 5 datasets, as ratios measured inside one process: HDT-FoQ
// is at least 5× slower than 2Tp on ?PO and at least 1.25× slower on ?P?.
// It also pins where this reproduction departs from the paper: on
// dbpedia and freebase 2Tp's ??O is at least 2× slower than HDT-FoQ's
// (EXPERIMENTS.md "The paper's claims as tests" lists the factors the
// bounds were chosen from, each at least 2.5× the bound). The two
// indexes are timed in alternation, round after round, so a slow
// process or a noisy neighbour slows both sides of a ratio alike.
func TestTable5Factors(t *testing.T) {
	if testing.Short() {
		t.Skip("speed factors skipped in -short")
	}
	if raceEnabled {
		t.Skip("speed factors skipped under the race detector")
	}
	for _, preset := range table4Datasets {
		d := table5Dataset(t, preset)
		p2, err := core.Build(d, core.Layout2Tp)
		if err != nil {
			t.Fatal(err)
		}
		h, err := hdt.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		sample := gen.SampleTriples(d, 300, table5Seed+3)
		for _, c := range []struct {
			shape core.Shape
			min   float64 // least HDT-FoQ / 2Tp ns/triple factor
			max   float64 // most factor, 0 for none
		}{
			{core.ShapexPO, 5, 0},
			{core.ShapexPx, 1.25, 0},
			{core.ShapexxO, 0, 0.5},
		} {
			if c.shape == core.ShapexxO && preset != "dbpedia" && preset != "freebase" {
				continue
			}
			pats := gen.PatternWorkload(sample, c.shape)
			mine, theirs := medianNsPerTriple(p2, h, pats)
			f := theirs / mine
			t.Logf("%s %s: 2Tp %.1f, HDT-FoQ %.1f ns/triple, factor %.2f", preset, c.shape, mine, theirs, f)
			switch {
			case f < c.min:
				t.Errorf("%s %s: HDT-FoQ %.1f ns/triple is %.2f× 2Tp's %.1f, want at least %g×",
					preset, c.shape, theirs, f, mine, c.min)
			case c.max > 0 && f > c.max:
				t.Errorf("%s %s: 2Tp %.1f ns/triple is no longer at least %g× slower than HDT-FoQ's %.1f (factor %.2f); "+
					"the divergence from the paper has closed: update EXPERIMENTS.md \"The paper's claims as tests\" and this bound",
					preset, c.shape, mine, 1/c.max, theirs, f)
			}
		}
	}
}

// medianNsPerTriple times a and b on pats in alternation, table5Rounds
// times each, and returns each side's median ns per returned triple.
func medianNsPerTriple(a, b Store, pats []core.Pattern) (float64, float64) {
	as := make([]float64, table5Rounds)
	bs := make([]float64, table5Rounds)
	TimePatterns(a, pats, 1) // an untimed pass of each side warms both
	TimePatterns(b, pats, 1)
	for r := 0; r < table5Rounds; r++ {
		if r%2 == 0 {
			as[r], _ = TimePatterns(a, pats, 1)
			bs[r], _ = TimePatterns(b, pats, 1)
		} else {
			bs[r], _ = TimePatterns(b, pats, 1)
			as[r], _ = TimePatterns(a, pats, 1)
		}
	}
	return median(as), median(bs)
}

func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}
