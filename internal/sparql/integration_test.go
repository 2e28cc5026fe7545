package sparql_test

import (
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/hdt"
	"rdfindexes/internal/rdf3x"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/triplebit"
)

// TestReplayConsistencyAcrossAllSystems is the Table 6 invariant: the
// same serial decomposition of a query log, replayed on every index
// layout and every baseline, must match exactly the same triples.
func TestReplayConsistencyAcrossAllSystems(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dataset *core.Dataset
		queries []sparql.Query
	}{
		{"watdiv", nil, nil},
		{"lubm", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d *core.Dataset
			var queries []sparql.Query
			if tc.name == "watdiv" {
				wd := gen.WatDiv(300, 31)
				d = wd.Dataset
				queries = gen.WatDivQueries(wd, 15, 37)
			} else {
				lu := gen.LUBM(2, 41)
				d = lu.Dataset
				queries = gen.LUBMQueries(lu, 15, 43)
			}

			p2, err := core.Build(d, core.Layout2Tp)
			if err != nil {
				t.Fatal(err)
			}
			var patterns []core.Pattern
			for _, q := range queries {
				ps, err := sparql.Decompose(q, p2)
				if err != nil {
					t.Fatal(err)
				}
				patterns = append(patterns, ps...)
			}
			if len(patterns) == 0 {
				t.Fatal("query log decomposed to zero patterns")
			}

			stores := map[string]sparql.Store{"2Tp": p2}
			if x, err := core.Build(d, core.Layout3T); err == nil {
				stores["3T"] = x
			} else {
				t.Fatal(err)
			}
			if x, err := core.Build(d, core.LayoutCC); err == nil {
				stores["CC"] = x
			} else {
				t.Fatal(err)
			}
			if x, err := core.Build(d, core.Layout2To); err == nil {
				stores["2To"] = x
			} else {
				t.Fatal(err)
			}
			if x, err := hdt.Build(d); err == nil {
				stores["HDT-FoQ"] = x
			} else {
				t.Fatal(err)
			}
			if x, err := triplebit.Build(d); err == nil {
				stores["TripleBit"] = x
			} else {
				t.Fatal(err)
			}
			if x, err := rdf3x.Build(d); err == nil {
				stores["RDF-3X"] = x
			} else {
				t.Fatal(err)
			}

			want := sparql.Replay(patterns, p2)
			if want == 0 {
				t.Fatal("replay matched nothing; workload is degenerate")
			}
			for name, st := range stores {
				if got := sparql.Replay(patterns, st); got != want {
					t.Errorf("%s replayed %d matches, want %d", name, got, want)
				}
			}
		})
	}
}
