package sparql_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/sparql"
)

// starQueries builds star-shaped BGPs (arms patterns sharing the subject
// variable) from the first n subjects of d with enough distinct
// predicates.
func starQueries(d *core.Dataset, arms, n int) []sparql.Query {
	bySubject := map[core.ID][]core.Triple{}
	for _, t := range d.Triples {
		bySubject[t.S] = append(bySubject[t.S], t)
	}
	var out []sparql.Query
	for s := core.ID(0); int(s) < d.NS && len(out) < n; s++ {
		q := "SELECT ?x WHERE {"
		used := map[core.ID]bool{}
		for _, t := range bySubject[s] {
			if !used[t.P] && len(used) < arms {
				used[t.P] = true
				q += fmt.Sprintf(" ?x <%d> <%d> .", t.P, t.O)
			}
		}
		if len(used) < arms {
			continue
		}
		pq, err := sparql.Parse(q + " }")
		if err != nil {
			panic(err)
		}
		out = append(out, pq)
	}
	return out
}

// TestExecStatsPinned holds the Table 6 decomposition counts and the
// emission order of fixed query sets to the values the map-based executor
// produced on the commit before the slot-compiled one (0e0a6a9): the
// per-set sums of ExecStats, and an FNV-1a hash over every emitted row's
// IDs in emission order. lubm/CC is the set where the store refuses the
// ?PO sorted streams, so merge-intersection groups fall back to nested
// loops.
func TestExecStatsPinned(t *testing.T) {
	lu := gen.LUBM(2, 41)
	lubmQs := gen.LUBMQueries(lu, 18, 43)
	wd := gen.WatDiv(300, 31)
	d, err := gen.GeneratePreset("dbpedia", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func(d *core.Dataset, l core.Layout) sparql.Store {
		x, err := core.Build(d, l)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	for _, tc := range []struct {
		name    string
		st      sparql.Store
		queries []sparql.Query
		want    sparql.ExecStats
		order   uint64
	}{
		{"lubm/2Tp", build(lu.Dataset, core.Layout2Tp), lubmQs,
			sparql.ExecStats{PatternsIssued: 200, TriplesMatched: 1122, Results: 923}, 0xa1b7622b81ef3cac},
		{"lubm/3T", build(lu.Dataset, core.Layout3T), lubmQs,
			sparql.ExecStats{PatternsIssued: 200, TriplesMatched: 1122, Results: 923}, 0xa1b7622b81ef3cac},
		{"lubm/CC", build(lu.Dataset, core.LayoutCC), lubmQs,
			sparql.ExecStats{PatternsIssued: 220, TriplesMatched: 1125, Results: 923}, 0xa1b7622b81ef3cac},
		{"watdiv/2Tp", build(wd.Dataset, core.Layout2Tp), gen.WatDivQueries(wd, 15, 37),
			sparql.ExecStats{PatternsIssued: 42, TriplesMatched: 71, Results: 44}, 0xc1f2df77e321de31},
		{"star2/2Tp", build(d, core.Layout2Tp), starQueries(d, 2, 40),
			sparql.ExecStats{PatternsIssued: 80, TriplesMatched: 82, Results: 41}, 0x3d786c6396084fcd},
		{"star3/2Tp", build(d, core.Layout2Tp), starQueries(d, 3, 40),
			sparql.ExecStats{PatternsIssued: 120, TriplesMatched: 123, Results: 41}, 0x3d786c6396084fcd},
		{"star2/3T", build(d, core.Layout3T), starQueries(d, 2, 40),
			sparql.ExecStats{PatternsIssued: 80, TriplesMatched: 82, Results: 41}, 0x3d786c6396084fcd},
		{"star3/2To", build(d, core.Layout2To), starQueries(d, 3, 40),
			sparql.ExecStats{PatternsIssued: 120, TriplesMatched: 123, Results: 41}, 0x3d786c6396084fcd},
	} {
		var got sparql.ExecStats
		h := fnv.New64a()
		for _, q := range tc.queries {
			c, err := sparql.Compile(q, sparql.Plan(q))
			if err != nil {
				t.Fatal(err)
			}
			st, err := sparql.Run(context.Background(), c, tc.st, sparql.Options{}, func(row []core.ID) {
				for _, id := range row {
					h.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)})
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			got.PatternsIssued += st.PatternsIssued
			got.TriplesMatched += st.TriplesMatched
			got.Results += st.Results
		}
		if got != tc.want {
			t.Errorf("%s: ExecStats %+v, pinned %+v", tc.name, got, tc.want)
		}
		if h.Sum64() != tc.order {
			t.Errorf("%s: emission order hash %#x, pinned %#x", tc.name, h.Sum64(), tc.order)
		}
	}
}
