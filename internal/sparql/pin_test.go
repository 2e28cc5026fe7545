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

// openStars builds n star BGPs of arms open patterns ?x <p> ?v around
// subjects whose first arm's predicate has several objects, and openPaths
// n paths ?x <p> ?y . ?y <q> ?z through objects that are subjects of
// several x: the join-stream shapes, where the first arm is read
// object-major and the inner selections repeat.
func openStars(d *core.Dataset, arms, n int) []sparql.Query {
	bySubject := map[core.ID][]core.Triple{}
	for _, t := range d.Triples {
		bySubject[t.S] = append(bySubject[t.S], t)
	}
	var out []sparql.Query
	for s := core.ID(0); int(s) < d.NS && len(out) < n; s++ {
		objects := map[core.ID]int{}
		for _, t := range bySubject[s] {
			objects[t.P]++
		}
		var first core.ID
		multi := false
		for _, t := range bySubject[s] {
			if objects[t.P] > 1 {
				first, multi = t.P, true
				break
			}
		}
		if !multi {
			continue
		}
		vars, body := " ?x ?v0", fmt.Sprintf(" ?x <%d> ?v0 .", first)
		used := map[core.ID]bool{first: true}
		for _, t := range bySubject[s] {
			if !used[t.P] && len(used) < arms {
				vars += fmt.Sprintf(" ?v%d", len(used))
				body += fmt.Sprintf(" ?x <%d> ?v%d .", t.P, len(used))
				used[t.P] = true
			}
		}
		if len(used) == arms {
			out = append(out, mustParse("SELECT"+vars+" WHERE {"+body+" }"))
		}
	}
	return out
}

func openPaths(d *core.Dataset, n int) []sparql.Query {
	subjects := map[core.ID][]core.Triple{}
	into := map[[2]core.ID]int{} // (predicate, object) -> subjects pointing there
	for _, t := range d.Triples {
		subjects[t.S] = append(subjects[t.S], t)
		into[[2]core.ID{t.P, t.O}]++
	}
	var out []sparql.Query
	seen := map[[2]core.ID]bool{}
	for _, t := range d.Triples {
		next := subjects[t.O]
		if len(out) == n || into[[2]core.ID{t.P, t.O}] < 2 || len(next) == 0 {
			continue
		}
		k := [2]core.ID{t.P, next[0].P}
		if !seen[k] {
			seen[k] = true
			out = append(out, mustParse(fmt.Sprintf("SELECT ?x ?y ?z WHERE { ?x <%d> ?y . ?y <%d> ?z . }", k[0], k[1])))
		}
	}
	return out
}

func mustParse(q string) sparql.Query {
	pq, err := sparql.Parse(q)
	if err != nil {
		panic(err)
	}
	return pq
}

// TestExecStatsPinned holds the Table 6 decomposition counts and the
// emission order of fixed query sets to the values the map-based executor
// produced on the commit before the slot-compiled one (0e0a6a9): the
// per-set sums of ExecStats, and an FNV-1a hash over every emitted row's
// IDs in emission order. lubm/CC is the set where the store refuses the
// ?PO sorted streams, so merge-intersection groups fall back to nested
// loops. The open* sets are the join-stream shapes, whose repeated inner
// selections the memo replays; their values were recorded on the commit
// before the memo (45901a2), so replaying leaves the logical counts and
// the emission order exactly as the index's own answers gave them.
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
		replays bool // the memo must answer some of the selections
	}{
		{"lubm/2Tp", build(lu.Dataset, core.Layout2Tp), lubmQs,
			sparql.ExecStats{PatternsIssued: 200, TriplesMatched: 1122, Results: 923}, 0xa1b7622b81ef3cac, false},
		{"lubm/3T", build(lu.Dataset, core.Layout3T), lubmQs,
			sparql.ExecStats{PatternsIssued: 200, TriplesMatched: 1122, Results: 923}, 0xa1b7622b81ef3cac, false},
		{"lubm/CC", build(lu.Dataset, core.LayoutCC), lubmQs,
			sparql.ExecStats{PatternsIssued: 220, TriplesMatched: 1125, Results: 923}, 0xa1b7622b81ef3cac, false},
		{"watdiv/2Tp", build(wd.Dataset, core.Layout2Tp), gen.WatDivQueries(wd, 15, 37),
			sparql.ExecStats{PatternsIssued: 42, TriplesMatched: 71, Results: 44}, 0xc1f2df77e321de31, false},
		{"star2/2Tp", build(d, core.Layout2Tp), starQueries(d, 2, 40),
			sparql.ExecStats{PatternsIssued: 80, TriplesMatched: 82, Results: 41}, 0x3d786c6396084fcd, false},
		{"star3/2Tp", build(d, core.Layout2Tp), starQueries(d, 3, 40),
			sparql.ExecStats{PatternsIssued: 120, TriplesMatched: 123, Results: 41}, 0x3d786c6396084fcd, false},
		{"star2/3T", build(d, core.Layout3T), starQueries(d, 2, 40),
			sparql.ExecStats{PatternsIssued: 80, TriplesMatched: 82, Results: 41}, 0x3d786c6396084fcd, false},
		{"star3/2To", build(d, core.Layout2To), starQueries(d, 3, 40),
			sparql.ExecStats{PatternsIssued: 120, TriplesMatched: 123, Results: 41}, 0x3d786c6396084fcd, false},
		{"openstar2/2Tp", build(d, core.Layout2Tp), openStars(d, 2, 20),
			sparql.ExecStats{PatternsIssued: 34123, TriplesMatched: 61465, Results: 27362}, 0x5f3c58708559b360, true},
		{"openstar3/2Tp", build(d, core.Layout2Tp), openStars(d, 3, 20),
			sparql.ExecStats{PatternsIssued: 61485, TriplesMatched: 81347, Results: 19882}, 0x53374067ad89b368, true},
		{"openstar3/3T", build(d, core.Layout3T), openStars(d, 3, 20),
			sparql.ExecStats{PatternsIssued: 61485, TriplesMatched: 81347, Results: 19882}, 0x53374067ad89b368, true},
		{"openpath/2Tp", build(d, core.Layout2Tp), openPaths(d, 20),
			sparql.ExecStats{PatternsIssued: 16519, TriplesMatched: 21106, Results: 4607}, 0xdccee91c7616d477, true},
		{"openpath/2To", build(d, core.Layout2To), openPaths(d, 20),
			sparql.ExecStats{PatternsIssued: 16519, TriplesMatched: 21106, Results: 4607}, 0x501f59335ef041b, true},
	} {
		var got sparql.ExecStats
		replayed := 0
		h := fnv.New64a()
		for _, q := range tc.queries {
			c, err := sparql.Compile(q, sparql.Plan(q))
			if err != nil {
				t.Fatal(err)
			}
			st, err := sparql.Run(context.Background(), c, tc.st, sparql.Options{}, sparql.EachRow(func(row []core.ID) {
				for _, id := range row {
					h.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)})
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			got.PatternsIssued += st.PatternsIssued
			got.TriplesMatched += st.TriplesMatched
			got.Results += st.Results
			replayed += st.Replayed
		}
		if tc.replays && replayed == 0 {
			t.Errorf("%s: no selection replayed from the memo", tc.name)
		}
		if got != tc.want {
			t.Errorf("%s: ExecStats %+v, pinned %+v", tc.name, got, tc.want)
		}
		if h.Sum64() != tc.order {
			t.Errorf("%s: emission order hash %#x, pinned %#x", tc.name, h.Sum64(), tc.order)
		}
	}
}
