package sparql

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rdfindexes/internal/core"
)

// TestGallopedStarJoins cross-checks the merge-intersection path against
// brute force on star-shaped BGPs, for every layout that implements
// core.VarSelecter and for the plain-Store fallback.
func TestGallopedStarJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	ts := randomTriples(rng, 600)
	d := core.NewDataset(append([]core.Triple(nil), ts...))
	stores := map[string]Store{"slice": sliceStore(d.Triples)}
	for _, l := range []core.Layout{core.Layout3T, core.LayoutCC, core.Layout2Tp, core.Layout2To} {
		x, err := core.Build(d, l)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := x.(core.VarSelecter); !ok {
			t.Fatalf("%s: expected VarSelecter", l)
		}
		stores[l.String()] = x
	}

	var queries []string
	// Subject stars over every predicate pair/triple with concrete objects.
	bySubject := map[core.ID][]core.Triple{}
	for _, tr := range d.Triples {
		bySubject[tr.S] = append(bySubject[tr.S], tr)
	}
	for s, trs := range bySubject {
		if len(trs) < 2 || len(queries) > 30 {
			continue
		}
		_ = s
		queries = append(queries, fmt.Sprintf(
			"SELECT ?x WHERE { ?x <%d> <%d> . ?x <%d> <%d> . }",
			trs[0].P, trs[0].O, trs[1].P, trs[1].O))
		if len(trs) >= 3 {
			queries = append(queries, fmt.Sprintf(
				"SELECT ?x WHERE { ?x <%d> <%d> . ?x <%d> <%d> . ?x <%d> <%d> . }",
				trs[0].P, trs[0].O, trs[1].P, trs[1].O, trs[2].P, trs[2].O))
		}
	}
	// Object stars (SP? streams) and mixed groups.
	queries = append(queries,
		"SELECT ?o WHERE { <3> <1> ?o . <5> <2> ?o . }",
		"SELECT ?o WHERE { <3> <0> ?o . ?o <1> ?z . }",
		// empty intersections
		"SELECT ?x WHERE { ?x <0> <5000> . ?x <1> <6000> . }",
		// a group behind a bound prefix
		"SELECT ?x ?y WHERE { ?x <0> ?y . ?y <1> <5> . ?y <2> <7> . }",
	)

	for _, qs := range queries {
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("%q: %v", qs, err)
		}
		want := refExecute(q, d.Triples)
		// The slice store has no sorted streams, so it evaluates with
		// nested loops only: its row multiset is the reference for the
		// layouts that gallop.
		collect := func(st Store) ([]string, ExecStats) {
			var rows []string
			stats := execute(t, q, st, nil, func(row []core.ID) {
				rows = append(rows, fmt.Sprint(row))
			})
			sort.Strings(rows)
			return rows, stats
		}
		nested, _ := collect(stores["slice"])
		for name, st := range stores {
			rows, stats := collect(st)
			if stats.Results != want || len(rows) != want {
				t.Errorf("%s %q: got %d results, want %d", name, qs, stats.Results, want)
			}
			if !reflect.DeepEqual(rows, nested) {
				t.Errorf("%s %q: rows differ from nested-loop evaluation", name, qs)
			}
		}
	}
}

// TestGallopedOrderIndependent runs the same star query under every
// pattern order and expects identical result counts.
func TestGallopedOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	ts := randomTriples(rng, 500)
	d := core.NewDataset(append([]core.Triple(nil), ts...))
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	var tr core.Triple
	for _, c := range d.Triples {
		tr = c
		break
	}
	q, err := Parse(fmt.Sprintf(
		"SELECT ?x WHERE { ?x <%d> <%d> . ?x <%d> <%d> . ?x <%d> <%d> . }",
		tr.P, tr.O, (tr.P+1)%5, tr.O, (tr.P+2)%5, (tr.O+1)%20))
	if err != nil {
		t.Fatal(err)
	}
	want := refExecute(q, d.Triples)
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {0, 2, 1}}
	for _, order := range orders {
		stats := execute(t, q, x, order, nil)
		if stats.Results != want {
			t.Errorf("order %v: got %d, want %d", order, stats.Results, want)
		}
	}
}
