//go:build !race

package sparql

import (
	"context"
	"testing"

	"rdfindexes/internal/core"
)

// TestRunInnerSelectionAllocs pins that Run's selections reuse the
// index's pooled states: a warm path join over a bare index allocates
// nothing whether its first arm has 50 rows or 400, so the inner
// selection each row issues allocates nothing, and a run stopped at
// Options.MaxRows allocates nothing either, so the selections it stops
// draining go back to the pools. Star joins allocate nothing either: the
// sorted binding streams of a merge-intersection come from the index's
// pools and go back when the group ends. The index is fresh, so no other test's
// selections share its pools. (The race detector makes sync.Pool drop
// what it is given, so the pin runs without it.)
func TestRunInnerSelectionAllocs(t *testing.T) {
	var ts []core.Triple
	for i := 0; i < 400; i++ {
		y := core.ID(1000 + i)
		if i < 50 {
			ts = append(ts, core.Triple{S: core.ID(i), P: 0, O: y})
		}
		if i%3 == 0 {
			ts = append(ts, core.Triple{S: core.ID(i), P: 0, O: 5})
		}
		if i%2 == 0 {
			ts = append(ts, core.Triple{S: core.ID(i), P: 1, O: 6})
		}
		ts = append(ts, core.Triple{S: core.ID(i), P: 2, O: y}, core.Triple{S: y, P: 1, O: core.ID(2000 + i)})
	}
	x, err := core.Build(core.NewDataset(ts), core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query         string
		maxRows, rows int
	}{
		{"SELECT ?x ?z WHERE { ?x <0> ?y . ?y <1> ?z . }", 0, 50},
		{"SELECT ?x ?z WHERE { ?x <2> ?y . ?y <1> ?z . }", 0, 400},
		{"SELECT ?x ?y WHERE { ?x <2> ?y . }", 10, 10},
		{"SELECT ?x ?z WHERE { ?x <2> ?y . ?y <1> ?z . }", 10, 10},
		// Stars: the two bound arms are one merge-intersection group,
		// whose streams the index pools; the third arm nests below it.
		{"SELECT ?x WHERE { ?x <0> <5> . ?x <1> <6> . }", 0, 67},
		{"SELECT ?x ?y WHERE { ?x <0> <5> . ?x <1> <6> . ?x <2> ?y . }", 0, 67},
	} {
		q, err := Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(q, []int{0, 1, 2}[:len(q.Patterns)]) // the first arm outside
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		allocs := testing.AllocsPerRun(50, func() {
			stats, err := Run(context.Background(), plan, x, Options{MaxRows: c.maxRows}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows = stats.Results
		})
		if rows != c.rows || allocs != 0 {
			t.Errorf("%s with MaxRows %d: %d rows, %v allocs/run; want %d rows and 0 allocs",
				c.query, c.maxRows, rows, allocs, c.rows)
		}
	}
}
