//go:build !race

package sparql

import (
	"context"
	"testing"

	"rdfindexes/internal/core"
)

// TestRunInnerSelectionAllocs pins that Run's selections reuse the
// index's pooled states: a warm path join over a bare index allocates
// the same whether its first arm has 50 rows or 400, so the inner
// selection each row issues allocates nothing. The index is fresh, so
// no other test's selections share its pools. (The race detector makes
// sync.Pool drop what it is given, so the pin runs without it.)
func TestRunInnerSelectionAllocs(t *testing.T) {
	var ts []core.Triple
	for i := 0; i < 400; i++ {
		y := core.ID(1000 + i)
		if i < 50 {
			ts = append(ts, core.Triple{S: core.ID(i), P: 0, O: y})
		}
		ts = append(ts, core.Triple{S: core.ID(i), P: 2, O: y}, core.Triple{S: y, P: 1, O: core.ID(2000 + i)})
	}
	x, err := core.Build(core.NewDataset(ts), core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	var allocs [2]float64
	var rows [2]int
	for k, qs := range []string{
		"SELECT ?x ?z WHERE { ?x <0> ?y . ?y <1> ?z . }",
		"SELECT ?x ?z WHERE { ?x <2> ?y . ?y <1> ?z . }",
	} {
		q, err := Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(q, []int{0, 1}) // the first arm outside
		if err != nil {
			t.Fatal(err)
		}
		query := func() {
			stats, err := Run(context.Background(), c, x, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows[k] = stats.Results
		}
		allocs[k] = testing.AllocsPerRun(50, query)
	}
	if rows != [2]int{50, 400} {
		t.Fatalf("%v rows, want [50 400]", rows)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("%v allocs/run at %d outer rows, %v at %d: inner selections allocate", allocs[0], rows[0], allocs[1], rows[1])
	}
}
