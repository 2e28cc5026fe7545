package sparql

import (
	"math/rand"
	"testing"

	"rdfindexes/internal/core"
)

func TestPlanWithStatsMatchesExecuteResults(t *testing.T) {
	rng := rand.New(rand.NewSource(281))
	ts := randomTriples(rng, 500)
	d := core.NewDataset(append([]core.Triple(nil), ts...))
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT ?x ?y WHERE { ?x <1> ?y . ?y <2> ?z . }",
		"SELECT ?x WHERE { ?x <0> <5> . ?x <1> ?y . }",
		"SELECT ?x ?z WHERE { ?x <3> ?y . ?y <4> ?z . }",
	}
	for _, qs := range queries {
		q, err := Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		defaultStats := execute(t, q, x, nil, nil)
		order := PlanWithStats(q, x)
		if len(order) != len(q.Patterns) {
			t.Fatalf("%q: stats plan has %d steps, want %d", qs, len(order), len(q.Patterns))
		}
		seen := map[int]bool{}
		for _, i := range order {
			if i < 0 || i >= len(q.Patterns) || seen[i] {
				t.Fatalf("%q: invalid plan %v", qs, order)
			}
			seen[i] = true
		}
		statsStats := execute(t, q, x, order, nil)
		if statsStats.Results != defaultStats.Results {
			t.Fatalf("%q: stats-planned execution found %d results, default %d",
				qs, statsStats.Results, defaultStats.Results)
		}
	}
}

func TestPlanWithStatsPrefersSelective(t *testing.T) {
	// Predicate 0 has one triple, predicate 1 has many: the stats planner
	// must start with the selective pattern even though both patterns
	// have the same shape.
	var ts []core.Triple
	ts = append(ts, core.Triple{S: 0, P: 0, O: 0})
	for i := 0; i < 200; i++ {
		ts = append(ts, core.Triple{S: core.ID(i % 20), P: 1, O: core.ID(i)})
	}
	d := core.NewDataset(ts)
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse("SELECT ?x WHERE { ?x <1> ?y . ?x <0> ?z . }")
	if err != nil {
		t.Fatal(err)
	}
	order := PlanWithStats(q, x)
	if order[0] != 1 {
		t.Fatalf("stats plan %v does not start with the selective pattern", order)
	}
}
