// Benchmarks for the block-decoded iteration pipeline: raw selection
// throughput per layout and pattern shape (BenchmarkSelect) and SPARQL
// star-join throughput (BenchmarkJoin). `go test -bench 'Select|Join'`
// tracks the ns/triple trajectory across PRs; cmd/rdfbench -json emits
// the same metrics machine-readably.
package rdfindexes

import (
	"context"
	"fmt"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/sparql"
)

// BenchmarkSelect measures pattern selection throughput (ns/triple) on
// the paper's layouts, including the full ??? scan that Table 4 skips.
func BenchmarkSelect(b *testing.B) {
	fixture(b)
	shapes := []core.Shape{core.ShapeSPx, core.ShapeSxO, core.ShapeSxx,
		core.ShapexPO, core.ShapexPx, core.ShapexxO, core.Shapexxx}
	for _, name := range []string{"3T", "2Tp"} {
		x := fx.layouts[name]
		for _, shape := range shapes {
			pats := gen.PatternWorkload(fx.sample, shape)
			if shape == core.Shapexxx {
				pats = []core.Pattern{core.NewPattern(-1, -1, -1)}
			}
			b.Run(name+"/"+shape.String(), func(b *testing.B) {
				drain(b, x, pats)
			})
		}
	}
}

// starQueries builds star-shaped BGPs (2 and 3 patterns sharing the
// subject variable) from subjects of the fixture dataset, the join shape
// that profits from sorted merge-intersection.
func starQueries(d *core.Dataset, arms, n int) []sparql.Query {
	bySubject := map[core.ID][]core.Triple{}
	for _, t := range d.Triples {
		bySubject[t.S] = append(bySubject[t.S], t)
	}
	var out []sparql.Query
	for s := core.ID(0); int(s) < d.NS && len(out) < n; s++ {
		ts := bySubject[s]
		if len(ts) < arms {
			continue
		}
		q := "SELECT ?x WHERE {"
		used := map[core.ID]bool{}
		got := 0
		for _, t := range ts {
			if used[t.P] {
				continue
			}
			used[t.P] = true
			q += fmt.Sprintf(" ?x <%d> <%d> .", t.P, t.O)
			got++
			if got == arms {
				break
			}
		}
		if got < arms {
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

// BenchmarkJoin measures SPARQL BGP execution: subject-star joins over
// the DBpedia-shaped fixture and the LUBM query mix (stars and chains).
func BenchmarkJoin(b *testing.B) {
	fixture(b)
	lubmIdx, err := core.Build(fx.lubm.Dataset, core.Layout2Tp)
	if err != nil {
		b.Fatal(err)
	}
	lubmQs := gen.LUBMQueries(fx.lubm, 12, 6)
	for _, tc := range []struct {
		name    string
		store   sparql.Store
		queries []sparql.Query
	}{
		{"star2/3T", fx.layouts["3T"].(sparql.Store), starQueries(fx.d, 2, 200)},
		{"star2/2Tp", fx.layouts["2Tp"].(sparql.Store), starQueries(fx.d, 2, 200)},
		{"star3/2Tp", fx.layouts["2Tp"].(sparql.Store), starQueries(fx.d, 3, 200)},
		{"lubm/2Tp", lubmIdx, lubmQs},
	} {
		if len(tc.queries) == 0 {
			b.Fatalf("%s: no queries generated", tc.name)
		}
		plans := make([]*sparql.Compiled, len(tc.queries))
		for i, q := range tc.queries {
			var err error
			if plans[i], err = sparql.Compile(q, sparql.Plan(q)); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(tc.name, func(b *testing.B) {
			results := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := sparql.Run(context.Background(), plans[i%len(plans)], tc.store, sparql.Options{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				results += stats.Results
			}
			b.ReportMetric(float64(results)/float64(b.N), "results/op")
		})
	}
}
