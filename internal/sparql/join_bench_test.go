package sparql_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/server/results"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/store"
)

// joinFixture is a dbpedia-shaped store with rendered terms and a set of
// star and path BGPs shaped like the socket benchmark's join-stream
// workload: two to four bound-predicate patterns grown around a random
// subject, the first arm open or anchored on an object, answering 100 to
// 3162 rows. Subject and object IDs share one entity space, so paths join
// through objects that are subjects too.
type joinFixture struct {
	st    *store.Store
	plans []*sparql.Compiled
}

func newJoinFixture(tb testing.TB, triples, queries int, seed int64) *joinFixture {
	tb.Helper()
	d, err := gen.GeneratePreset("dbpedia", triples, seed)
	if err != nil {
		tb.Fatal(err)
	}
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		tb.Fatal(err)
	}
	so, p := renderTerms(max(d.NS, d.NO), d.NS, seed), renderPredicates(d.NP)
	sod, err := dict.New(so, dict.DefaultBucketSize)
	if err != nil {
		tb.Fatal(err)
	}
	pd, err := dict.New(p, dict.DefaultBucketSize)
	if err != nil {
		tb.Fatal(err)
	}
	f := &joinFixture{st: &store.Store{Index: x, Dicts: &rdf.Dicts{SO: sod, P: pd}}}

	bySubject := map[core.ID][]core.Triple{}
	for _, t := range d.Triples {
		bySubject[t.S] = append(bySubject[t.S], t)
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	for tries := 0; len(f.plans) < queries && tries < 200*queries; tries++ {
		q, ok := joinQuery(rng, d, bySubject)
		if !ok || seen[q.String()] {
			continue
		}
		seen[q.String()] = true
		c, err := sparql.Compile(q, sparql.Plan(q))
		if err != nil {
			tb.Fatal(err)
		}
		stats, err := sparql.Run(context.Background(), c, x, sparql.Options{}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if stats.Results >= 100 && stats.Results < 3162 && stats.TriplesMatched <= 3*stats.Results {
			f.plans = append(f.plans, c)
		}
	}
	if len(f.plans) < queries {
		tb.Fatalf("found %d join queries, want %d", len(f.plans), queries)
	}
	return f
}

// joinQuery grows one BGP around a random triple's subject.
func joinQuery(rng *rand.Rand, d *core.Dataset, bySubject map[core.ID][]core.Triple) (sparql.Query, bool) {
	t := d.Triples[rng.Intn(len(d.Triples))]
	x, vars := sparql.V("x"), []string{"x"}
	fresh := func() sparql.Term {
		vars = append(vars, string(rune('a'+len(vars)-1)))
		return sparql.V(vars[len(vars)-1])
	}
	var pats []sparql.TriplePattern
	if rng.Intn(2) == 0 {
		pats = append(pats, sparql.TriplePattern{S: x, P: sparql.C(t.P), O: sparql.C(t.O)})
	} else {
		pats = append(pats, sparql.TriplePattern{S: x, P: sparql.C(t.P), O: fresh()})
	}
	used := map[core.ID]bool{t.P: true}
	own := bySubject[t.S]
	size := 2 + rng.Intn(3)
	for _, i := range rng.Perm(len(own)) {
		u := own[i]
		if len(pats) >= size {
			break
		}
		if used[u.P] {
			continue
		}
		used[u.P] = true
		if next := bySubject[u.O]; len(next) > 0 && rng.Intn(3) == 0 && len(pats)+2 <= size {
			y := fresh()
			v := next[rng.Intn(len(next))]
			pats = append(pats, sparql.TriplePattern{S: x, P: sparql.C(u.P), O: y},
				sparql.TriplePattern{S: y, P: sparql.C(v.P), O: fresh()})
			continue
		}
		pats = append(pats, sparql.TriplePattern{S: x, P: sparql.C(u.P), O: fresh()})
	}
	return sparql.Query{Vars: vars, Patterns: pats}, len(pats) >= 2
}

// renderTerms returns n distinct subject/object terms in sorted order,
// rendered like the socket benchmark's vocabulary: entity IRIs under four
// namespaces of realistic length, and a third of the object-only IDs as
// literals of the kinds a serializer tells apart.
func renderTerms(n, subjects int, seed int64) []string {
	ns := []string{"http://dbpedia.org/resource/", "http://www.wikidata.org/entity/",
		"http://data.example.org/catalog/item/", "http://purl.org/dc/terms/subject/"}
	rng := rand.New(rand.NewSource(seed))
	terms := make([]string, n)
	for k := range terms {
		switch h := rng.Intn(24); {
		case k < subjects || h >= 8:
			terms[k] = fmt.Sprintf("<%sE%d>", ns[h%4], k)
		case h < 4:
			terms[k] = fmt.Sprintf(`"Label of catalogue item %d"`, k)
		case h < 6:
			terms[k] = fmt.Sprintf(`"Étiquette numéro %d"@fr`, k)
		default:
			terms[k] = fmt.Sprintf(`"%d"^^<http://www.w3.org/2001/XMLSchema#integer>`, k)
		}
	}
	sort.Strings(terms)
	return terms
}

func renderPredicates(n int) []string {
	p := make([]string, n)
	for k := range p {
		p[k] = fmt.Sprintf("<http://dbpedia.org/ontology/p%d>", k)
	}
	sort.Strings(p)
	return p
}

// BenchmarkJoinRepeat prices join-stream-shaped queries, one query per
// op in a fixed cycle, at three depths of the serving path: exec runs the
// plan with no sink, exec+json renders the answer block by block through
// the pooled SPARQL JSON writer, and extract decodes each answer's distinct
// subject/object terms through a dictionary cursor in first-seen order
// (what the writer's term table asks the dictionary for).
func BenchmarkJoinRepeat(b *testing.B) {
	f := newJoinFixture(b, 100000, 64, 3)
	src := f.st.Index
	ctx := context.Background()

	b.Run("exec", func(b *testing.B) {
		var issued, replayed int
		for i := 0; i < b.N; i++ {
			stats, err := sparql.Run(ctx, f.plans[i%len(f.plans)], src, sparql.Options{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			issued += stats.PatternsIssued
			replayed += stats.Replayed
		}
		b.ReportMetric(float64(issued)/float64(b.N), "selections/op")
		b.ReportMetric(float64(issued-replayed)/float64(b.N), "distinct/op")
	})
	b.Run("exec+json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := f.plans[i%len(f.plans)]
			wr := results.Acquire(results.JSON, f.st, io.Discard)
			wr.Begin(c.Vars, c.Roles...)
			if _, err := sparql.Run(ctx, c, src, sparql.Options{}, func(b sparql.Block) { wr.WriteBlock(b.IDs, b.Rows) }); err != nil {
				b.Fatal(err)
			}
			wr.End()
			if err := wr.Flush(); err != nil {
				b.Fatal(err)
			}
			wr.Release()
		}
	})
	b.Run("extract", func(b *testing.B) {
		ids := make([][]int, len(f.plans))
		terms := 0
		for i, c := range f.plans {
			seen := map[core.ID]bool{}
			if _, err := sparql.Run(ctx, c, src, sparql.Options{}, sparql.EachRow(func(row []core.ID) {
				for _, id := range row {
					if !seen[id] {
						seen[id] = true
						ids[i] = append(ids[i], int(id))
					}
				}
			})); err != nil {
				b.Fatal(err)
			}
			terms += len(ids[i])
		}
		e := dict.NewExtractor(f.st.Dicts.SO)
		sink := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, id := range ids[i%len(ids)] {
				t, _ := e.Extract(id)
				sink += len(t)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)*float64(len(ids))/float64(terms), "ns/term")
		_ = sink
	})
}

// BenchmarkPlanCompile times what a served query pays to plan and compile
// itself, Compile(q, Plan(q)), on the shapes the socket benchmark sends:
// a point lookup, a two-pattern star, a three-pattern path and a
// four-pattern star.
func BenchmarkPlanCompile(b *testing.B) {
	for _, c := range []struct{ name, query string }{
		{"point", "SELECT ?o WHERE { <12> <3> ?o . }"},
		{"star2", "SELECT ?x ?a WHERE { ?x <3> ?a . ?x <5> <40> . }"},
		{"path3", "SELECT ?x ?z WHERE { ?x <3> ?y . ?y <5> ?z . ?z <7> <40> . }"},
		{"star4", "SELECT ?x ?a ?b WHERE { ?x <3> ?a . ?x <5> ?b . ?x <7> <40> . ?x <9> <41> . }"},
	} {
		q, err := sparql.Parse(c.query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sparql.Compile(q, sparql.Plan(q)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
