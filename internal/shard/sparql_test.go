package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/obs"
	"rdfindexes/internal/sparql"
)

// execAll runs a query and returns its solutions rendered to sorted
// strings (BGP solution order is an executor detail, not part of the
// sharding contract; the set must match).
func execAll(t *testing.T, q sparql.Query, st sparql.Store) []string {
	t.Helper()
	c, err := sparql.Compile(q, sparql.Plan(q))
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	if _, err := sparql.Run(context.Background(), c, st, sparql.Options{}, func(row []core.ID) {
		rows = append(rows, fmt.Sprint(row))
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

// TestSparqlOverShardedStore runs BGP queries through the executor over
// sharded stores and checks the solution sets against the single index.
// The sharded store satisfies sparql.Store via core.Index, so this is
// the end-to-end wiring the server uses.
func TestSparqlOverShardedStore(t *testing.T) {
	d := randDataset(t, 900, 19)
	queries := []string{
		"SELECT ?x ?y WHERE { ?x <1> ?y . }",
		"SELECT ?x ?y ?z WHERE { ?x <1> ?y . ?y <2> ?z . }",
		"SELECT ?x WHERE { ?x <0> ?y . ?x <3> ?z . }",
		"SELECT ?x ?y WHERE { ?x ?p <5> . ?x <2> ?y . }",
	}
	for _, layout := range []core.Layout{core.Layout3T, core.Layout2Tp} {
		single, err := core.Build(d, layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4} {
			sh, err := BuildSharded(d, layout, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, qs := range queries {
				q, err := sparql.Parse(qs)
				if err != nil {
					t.Fatal(err)
				}
				want := execAll(t, q, single)
				got := execAll(t, q, sh)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%d shards, %s: %d solutions, want %d\n got %v\nwant %v",
						layout, n, qs, len(got), len(want), got, want)
				}
			}
		}
	}
}

// TestSparqlShardedCancellation pins that context cancellation
// propagates through scatter-gather iteration.
func TestSparqlShardedCancellation(t *testing.T) {
	d := randDataset(t, 1500, 31)
	sh, err := BuildSharded(d, core.Layout2Tp, 4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sparql.Parse("SELECT ?x ?y ?z WHERE { ?x ?p ?y . ?y ?q ?z . }")
	if err != nil {
		t.Fatal(err)
	}
	c, err := sparql.Compile(q, sparql.Plan(q))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sparql.Run(ctx, c, sh, sparql.Options{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execution returned %v, want context.Canceled", err)
	}
}

// TestSparqlTracedOverShardedStore pins that a traced run of a
// nested-loop plan over a scatter-gather store reports the same ExecStats
// and per-step cardinalities as over the single index: the shards change
// where the triples come from, not what the plan examines. (A sharded
// store serves no sorted streams, so star joins run nested there and
// their counts differ from a galloping single index by design.)
func TestSparqlTracedOverShardedStore(t *testing.T) {
	d := randDataset(t, 900, 23)
	single, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildSharded(d, core.Layout2Tp, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{
		"SELECT ?x ?y WHERE { ?x <1> ?y . }",
		"SELECT ?x ?y ?z WHERE { ?x <1> ?y . ?y <2> ?z . }",
		"SELECT ?x ?y WHERE { ?x ?p <5> . ?x <2> ?y . }",
	} {
		q, err := sparql.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sparql.Compile(q, sparql.Plan(q))
		if err != nil {
			t.Fatal(err)
		}
		traced := func(st sparql.Store) (sparql.ExecStats, []obs.PatternStat) {
			tr := obs.AcquireTrace()
			defer tr.Release()
			tr.EnableSteps(len(c.Order))
			stats, err := sparql.Run(context.Background(), c, st, sparql.Options{Trace: tr}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return stats, append([]obs.PatternStat(nil), tr.Steps()...)
		}
		wantStats, wantSteps := traced(single)
		gotStats, gotSteps := traced(sh)
		if gotStats != wantStats || !reflect.DeepEqual(gotSteps, wantSteps) {
			t.Fatalf("%s: sharded run %+v %+v, single index %+v %+v", qs, gotStats, gotSteps, wantStats, wantSteps)
		}
	}
}
