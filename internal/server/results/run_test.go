package results

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/store"
)

// joinStore builds a dictionary store whose predicate 0 holds small
// triples and predicate 1 holds large ones, over the same subjects, so
// one query shape runs at two row counts.
func joinStore(t testing.TB, small, large int) *store.Store {
	t.Helper()
	var ts []core.Triple
	for i := 0; i < large; i++ {
		if i < small {
			ts = append(ts, core.Triple{S: core.ID(i), P: 0, O: core.ID(i + 1)})
		}
		ts = append(ts, core.Triple{S: core.ID(i), P: 1, O: core.ID(i + 1)})
	}
	x, err := core.Build(core.NewDataset(ts), core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	terms := make([]string, large+1)
	for i := range terms {
		terms[i] = fmt.Sprintf("<http://ex/e/%06d>", i)
	}
	so, err := dict.New(terms, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dict.New([]string{"<http://ex/p/a>", "<http://ex/p/b>"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return &store.Store{Index: x, Dicts: &rdf.Dicts{SO: so, P: p}}
}

func mustCompile(t testing.TB, qs string) *sparql.Compiled {
	t.Helper()
	q, err := sparql.Parse(qs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sparql.Compile(q, sparql.Plan(q))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunToWriteRowAllocs pins the row path from the executor into every
// serializer — the four protocol formats, each fed block by block as the server feeds them and row by row — at a constant
// number of allocations per query: the same scan-and-join shape at 100
// and at 2000 rows costs the same, so a row costs none.
func TestRunToWriteRowAllocs(t *testing.T) {
	st := joinStore(t, 100, 2000)
	plans := [2]*sparql.Compiled{
		mustCompile(t, "SELECT ?s ?p ?o WHERE { ?s <0> ?o . ?s ?p ?o . }"),
		mustCompile(t, "SELECT ?s ?p ?o WHERE { ?s <1> ?o . ?s ?p ?o . }"),
	}
	// Each sink is one pooled writer held for the whole measurement, so
	// what is counted is Run and WriteRow, not the pool's hit rate.
	type sink struct {
		name  string
		rows  sparql.Sink
		flush func() error
	}
	blocks := func(write func([]core.ID, int)) sparql.Sink {
		return func(b sparql.Block) { write(b.IDs, b.Rows) }
	}
	vars, roles := plans[0].Vars, plans[0].Roles
	var sinks []sink
	for _, mode := range []string{"block", "row"} {
		for _, f := range Formats() {
			wr := Acquire(f, st, io.Discard)
			defer wr.Release()
			wr.Begin(vars, roles...)
			rows := blocks(wr.WriteBlock)
			if mode == "row" {
				rows = sparql.EachRow(wr.WriteRow)
			}
			sinks = append(sinks, sink{f.String() + "/" + mode, rows, wr.Flush})
		}
	}
	for _, sk := range sinks {
		var allocs [2]float64
		var rows [2]int
		for k, c := range plans {
			query := func() {
				stats, err := sparql.Run(context.Background(), c, st.Index, sparql.Options{}, sk.rows)
				if err != nil {
					t.Fatal(err)
				}
				rows[k] = stats.Results
				if err := sk.flush(); err != nil {
					t.Fatal(err)
				}
			}
			query() // fill the term cache and grow the buffers
			allocs[k] = testing.AllocsPerRun(20, query)
		}
		if rows != [2]int{200, 2100} {
			t.Fatalf("%s: %v rows, want [200 2100]", sk.name, rows)
		}
		// The race detector makes sync.Pool drop what it is given, the
		// run's query context among it, so only the rows are checked there.
		if allocs[0] != allocs[1] && !raceEnabled {
			t.Errorf("%s: %v allocs/query at %d rows, %v at %d: the row path allocates",
				sk.name, allocs[0], rows[0], allocs[1], rows[1])
		}
	}
}

// TestAdaptersMatchSlotPath runs queries through the three adapters kept
// for benchmark/ladder/layers.go — sparql.StreamWithOrder handing
// sparql.Bindings to Writer.WriteSolution — and requires the bytes of
// Compile, Run and WriteRow, in every format.
func TestAdaptersMatchSlotPath(t *testing.T) {
	st := joinStore(t, 50, 300)
	for _, qs := range []string{
		"SELECT ?s ?o WHERE { ?s <1> ?o . }",
		"SELECT ?o ?s WHERE { ?s <0> ?o . ?s <1> ?o . }",
		"SELECT ?a ?c WHERE { ?a <0> ?b . ?b <1> ?c . }",
	} {
		q, err := sparql.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		c := mustCompile(t, qs)
		for _, f := range Formats() {
			var slot, adapted bytes.Buffer
			wr := Acquire(f, st, &slot)
			wr.Begin(c.Vars, c.Roles...)
			if _, err := sparql.Run(context.Background(), c, st.Index, sparql.Options{}, sparql.EachRow(wr.WriteRow)); err != nil {
				t.Fatal(err)
			}
			wr.End()
			wr.Flush()
			wr.Release()

			wr = Acquire(f, st, &adapted)
			wr.Begin(q.Vars)
			if _, err := sparql.StreamWithOrder(nil, q, st.Index, c.Order, func(b sparql.Bindings) {
				wr.WriteSolution(b)
			}); err != nil {
				t.Fatal(err)
			}
			wr.End()
			wr.Flush()
			wr.Release()
			if slot.Len() == 0 || !bytes.Equal(slot.Bytes(), adapted.Bytes()) {
				t.Errorf("%s as %v: adapters wrote\n%s\nslot path wrote\n%s", qs, f, adapted.Bytes(), slot.Bytes())
			}
		}
	}
}
