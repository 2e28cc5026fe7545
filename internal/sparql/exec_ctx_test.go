package sparql

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"rdfindexes/internal/core"
)

// compile is Compile under Plan's order.
func compile(t testing.TB, qs string) *Compiled {
	t.Helper()
	q, err := Parse(qs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, Plan(q))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunCancellation runs a cross-product-heavy query under an
// already-cancelled context and expects a prompt abort with the
// context's error, with at most one step batch of extra work.
func TestRunCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	st := sliceStore(randomTriples(rng, 1200))
	// Two unrelated pattern pairs force a large intermediate product.
	c := compile(t, "SELECT ?a ?b WHERE { ?a <1> ?x . ?b <2> ?y . }")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := Run(ctx, c, st, Options{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execution returned %v, want context.Canceled", err)
	}
	// The context is polled once per step batch; a run that examined
	// several batches past cancellation would mean the poll is not wired
	// into the hot loop.
	if stats.TriplesMatched > 2*stepBatch {
		t.Fatalf("cancelled execution still matched %d triples (> 2 batches)", stats.TriplesMatched)
	}
	full, err := Run(context.Background(), c, st, Options{}, nil)
	if err != nil || full.TriplesMatched <= 2*stepBatch {
		t.Fatalf("uncancelled run: %+v, %v; the query is too small to show an early abort", full, err)
	}
}

// TestRunCancellationGallop cancels inside the merge-intersection path:
// patterns sharing their single free variable gallop, and the poll must
// fire there too.
func TestRunCancellationGallop(t *testing.T) {
	// Two predicates over the same 3000 subjects and one object: the
	// intersection agrees 3000 times, well past one batch of rounds.
	var ts []core.Triple
	for s := 0; s < 3000; s++ {
		ts = append(ts, core.Triple{S: core.ID(s), P: 0, O: 0}, core.Triple{S: core.ID(s), P: 1, O: 0})
	}
	x, err := core.Build(core.NewDataset(ts), core.Layout3T)
	if err != nil {
		t.Fatal(err)
	}
	c := compile(t, "SELECT ?x WHERE { ?x <0> <0> . ?x <1> <0> . }")
	if c.steps[0].gallop != 2 {
		t.Fatalf("star query compiled without a gallop group: %+v", c.steps)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := Run(ctx, c, x, Options{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled gallop returned %v, want context.Canceled", err)
	}
	if stats.Results > stepBatch {
		t.Fatalf("cancelled gallop still produced %d results (> 1 batch)", stats.Results)
	}
	if full, err := Run(context.Background(), c, x, Options{}, nil); err != nil || full.Results != 3000 {
		t.Fatalf("uncancelled gallop: %+v, %v", full, err)
	}
}

// TestRunReusesRow pins the emit contract: one row buffer for the whole
// run, holding exactly the projected columns in Query.Vars order.
func TestRunReusesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ts := randomTriples(rng, 600)
	st := sliceStore(ts)
	c := compile(t, "SELECT ?z ?x WHERE { ?x <1> ?y . ?y <1> ?z . }")
	var first *core.ID
	rows := 0
	stats, err := Run(context.Background(), c, st, Options{}, EachRow(func(row []core.ID) {
		if len(row) != 2 {
			t.Fatalf("row %v, want 2 columns", row)
		}
		if first == nil {
			first = &row[0] //rdf:allow(test asserts the executor reuses one row; keeping its address is the point)
		} else if first != &row[0] {
			t.Fatal("Run allocated a fresh row")
		}
		// ?x <1> ?y . ?y <1> ?z must hold for the projected (z, x).
		ok := false
		for _, a := range ts {
			for _, b := range ts {
				ok = ok || a.P == 1 && b.P == 1 && a.S == row[1] && a.O == b.S && b.O == row[0]
			}
		}
		if !ok {
			t.Fatalf("row (z=%d, x=%d) is not a solution", row[0], row[1])
		}
		rows++
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rows == 0 || rows != stats.Results {
		t.Fatalf("emitted %d rows, stats say %d", rows, stats.Results)
	}
}

// TestCompileRejects covers the two compile-time errors: a variable in
// both a predicate and a subject/object position, and an order that is
// not a permutation.
func TestCompileRejects(t *testing.T) {
	for _, qs := range []string{
		"SELECT ?x WHERE { ?x ?x <1> . }",
		"SELECT ?x WHERE { <1> ?x ?y . ?y <2> ?x . }",
		"SELECT ?p WHERE { ?s ?p <1> . ?p <2> ?o . }",
	} {
		q, err := Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(q, Plan(q)); err == nil {
			t.Errorf("Compile accepted mixed-role %q", qs)
		}
	}
	q, err := Parse("SELECT ?x ?p WHERE { ?x ?p <1> . ?x <2> ?y . }")
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{{0}, {0, 0}, {0, 2}, {0, 1, 1}, {-1, 0}} {
		if _, err := Compile(q, order); err == nil {
			t.Errorf("Compile accepted order %v", order)
		}
	}
	c, err := Compile(q, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Roles) != 2 || c.Roles[0] != core.RoleSO || c.Roles[1] != core.RoleP {
		t.Fatalf("Roles = %v, want [SO P]", c.Roles)
	}
}
