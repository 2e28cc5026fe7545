package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/obs"
)

// TestRunTraced checks the per-step cardinality recording against
// the executor's own aggregate stats on both the nested-loop and the
// merge-intersection paths.
func TestRunTraced(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	d := core.NewDataset(randomTriples(rng, 600))
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	var seed core.Triple
	for _, c := range d.Triples {
		seed = c
		break
	}
	for _, qs := range []string{
		// Chain: pure nested-loop steps.
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%d> ?y . ?y <%d> ?z . }", seed.P, (seed.P+1)%5),
		// Star: a gallop group.
		fmt.Sprintf("SELECT ?x WHERE { ?x <%d> <%d> . ?x <%d> <%d> . }",
			seed.P, seed.O, (seed.P+1)%5, seed.O),
	} {
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("%q: %v", qs, err)
		}
		order := Plan(q)
		c, err := Compile(q, order)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.AcquireTrace()
		tr.EnableSteps(len(order))
		stats, err := Run(context.Background(), c, x, Options{Trace: tr}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Untraced execution is bit-identical.
		plain := execute(t, q, x, order, nil)
		if plain != stats {
			t.Errorf("%q: traced stats %+v != untraced %+v", qs, stats, plain)
		}
		steps := tr.Steps()
		if len(steps) != len(order) {
			t.Fatalf("%q: %d steps recorded, want %d", qs, len(steps), len(order))
		}
		var scanned, matched uint64
		patternsSeen := map[int]bool{}
		for i, st := range steps {
			scanned += st.Scanned
			matched += st.Matched
			if st.Matched > st.Scanned {
				t.Errorf("%q step %d: matched %d > scanned %d", qs, i, st.Matched, st.Scanned)
			}
			if st.Calls > 0 {
				patternsSeen[st.Pattern] = true
			}
		}
		if scanned == 0 {
			t.Errorf("%q: no candidates recorded", qs)
		}
		// On the nested path Scanned equals TriplesMatched exactly; the
		// gallop path records stream advances instead, which can only be
		// fewer than or equal to the candidates a nested scan would touch
		// but must still cover every agreed match.
		if matched < uint64(stats.Results) {
			t.Errorf("%q: %d matched below %d results", qs, matched, stats.Results)
		}
		if len(patternsSeen) == 0 || len(patternsSeen) > len(q.Patterns) {
			t.Errorf("%q: pattern indices %v out of range", qs, patternsSeen)
		}
		tr.Release()
	}
}

// TestRunTracedGallopFlag checks that a star join resolved by
// merge-intersection marks its steps Gallop with the scanned/matched
// gap visible, while a chain join does not.
func TestRunTracedGallopFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	d := core.NewDataset(randomTriples(rng, 600))
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Store(x).(core.VarSelecter); !ok {
		t.Fatal("Layout2Tp lost VarSelecter")
	}
	var seed core.Triple
	for _, c := range d.Triples {
		seed = c
		break
	}
	star, err := Parse(fmt.Sprintf("SELECT ?x WHERE { ?x <%d> <%d> . ?x <%d> <%d> . }",
		seed.P, seed.O, (seed.P+1)%5, seed.O))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.AcquireTrace()
	defer tr.Release()
	traced := func(q Query, tr *obs.Trace) {
		c, err := Compile(q, Plan(q))
		if err != nil {
			t.Fatal(err)
		}
		tr.EnableSteps(len(c.Order))
		if _, err := Run(context.Background(), c, x, Options{Trace: tr}, nil); err != nil {
			t.Fatal(err)
		}
	}
	traced(star, tr)
	for i, st := range tr.Steps() {
		if !st.Gallop {
			t.Errorf("star step %d not marked gallop: %+v", i, st)
		}
	}

	chain, err := Parse(fmt.Sprintf("SELECT ?x ?z WHERE { ?x <%d> ?y . ?y <%d> ?z . }",
		seed.P, (seed.P+1)%5))
	if err != nil {
		t.Fatal(err)
	}
	tr2 := obs.AcquireTrace()
	defer tr2.Release()
	traced(chain, tr2)
	for i, st := range tr2.Steps() {
		if st.Gallop {
			t.Errorf("chain step %d marked gallop: %+v", i, st)
		}
	}
}
