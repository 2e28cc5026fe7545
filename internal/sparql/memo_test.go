package sparql

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rdfindexes/internal/core"
)

// nestedRef evaluates q's patterns in the given order with plain nested
// loops — one Select per binding of the steps above, bindings in a map,
// no memo, no batches — and returns the projected rows in emission order.
func nestedRef(q Query, order []int, st Store) [][]core.ID {
	var rows [][]core.ID
	b := map[string]core.ID{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(order) {
			row := make([]core.ID, len(q.Vars))
			for k, v := range q.Vars {
				row[k] = b[v]
			}
			rows = append(rows, row)
			return
		}
		tp := q.Patterns[order[i]]
		terms := [3]Term{tp.S, tp.P, tp.O}
		var c [3]core.ID
		for k, t := range terms {
			c[k] = t.ID
			if t.IsVar() {
				c[k] = core.Wildcard
				if id, ok := b[t.Var]; ok {
					c[k] = id
				}
			}
		}
		it := st.Select(core.Pattern{S: c[0], P: c[1], O: c[2]})
		for {
			t, ok := it.Next()
			if !ok {
				return
			}
			var bound []string
			consistent := true
			for k, id := range [3]core.ID{t.S, t.P, t.O} {
				if v := terms[k].Var; v != "" {
					if prev, ok := b[v]; !ok {
						b[v] = id
						bound = append(bound, v)
					} else if prev != id {
						consistent = false
					}
				}
			}
			if consistent {
				rec(i + 1)
			}
			for _, v := range bound {
				delete(b, v)
			}
		}
	}
	rec(0)
	return rows
}

// scalarStore hands out the index's matches through per-triple
// iterators, the protocol of stores outside package core.
type scalarStore struct{ x core.Index }

func (s scalarStore) Select(p core.Pattern) *core.Iterator {
	return core.NewIterator(s.x.Select(p).Next)
}
func (s scalarStore) NumTriples() int { return s.x.NumTriples() }

// TestMemoPressure runs star and path joins whose inner selections
// repeat under every way the memo can decline to keep one: more distinct
// inner patterns than slots, inner results longer than an entry may hold,
// and more triples to keep than the arena takes. Result set and emission
// order must equal a nested-loop reference on the index, which the run
// selects from through the index's pooled states, through scalar
// iterators, and from concurrent Runs sharing one index and one plan.
func TestMemoPressure(t *testing.T) {
	// Predicate 0: each of nx subjects has two objects among 12 hubs, so
	// the POS-ordered first arm meets every subject twice, far apart.
	// Predicate 1: a subject's own objects, 1-4 of them, and stepBatch+5
	// for every 97th subject. Predicate 2: each hub has 3 objects.
	// Predicate 3: every third subject repeats its first hub, so the check
	// ?x <3> ?a substitutes the same subject with each of its hubs.
	const nx, hubs = 2*memoSlots + 500, 12
	var ts []core.Triple
	kept := 0 // triples of inner results short enough to memoize
	for x := core.ID(0); x < nx; x++ {
		ts = append(ts, core.Triple{S: x, P: 0, O: nx + x%7}, core.Triple{S: x, P: 0, O: nx + 7 + x%5})
		n := int(x%4) + 1
		if x%97 == 0 {
			n = stepBatch + 5
		} else {
			kept += n
		}
		for k := 0; k < n; k++ {
			ts = append(ts, core.Triple{S: x, P: 1, O: 2*nx + core.ID(k)})
		}
		if x%3 == 0 {
			ts = append(ts, core.Triple{S: x, P: 3, O: nx + x%7})
		}
	}
	for h := core.ID(0); h < hubs; h++ {
		for k := core.ID(0); k < 3; k++ {
			ts = append(ts, core.Triple{S: nx + h, P: 2, O: 3*nx + k})
		}
	}
	if kept <= memoArena {
		t.Fatalf("fixture keeps %d inner triples; the arena (%d) would not overflow", kept, memoArena)
	}
	d := core.NewDataset(ts)
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}

	var plans []*Compiled
	var refs [][][]core.ID
	for _, qs := range []string{
		"SELECT ?x ?a ?b WHERE { ?x <0> ?a . ?x <1> ?b . }",
		"SELECT ?x ?a ?z WHERE { ?x <0> ?a . ?a <2> ?z . }",
		"SELECT ?x ?b ?z WHERE { ?x <0> ?a . ?x <1> ?b . ?a <2> ?z . }",
		"SELECT ?x ?a ?z WHERE { ?x <0> ?a . ?x <3> ?a . ?a <2> ?z . }",
	} {
		c := compile(t, qs)
		q, _ := Parse(qs)
		if c.Order[0] != 0 {
			t.Fatalf("%s: plan %v does not start with the multi-valued arm", qs, c.Order)
		}
		ref := nestedRef(q, c.Order, x)
		plans, refs = append(plans, c), append(refs, ref)

		for name, st := range map[string]Store{"index": x, "scalar": scalarStore{x}} {
			var rows [][]core.ID
			stats, err := Run(context.Background(), c, st, Options{}, EachRow(func(row []core.ID) {
				rows = append(rows, slices.Clone(row))
			}))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows, ref) {
				t.Fatalf("%s on %s: %d rows differ from the nested-loop reference's %d", qs, name, len(rows), len(ref))
			}
			if stats.Replayed == 0 {
				t.Errorf("%s on %s: no selection replayed: %+v", qs, name, stats)
			}
		}
	}

	// Every subject's inner pattern repeats once, but the slots, the entry
	// cap and the arena keep only some: the memo replays fewer selections
	// than repeat.
	c := plans[0]
	stats, err := Run(context.Background(), c, x, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repeats := stats.PatternsIssued - 1 - nx; stats.Replayed >= repeats {
		t.Errorf("replayed %d of %d repeated inner selections: no pressure reached the memo", stats.Replayed, repeats)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				k := (g + round) % len(plans)
				var rows [][]core.ID
				if _, err := Run(context.Background(), plans[k], x, Options{}, EachRow(func(row []core.ID) {
					rows = append(rows, slices.Clone(row))
				})); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(rows, refs[k]) {
					t.Errorf("goroutine %d, plan %d: rows differ from the reference", g, k)
				}
			}
		}(g)
	}
	wg.Wait()
}
