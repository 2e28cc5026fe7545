package sparql

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rdfindexes/internal/core"
)

func TestParseBasic(t *testing.T) {
	q, err := Parse("SELECT ?x ?y WHERE { ?x <3> ?y . ?y <5> <120> . }")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Vars, []string{"x", "y"}) {
		t.Fatalf("Vars = %v", q.Vars)
	}
	if len(q.Patterns) != 2 {
		t.Fatalf("got %d patterns", len(q.Patterns))
	}
	want0 := TriplePattern{V("x"), C(3), V("y")}
	if q.Patterns[0] != want0 {
		t.Fatalf("pattern 0 = %v", q.Patterns[0])
	}
	want1 := TriplePattern{V("y"), C(5), C(120)}
	if q.Patterns[1] != want1 {
		t.Fatalf("pattern 1 = %v", q.Patterns[1])
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	q, err := Parse("SELECT ?a WHERE { ?a <0> <7> . <4> <1> ?a . }")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", q.String(), err)
	}
	if !reflect.DeepEqual(q, q2) {
		t.Fatalf("round trip mismatch: %v vs %v", q, q2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT WHERE { ?x <1> ?y . }",      // no projection
		"SELECT ?x WHERE { }",               // empty BGP
		"SELECT ?x WHERE { ?x <1> ?y }",     // missing dot
		"SELECT ?z WHERE { ?x <1> ?y . }",   // unbound projection
		"SELECT ?x WHERE { ?x <abc> ?y . }", // non-numeric constant
		"SELECT ?x WHERE { ?x <1 ?y . }",    // unterminated IRI
		"SELECT ?x { ?x <1> ?y . }",         // missing WHERE
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse accepted %q", s)
		}
	}
}

// TestParseWith covers the RDF-term spellings a Resolver receives: IRIs
// and literals whose dots are not separators, language and datatype
// suffixes, escaped quotes, blank nodes, <id> constants passed through,
// the predicate flag and the optional dot after the last pattern.
func TestParseWith(t *testing.T) {
	type call struct {
		term string
		pred bool
	}
	var calls []call
	ids := map[string]core.ID{}
	resolve := func(term string, pred bool) (core.ID, error) {
		calls = append(calls, call{term, pred})
		id, ok := ids[term]
		if !ok {
			id = core.ID(100 + len(ids))
			ids[term] = id
		}
		return id, nil
	}
	for _, c := range []struct {
		query string
		want  string // the parsed query's String form
		calls []call
	}{
		{"SELECT ?x WHERE { ?x <http://a.org/p.1> <http://a.org/o.2> . }",
			"SELECT ?x WHERE { ?x <100> <101> . }",
			[]call{{"<http://a.org/p.1>", true}, {"<http://a.org/o.2>", false}}},
		{`select ?x where { ?x <7> "v1.0". ?x <http://a.org/p.1> "say \"hi\"."@en-GB }`,
			"SELECT ?x WHERE { ?x <7> <102> . ?x <100> <103> . }",
			[]call{{`"v1.0"`, false}, {"<http://a.org/p.1>", true}, {`"say \"hi\"."@en-GB`, false}}},
		{`SELECT ?x WHERE { _:b1 <8> ?x . ?x <8> "2.5"^^<http://www.w3.org/2001/XMLSchema#decimal> . }`,
			"SELECT ?x WHERE { <104> <8> ?x . ?x <8> <105> . }",
			[]call{{"_:b1", false}, {`"2.5"^^<http://www.w3.org/2001/XMLSchema#decimal>`, false}}},
		{"SELECT ?x WHERE {?x <1> <2>}",
			"SELECT ?x WHERE { ?x <1> <2> . }", nil},
	} {
		calls = nil
		q, err := ParseWith(c.query, resolve)
		if err != nil {
			t.Errorf("ParseWith(%q): %v", c.query, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("ParseWith(%q) = %q, want %q", c.query, got, c.want)
		}
		if !reflect.DeepEqual(calls, c.calls) {
			t.Errorf("ParseWith(%q) resolved %v, want %v", c.query, calls, c.calls)
		}
	}

	for _, bad := range []string{
		"SELECT ?x WHERE { ?x <http://a.org/p> . }",        // two terms
		"SELECT ?x WHERE { ?x <http://a.org/p> ?y ?z . }",  // four terms
		"SELECT ?x WHERE { ?x <http://unterminated }",      // unterminated IRI
		`SELECT ?x WHERE { ?x <http://a.org/p> "open . }`,  // unterminated literal
		`SELECT ?x WHERE { ?x <1> "x"^^<http://open . }`,   // unterminated datatype
		"SELECT ?x WHERE { ?x <99999999999> ?y . }",        // ID overflows
		"SELECT ?x WHERE { ?x <1> ?y . ?x <2> ?z",          // no closing brace
		"SELECT ?x <http://a.org/h> WHERE { ?x <1> ?y . }", // term outside the BGP
		"no braces",
	} {
		if _, err := ParseWith(bad, resolve); err == nil {
			t.Errorf("ParseWith accepted %q", bad)
		}
	}

	// The resolver's error is the parse error, and the integer syntax
	// keeps its required final dot.
	missing := errors.New("term not in dictionary")
	if _, err := ParseWith("SELECT ?x WHERE { ?x <http://a.org/p> ?y . }",
		func(string, bool) (core.ID, error) { return 0, missing }); err != missing {
		t.Errorf("resolver error came back as %v", err)
	}
	if _, err := Parse("SELECT ?x WHERE { ?x <1> ?y }"); err == nil {
		t.Error("Parse accepted a pattern without its dot")
	}
}

// TestParseAllocs pins the parse at its result: one allocation for the
// projection and one for the patterns.
func TestParseAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Parse("SELECT ?x ?y WHERE { ?x <3> ?y . ?y <5> <120> . }"); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("Parse: %v allocations, want 2", n)
	}
}

// execute compiles q under order (Plan's when nil) and runs it to completion.
func execute(t testing.TB, q Query, st Store, order []int, emit func(row []core.ID)) ExecStats {
	t.Helper()
	if order == nil {
		order = Plan(q)
	}
	c, err := Compile(q, order)
	if err != nil {
		t.Fatalf("%v: %v", q, err)
	}
	var sink Sink
	if emit != nil {
		sink = EachRow(emit)
	}
	stats, err := Run(context.Background(), c, st, Options{}, sink)
	if err != nil {
		t.Fatalf("%v: %v", q, err)
	}
	return stats
}

// sliceStore is a brute-force Store for oracle checks.
type sliceStore []core.Triple

func (s sliceStore) NumTriples() int { return len(s) }
func (s sliceStore) Select(p core.Pattern) *core.Iterator {
	i := 0
	return core.NewIterator(func() (core.Triple, bool) {
		for i < len(s) {
			t := s[i]
			i++
			if p.Matches(t) {
				return t, true
			}
		}
		return core.Triple{}, false
	})
}

// refExecute evaluates a BGP by brute force over all variable
// assignments implied by the triples.
func refExecute(q Query, ts []core.Triple) int {
	var count int
	var rec func(step int, b map[string]core.ID)
	rec = func(step int, b map[string]core.ID) {
		if step == len(q.Patterns) {
			count++
			return
		}
		tp := q.Patterns[step]
		for _, t := range ts {
			nb := map[string]core.ID{}
			for k, v := range b {
				nb[k] = v
			}
			ok := true
			bind := func(term Term, id core.ID) {
				if !ok {
					return
				}
				if !term.IsVar() {
					if term.ID != id {
						ok = false
					}
					return
				}
				if prev, bound := nb[term.Var]; bound {
					if prev != id {
						ok = false
					}
					return
				}
				nb[term.Var] = id
			}
			bind(tp.S, t.S)
			bind(tp.P, t.P)
			bind(tp.O, t.O)
			if ok {
				rec(step+1, nb)
			}
		}
	}
	rec(0, map[string]core.ID{})
	return count
}

func randomTriples(rng *rand.Rand, n int) []core.Triple {
	seen := map[core.Triple]bool{}
	var ts []core.Triple
	for len(ts) < n {
		t := core.Triple{
			S: core.ID(rng.Intn(20)),
			P: core.ID(rng.Intn(5)),
			O: core.ID(rng.Intn(20)),
		}
		if !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	return ts
}

func TestExecuteAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	ts := randomTriples(rng, 300)
	store := sliceStore(ts)
	queries := []string{
		"SELECT ?x WHERE { ?x <1> ?y . }",
		"SELECT ?x ?y WHERE { ?x <1> ?y . ?y <2> ?z . }",
		"SELECT ?x WHERE { ?x <0> <5> . ?x <1> ?y . }",
		"SELECT ?x ?z WHERE { ?x <3> ?y . ?y <4> ?z . ?z <0> ?w . }",
		"SELECT ?x WHERE { ?x <2> ?x . }", // self-join within a pattern
		"SELECT ?x ?y WHERE { ?x <0> ?y . ?y <0> ?x . }",
	}
	for _, qs := range queries {
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("%q: %v", qs, err)
		}
		stats := execute(t, q, store, nil, nil)
		want := refExecute(q, ts)
		if stats.Results != want {
			t.Fatalf("%q: got %d results, want %d", qs, stats.Results, want)
		}
	}
}

func TestExecuteAgainstRealIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	ts := randomTriples(rng, 500)
	d := core.NewDataset(append([]core.Triple(nil), ts...))
	store := sliceStore(d.Triples)
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse("SELECT ?x ?z WHERE { ?x <1> ?y . ?y <2> ?z . }")
	if err != nil {
		t.Fatal(err)
	}
	bruteStats := execute(t, q, store, nil, nil)
	solutions := 0
	idxStats := execute(t, q, x, nil, func([]core.ID) { solutions++ })
	if idxStats.Results != bruteStats.Results || solutions != idxStats.Results {
		t.Fatalf("index execution: %d results, brute force: %d", idxStats.Results, bruteStats.Results)
	}
}

func TestPlanOrdersSelectiveFirst(t *testing.T) {
	q, err := Parse("SELECT ?x WHERE { ?x <1> ?y . ?x <0> <5> . }")
	if err != nil {
		t.Fatal(err)
	}
	order := Plan(q)
	if order[0] != 1 {
		t.Fatalf("plan order %v: expected the ?PO pattern first", order)
	}
}

func TestPlanAvoidsCartesian(t *testing.T) {
	// Patterns 0/2 share ?x, pattern 1 is disconnected but selective;
	// after starting with pattern 0 or 2 the planner must prefer the
	// sharing pattern over the disconnected one when costs allow.
	q, err := Parse("SELECT ?x WHERE { ?x <0> <5> . ?a <1> <6> . ?x <2> ?y . }")
	if err != nil {
		t.Fatal(err)
	}
	order := Plan(q)
	// First two picks must include both ?PO patterns; the key property is
	// that ?x <2> ?y never runs before ?x <0> <5>.
	posBound := -1
	posOpen := -1
	for i, idx := range order {
		if idx == 0 {
			posBound = i
		}
		if idx == 2 {
			posOpen = i
		}
	}
	if posOpen < posBound {
		t.Fatalf("plan %v runs open pattern before its selective anchor", order)
	}
}

func TestDecomposeReplayMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(197))
	ts := randomTriples(rng, 400)
	d := core.NewDataset(append([]core.Triple(nil), ts...))
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse("SELECT ?x ?z WHERE { ?x <1> ?y . ?y <2> ?z . }")
	if err != nil {
		t.Fatal(err)
	}
	patterns, err := Decompose(q, x)
	if err != nil {
		t.Fatal(err)
	}
	stats := execute(t, q, x, nil, nil)
	if len(patterns) != stats.PatternsIssued {
		t.Fatalf("decomposition has %d patterns, execution issued %d",
			len(patterns), stats.PatternsIssued)
	}
	if got := Replay(patterns, x); got != stats.TriplesMatched {
		t.Fatalf("replay matched %d triples, execution matched %d",
			got, stats.TriplesMatched)
	}
}
