package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// A hand-made graph: predicates 0..2, terms 1..8. Term 7 and 8 occur as
// objects only and are literals.
var testTriples = []triple{
	{1, 0, 2}, {1, 0, 3}, {1, 1, 4}, {2, 1, 4}, {5, 0, 2}, {2, 2, 6}, {3, 1, 7}, {5, 2, 8},
}

func testVocab() *vocab {
	lit := make([]bool, 9)
	lit[7], lit[8] = true, true
	return &vocab{seed: 42, literal: lit}
}

func ids(rows [][]uint32) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return out
}

func TestNaiveEval(t *testing.T) {
	n := newNaive(testTriples)
	x, y, z := variable(0), variable(1), variable(2)
	cases := []struct {
		name string
		q    query
		want []string
	}{
		{"SP?", query{[]string{"o"}, []qpattern{{constant(1), 0, x}}}, []string{"[2]", "[3]"}},
		{"?PO", query{[]string{"s"}, []qpattern{{x, 0, constant(2)}}}, []string{"[1]", "[5]"}},
		{"star", query{[]string{"x", "y"}, []qpattern{{x, 0, constant(2)}, {x, 1, y}}}, []string{"[1 4]"}},
		{"path", query{[]string{"x", "y", "z"}, []qpattern{{x, 0, y}, {y, 1, z}}},
			[]string{"[1 2 4]", "[1 3 7]", "[5 2 4]"}},
		{"star of three", query{[]string{"x", "y", "z"}, []qpattern{{x, 0, y}, {x, 1, z}, {x, 0, constant(3)}}},
			[]string{"[1 2 4]", "[1 3 4]"}},
		{"no solution", query{[]string{"x"}, []qpattern{{x, 2, constant(2)}}}, nil},
	}
	for _, c := range cases {
		rows, count, _ := n.eval(c.q, -1)
		if got := ids(rows); !slices.Equal(got, c.want) || count != len(c.want) {
			t.Errorf("%s: got %v (count %d), want %v", c.name, got, count, c.want)
		}
	}
	// Count-only mode stops early and keeps no rows.
	rows, count, _ := n.eval(cases[0].q, 1)
	if rows != nil || count != 2 {
		t.Errorf("count-only eval with limit 1: %d rows kept, count %d; want none kept, count 2", len(rows), count)
	}
}

// sparqlBody renders ID rows as the server would: SPARQL 1.1 JSON.
func sparqlBody(vars []string, rows [][]uint32, v *vocab) []byte {
	var sb strings.Builder
	sb.WriteString(`{"head":{"vars":["` + strings.Join(vars, `","`) + `"]},"results":{"bindings":[`)
	for i, r := range rows {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('{')
		for j, id := range r {
			if j > 0 {
				sb.WriteByte(',')
			}
			term := v.so(id)
			fmt.Fprintf(&sb, "%q:", vars[j])
			if strings.HasPrefix(term, "<") {
				fmt.Fprintf(&sb, `{"type":"uri","value":%q}`, term[1:len(term)-1])
			} else {
				sb.WriteString(literalJSON(term))
			}
		}
		sb.WriteByte('}')
	}
	sb.WriteString("]}}\n")
	return []byte(sb.String())
}

// literalJSON turns an N-Triples literal into its SPARQL JSON binding,
// undoing the N-Triples escapes first.
func literalJSON(term string) string {
	end := strings.LastIndexByte(term, '"')
	value := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n", `\r`, "\r", `\t`, "\t").Replace(term[1:end])
	rest := term[end+1:]
	switch {
	case strings.HasPrefix(rest, "@"):
		return fmt.Sprintf(`{"type":"literal","value":%q,"xml:lang":%q}`, value, rest[1:])
	case strings.HasPrefix(rest, "^^<"):
		return fmt.Sprintf(`{"type":"literal","value":%q,"datatype":%q}`, value, rest[3:len(rest)-1])
	}
	return fmt.Sprintf(`{"type":"literal","value":%q}`, value)
}

func TestAnswerCheck(t *testing.T) {
	n := newNaive(testTriples)
	v := testVocab()
	q := query{[]string{"x", "y", "z"}, []qpattern{{variable(0), 0, variable(1)}, {variable(1), 1, variable(2)}}}
	want, _, _ := n.eval(q, -1)

	// The server may answer in any order.
	served := slices.Clone(want)
	slices.Reverse(served)
	got, err := decodeRows(sparqlBody(q.vars, served, v), q.vars)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(got, renderRows(want, v)); err != nil {
		t.Errorf("a right answer is reported wrong: %v", err)
	}

	// One flipped cell in the expectation must be reported.
	flipped := [][]uint32{slices.Clone(want[0]), want[1], want[2]}
	flipped[0][2] = 6
	got, _ = decodeRows(sparqlBody(q.vars, served, v), q.vars)
	if err := sameRows(got, renderRows(flipped, v)); err == nil {
		t.Error("a wrong expectation (one flipped cell) is not reported")
	}
	// So must a missing row and a duplicated one.
	got, _ = decodeRows(sparqlBody(q.vars, served[1:], v), q.vars)
	if err := sameRows(got, renderRows(want, v)); err == nil {
		t.Error("a missing row is not reported")
	}
	got, _ = decodeRows(sparqlBody(q.vars, [][]uint32{want[0], want[0], want[2]}, v), q.vars)
	if err := sameRows(got, renderRows(want, v)); err == nil {
		t.Error("a duplicated row in place of another is not reported")
	}
	if _, err := decodeRows(sparqlBody([]string{"x", "y"}, nil, v), q.vars); err == nil {
		t.Error("a wrong variable list is not reported")
	}
}

// Every literal kind the data generator writes must survive the round
// trip N-Triples -> SPARQL JSON -> N-Triples, escapes included.
func TestLiteralRoundTrip(t *testing.T) {
	lit := make([]bool, 64)
	for i := range lit {
		lit[i] = true
	}
	v := &vocab{seed: 7, literal: lit}
	kinds := map[string]bool{}
	for id := uint32(0); id < 64; id++ {
		term := v.so(id)
		rows, err := decodeRows(sparqlBody([]string{"o"}, [][]uint32{{id}}, v), []string{"o"})
		if err != nil || len(rows) != 1 || rows[0] != term {
			t.Errorf("term %s decodes to %q (%v)", term, rows, err)
		}
		switch {
		case strings.Contains(term, `\`):
			kinds["escaped"] = true
		case strings.Contains(term, `"@`):
			kinds["lang"] = true
		case strings.Contains(term, `"^^`):
			kinds["typed"] = true
		default:
			kinds["plain"] = true
		}
	}
	if len(kinds) != 4 {
		t.Errorf("64 literals cover only the kinds %v", kinds)
	}
}

func TestQueryText(t *testing.T) {
	v := testVocab()
	q := query{[]string{"x", "y"}, []qpattern{{variable(0), 0, constant(2)}, {variable(0), 1, variable(1)}}}
	want := "SELECT ?x ?y WHERE { ?x " + v.pred(0) + " " + v.so(2) + " . ?x " + v.pred(1) + " ?y . }"
	if got := q.text(v); got != want {
		t.Errorf("query text %q, want %q", got, want)
	}
}
