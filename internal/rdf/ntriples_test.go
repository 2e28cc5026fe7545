package rdf

import (
	"fmt"
	"strings"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
)

func TestParseLineForms(t *testing.T) {
	cases := []struct {
		line string
		want Statement
	}{
		{
			`<http://a> <http://p> <http://b> .`,
			Statement{Term{IRI, "http://a", ""}, Term{IRI, "http://p", ""}, Term{IRI, "http://b", ""}},
		},
		{
			`_:x <http://p> "hello" .`,
			Statement{Term{BlankNode, "x", ""}, Term{IRI, "http://p", ""}, Term{Literal, "hello", ""}},
		},
		{
			`<http://a> <http://p> "bonjour"@fr .`,
			Statement{Term{IRI, "http://a", ""}, Term{IRI, "http://p", ""}, Term{Literal, "bonjour", "@fr"}},
		},
		{
			`<http://a> <http://p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
			Statement{Term{IRI, "http://a", ""}, Term{IRI, "http://p", ""},
				Term{Literal, "42", "http://www.w3.org/2001/XMLSchema#integer"}},
		},
		{
			`<http://a> <http://p> "with \"quotes\" and \n newline" .`,
			Statement{Term{IRI, "http://a", ""}, Term{IRI, "http://p", ""},
				Term{Literal, "with \"quotes\" and \n newline", ""}},
		},
	}
	for _, c := range cases {
		got, ok, err := ParseLine(c.line)
		if err != nil || !ok {
			t.Fatalf("ParseLine(%q): ok=%v err=%v", c.line, ok, err)
		}
		if got != c.want {
			t.Fatalf("ParseLine(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

func TestParseLineSkipsCommentsAndBlank(t *testing.T) {
	for _, line := range []string{"", "   ", "# a comment", "  # indented comment"} {
		_, ok, err := ParseLine(line)
		if err != nil || ok {
			t.Fatalf("ParseLine(%q): ok=%v err=%v, want skip", line, ok, err)
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		`<http://a> <http://p> <http://b>`,                                         // no dot
		`<http://a> "lit" <http://b> .`,                                            // literal predicate
		`<http://a <http://p> <http://b> .`,                                        // unterminated IRI
		`<http://a> <http://p> "open .`,                                            // unterminated literal
		`_: <http://p> <http://b> .`,                                               // empty blank label
		`<http://a> <http://p> .`,                                                  // missing object
		`"lit" <http://p> <http://b> .`,                                            // literal subject
		`"42"^^<http://www.w3.org/2001/XMLSchema#integer> <http://p> <http://b> .`, // numeric subject
	}
	for _, line := range bad {
		if _, ok, err := ParseLine(line); err == nil && ok {
			t.Errorf("ParseLine accepted %q", line)
		}
	}
}

// FuzzParseLine feeds arbitrary lines to ParseLine: it never panics,
// an accepted statement has an IRI or blank-node subject and an IRI
// predicate, and its terms rendered with Key parse back to the same
// statement.
func FuzzParseLine(f *testing.F) {
	for _, line := range []string{
		`<http://a> <http://p> <http://b> .`,
		`_:x <http://p> "hello" .`,
		`<http://a> <http://p> "bon\"jour\n"@fr .`,
		`<http://a> <http://p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`"42"^^<http://www.w3.org/2001/XMLSchema#integer> <http://p> <http://b> .`,
		`<http://a> "lit" <http://b> .`,
		`  # comment`,
		`_:b	<http://p>	_:c.`,
		`<http://a> <http://p> "open .`,
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		st, ok, err := ParseLine(line)
		if err != nil || !ok {
			return
		}
		if st.S.Kind == Literal || st.P.Kind != IRI {
			t.Fatalf("ParseLine(%q) accepted %+v", line, st)
		}
		again := st.S.Key() + " " + st.P.Key() + " " + st.O.Key() + " ."
		if back, ok, err := ParseLine(again); err != nil || !ok || back != st {
			t.Fatalf("ParseLine(%q) = %+v; its rendering %q parses to (%+v, %v, %v)", line, st, again, back, ok, err)
		}
	})
}

func TestStatementStringRoundTrip(t *testing.T) {
	lines := []string{
		`<http://a> <http://p> <http://b> .`,
		`_:x <http://p> "hello" .`,
		`<http://a> <http://p> "bonjour"@fr .`,
		`<http://a> <http://p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
	}
	for _, line := range lines {
		st, ok, err := ParseLine(line)
		if err != nil || !ok {
			t.Fatalf("parse %q: %v", line, err)
		}
		st2, ok, err := ParseLine(st.String())
		if err != nil || !ok {
			t.Fatalf("re-parse %q: %v", st.String(), err)
		}
		if st != st2 {
			t.Fatalf("round trip changed %+v to %+v", st, st2)
		}
	}
}

// TestTermKeyRoundTrip pins Parse(Term.Key()) = Term for literals with
// bytes %q-style serialization would escape in ways the parser does not
// decode — the invariant the write-ahead log's term records depend on.
func TestTermKeyRoundTrip(t *testing.T) {
	values := []string{
		"plain",
		"with \"quotes\" and \\backslash\\",
		"tab\there\nnewline\rcr",
		"control \x01 byte and del \x7f",
		"utf8 héllo ✓",
		"",
	}
	for _, v := range values {
		for _, term := range []Term{
			{Kind: Literal, Value: v},
			{Kind: Literal, Value: v, Qualifier: "@en"},
			{Kind: Literal, Value: v, Qualifier: "http://t"},
		} {
			back, err := ParseTerm(term.Key())
			if err != nil {
				t.Fatalf("ParseTerm(%q): %v", term.Key(), err)
			}
			if back != term {
				t.Fatalf("round trip changed %+v to %+v (key %q)", term, back, term.Key())
			}
			if back.Key() != term.Key() {
				t.Fatalf("key not stable: %q vs %q", term.Key(), back.Key())
			}
		}
	}
}

const sampleNT = `# sample graph
<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/bob> <http://ex/knows> <http://ex/carol> .
<http://ex/alice> <http://ex/name> "Alice" .
<http://ex/bob> <http://ex/name> "Bob" .
<http://ex/carol> <http://ex/age> "29"^^<http://www.w3.org/2001/XMLSchema#integer> .
`

func TestParseAllAndEncode(t *testing.T) {
	sts, err := ParseAll(strings.NewReader(sampleNT))
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 5 {
		t.Fatalf("parsed %d statements, want 5", len(sts))
	}
	d, dicts, err := Encode(sts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 5 {
		t.Fatalf("dataset has %d triples, want 5", d.Len())
	}
	so := dicts.SO.(*dict.Dict)
	// alice, bob and carol are subjects; "Alice", "Bob" and "29" only
	// objects.
	if d.NS != 3 || d.NS != so.FirstRun() || d.NO != so.Len() || so.Len() != 6 {
		t.Fatalf("ID spaces: NS=%d NO=%d, dictionary of %d with %d subjects", d.NS, d.NO, so.Len(), so.FirstRun())
	}
	// Query through an index by URI.
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	alice, ok := dicts.SO.Locate("<http://ex/alice>")
	if !ok {
		t.Fatal("alice missing from dictionary")
	}
	knows, ok := dicts.P.Locate("<http://ex/knows>")
	if !ok {
		t.Fatal("knows missing from dictionary")
	}
	matches := x.Select(core.Pattern{S: core.ID(alice), P: core.ID(knows), O: core.Wildcard}).Collect(-1)
	if len(matches) != 1 {
		t.Fatalf("alice knows %d people, want 1", len(matches))
	}
	line, err := dicts.DecodeTriple(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if line != "<http://ex/alice> <http://ex/knows> <http://ex/bob> ." {
		t.Fatalf("decoded triple %q", line)
	}
}

// TestEncodeSubjectsFirst pins the SO numbering: every subject's ID is
// below k, the dictionary's first run, no ID from k on is a subject, and
// each run is sorted, on a graph where terms are subjects only, objects
// only, both, and literals.
func TestEncodeSubjectsFirst(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "<http://ex/n%d> <http://ex/p%d> <http://ex/n%d> .\n", i*7%211, i%5, i*13%293)
		fmt.Fprintf(&sb, "<http://ex/n%d> <http://ex/label> \"%d\" .\n", i%50, i)
	}
	sts, err := ParseAll(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	d, dicts, err := Encode(sts)
	if err != nil {
		t.Fatal(err)
	}
	so := dicts.SO.(*dict.Dict)
	k := so.FirstRun()
	if d.NS != k || d.NO != so.Len() || k == 0 || k == so.Len() {
		t.Fatalf("NS=%d NO=%d, dictionary of %d with %d subjects", d.NS, d.NO, so.Len(), k)
	}
	subject := make([]bool, so.Len())
	for _, tr := range d.Triples {
		if int(tr.S) >= k {
			t.Fatalf("subject ID %d is not below k=%d", tr.S, k)
		}
		subject[tr.S] = true
	}
	for id := range subject {
		if !subject[id] && id < k {
			t.Fatalf("ID %d is in the first run but no subject", id)
		}
		if id == 0 || id == k {
			continue
		}
		prev, _ := so.Extract(id - 1)
		cur, _ := so.Extract(id)
		if prev >= cur {
			t.Fatalf("IDs %d and %d out of order: %q >= %q", id-1, id, prev, cur)
		}
	}
}
