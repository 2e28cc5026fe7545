package results

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/store"
)

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		want   Format
		ok     bool
	}{
		{"", JSON, true},
		{"   ", JSON, true},
		{"application/sparql-results+json", JSON, true},
		{"application/json", JSON, true},
		{"application/sparql-results+xml", XML, true},
		{"application/xml", XML, true},
		{"text/csv", CSV, true},
		{"TEXT/CSV", CSV, true},
		{"text/tab-separated-values", TSV, true},
		// q-value ordering: the higher quality wins regardless of list
		// position.
		{"application/sparql-results+xml;q=0.9, text/csv", CSV, true},
		{"text/csv;q=0.5, application/sparql-results+xml;q=0.4", CSV, true},
		{"text/tab-separated-values;q=1.0, text/csv;q=0.9", TSV, true},
		// Wildcards: */* accepts everything (server preference JSON),
		// type/* narrows to that top-level type.
		{"*/*", JSON, true},
		{"application/*", JSON, true},
		{"text/*", CSV, true},
		{"image/png, */*;q=0.1", JSON, true},
		// An exact q=0 excludes the type even when a wildcard would
		// otherwise readmit it.
		{"text/csv;q=0, text/*", TSV, true},
		{"text/csv;q=0, */*", JSON, true},
		// Equal quality ties break toward the server preference order.
		{"text/csv, application/sparql-results+json", JSON, true},
		{"text/csv;q=0.8, application/sparql-results+xml;q=0.8", XML, true},
		// Nothing acceptable.
		{"image/png", 0, false},
		{"text/html;q=0.9, application/pdf", 0, false},
		{"*/*;q=0", 0, false},
		// Malformed q parameters read as the default 1.0.
		{"text/csv;q=abc", CSV, true},
		{"text/csv;level=1;q=0.3, application/xml;q=0.2", CSV, true},
	}
	for _, c := range cases {
		got, ok := Negotiate(c.accept)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Negotiate(%q) = %v, %v; want %v, %v", c.accept, got, ok, c.want, c.ok)
		}
	}
}

// testPredicates is the predicate dictionary of termStore, sorted. Its
// IDs overlap the subject/object IDs, so a column rendered through the
// wrong dictionary shows.
var testPredicates = []string{"<http://ex/p/knows>", "<http://ex/p/likes>", "<http://ex/p?x=1&y=2>"}

// termStore builds a dictionary store over the given already-serialized
// N-Triples terms (sorted internally) and testPredicates.
func termStore(t testing.TB, terms []string) (*store.Store, []string) {
	t.Helper()
	sorted := append([]string(nil), terms...)
	sort.Strings(sorted)
	so, err := dict.New(sorted, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dict.New(testPredicates, 4)
	if err != nil {
		t.Fatal(err)
	}
	return &store.Store{Dicts: &rdf.Dicts{SO: so, P: p}}, sorted
}

// testTerms covers every term kind and escape class the serializers
// must handle: IRIs with query metacharacters, blank nodes, plain,
// language-tagged and datatyped literals, and a literal whose lexical
// form holds quotes, commas, tabs, newlines and markup bytes (stored in
// the canonical escaped N-Triples serialization the dictionary holds).
var testTerms = []string{
	`<http://ex/iri?a=1&b=2>`,
	`_:bn7`,
	`"plain"`,
	`"hello"@en-US`,
	`"3.14"^^<http://www.w3.org/2001/XMLSchema#decimal>`,
	`"quo\"te, comma\nand\ttab & <angle>"`,
}

// expectedParts derives the oracle (kind, value, lang, datatype) for a
// stored term through the N-Triples parser.
func expectedParts(t *testing.T, stored string) (kind rdf.TermKind, value, lang, dtype string) {
	t.Helper()
	term, err := rdf.ParseTerm(stored)
	if err != nil {
		t.Fatalf("oracle parse %q: %v", stored, err)
	}
	if term.Kind == rdf.Literal {
		if strings.HasPrefix(term.Qualifier, "@") {
			lang = term.Qualifier[1:]
		} else {
			dtype = term.Qualifier
		}
	}
	return term.Kind, term.Value, lang, dtype
}

// writeAll streams one solution per term through a writer of format f
// and returns the serialized body.
func writeAll(t *testing.T, f Format, st *store.Store, n int) []byte {
	t.Helper()
	var out bytes.Buffer
	wr := Acquire(f, st, &out)
	defer wr.Release()
	wr.Begin([]string{"x"})
	for id := 0; id < n; id++ {
		wr.WriteRow([]core.ID{core.ID(id)})
	}
	wr.End()
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if wr.Rows() != n {
		t.Fatalf("Rows() = %d, want %d", wr.Rows(), n)
	}
	return out.Bytes()
}

func TestWriterJSON(t *testing.T) {
	st, sorted := termStore(t, testTerms)
	body := writeAll(t, JSON, st, len(sorted))
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Lang     string `json:"xml:lang"`
				Datatype string `json:"datatype"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid JSON %s: %v", body, err)
	}
	if len(doc.Head.Vars) != 1 || doc.Head.Vars[0] != "x" {
		t.Fatalf("head vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != len(sorted) {
		t.Fatalf("%d bindings, want %d", len(doc.Results.Bindings), len(sorted))
	}
	for i, stored := range sorted {
		kind, value, lang, dtype := expectedParts(t, stored)
		b, ok := doc.Results.Bindings[i]["x"]
		if !ok {
			t.Fatalf("row %d missing x", i)
		}
		wantType := map[rdf.TermKind]string{rdf.IRI: "uri", rdf.BlankNode: "bnode", rdf.Literal: "literal"}[kind]
		if b.Type != wantType || b.Value != value || b.Lang != lang || b.Datatype != dtype {
			t.Errorf("row %d (%q): got %+v, want type=%s value=%q lang=%q dt=%q",
				i, stored, b, wantType, value, lang, dtype)
		}
	}
}

func TestWriterXML(t *testing.T) {
	st, sorted := termStore(t, testTerms)
	body := writeAll(t, XML, st, len(sorted))
	var doc struct {
		XMLName xml.Name `xml:"sparql"`
		Vars    []struct {
			Name string `xml:"name,attr"`
		} `xml:"head>variable"`
		Results []struct {
			Bindings []struct {
				Name    string  `xml:"name,attr"`
				URI     *string `xml:"uri"`
				BNode   *string `xml:"bnode"`
				Literal *struct {
					Lang     string `xml:"lang,attr"`
					Datatype string `xml:"datatype,attr"`
					Value    string `xml:",chardata"`
				} `xml:"literal"`
			} `xml:"binding"`
		} `xml:"results>result"`
	}
	if err := xml.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid XML %s: %v", body, err)
	}
	if doc.XMLName.Space != "http://www.w3.org/2005/sparql-results#" {
		t.Fatalf("namespace = %q", doc.XMLName.Space)
	}
	if len(doc.Vars) != 1 || doc.Vars[0].Name != "x" {
		t.Fatalf("head vars = %v", doc.Vars)
	}
	if len(doc.Results) != len(sorted) {
		t.Fatalf("%d results, want %d", len(doc.Results), len(sorted))
	}
	for i, stored := range sorted {
		kind, value, lang, dtype := expectedParts(t, stored)
		bs := doc.Results[i].Bindings
		if len(bs) != 1 || bs[0].Name != "x" {
			t.Fatalf("row %d bindings = %+v", i, bs)
		}
		b := bs[0]
		switch kind {
		case rdf.IRI:
			if b.URI == nil || *b.URI != value {
				t.Errorf("row %d (%q): uri = %v, want %q", i, stored, b.URI, value)
			}
		case rdf.BlankNode:
			if b.BNode == nil || *b.BNode != value {
				t.Errorf("row %d (%q): bnode = %v, want %q", i, stored, b.BNode, value)
			}
		default:
			if b.Literal == nil || b.Literal.Value != value || b.Literal.Lang != lang || b.Literal.Datatype != dtype {
				t.Errorf("row %d (%q): literal = %+v, want value=%q lang=%q dt=%q",
					i, stored, b.Literal, value, lang, dtype)
			}
		}
	}
}

func TestWriterCSV(t *testing.T) {
	st, sorted := termStore(t, testTerms)
	body := writeAll(t, CSV, st, len(sorted))
	rows, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV %q: %v", body, err)
	}
	if len(rows) != len(sorted)+1 {
		t.Fatalf("%d rows, want %d", len(rows), len(sorted)+1)
	}
	if len(rows[0]) != 1 || rows[0][0] != "x" {
		t.Fatalf("header = %v", rows[0])
	}
	for i, stored := range sorted {
		kind, value, _, _ := expectedParts(t, stored)
		want := value
		if kind == rdf.BlankNode {
			want = "_:" + value
		}
		if len(rows[i+1]) != 1 || rows[i+1][0] != want {
			t.Errorf("row %d (%q): %v, want %q", i, stored, rows[i+1], want)
		}
	}
}

func TestWriterTSV(t *testing.T) {
	st, sorted := termStore(t, testTerms)
	body := writeAll(t, TSV, st, len(sorted))
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != len(sorted)+1 {
		t.Fatalf("%d lines, want %d: %q", len(lines), len(sorted)+1, body)
	}
	if lines[0] != "?x" {
		t.Fatalf("header = %q", lines[0])
	}
	// TSV carries the dictionary's exact N-Triples serialization.
	for i, stored := range sorted {
		if lines[i+1] != stored {
			t.Errorf("row %d: %q, want %q", i, lines[i+1], stored)
		}
	}
}

// TestAppendJSONString runs terms with every escape-worthy byte class
// through appendJSONString and checks each decodes back to the exact
// bytes.
func TestAppendJSONString(t *testing.T) {
	for _, term := range []string{
		"\"plain literal\"",
		"\"tab\tand\nnewline\r\"",
		"\"back\\\\slash\"",
		"\"ctrl\x01byte\x1f\"",
		"\"unicode é世\"",
		"<http://ex/iri>",
		"",
	} {
		enc := appendJSONString([]byte("x"), []byte(term))
		var got string
		if err := json.Unmarshal(enc[1:], &got); err != nil {
			t.Fatalf("%q encoded to invalid JSON %s: %v", term, enc[1:], err)
		}
		if got != term {
			t.Fatalf("%q round-tripped to %q", term, got)
		}
	}
}

// TestWriterUnboundAndRepeats pins the unbound-column behavior — a
// core.Wildcard in the row: JSON and XML omit the binding, CSV and TSV
// leave an empty field — and that cache-served repeats render identically
// to first encodings, each through its format's standard-library decoder.
func TestWriterUnboundAndRepeats(t *testing.T) {
	st, _ := termStore(t, testTerms)
	for _, f := range Formats() {
		var out bytes.Buffer
		wr := Acquire(f, st, &out)
		wr.Begin([]string{"a", "b"})
		wr.WriteRow([]core.ID{0, 1})
		wr.WriteRow([]core.ID{0, core.Wildcard}) // b unbound; a repeats
		wr.WriteRow([]core.ID{core.Wildcard, 1}) // a unbound; b repeats
		wr.End()
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		wr.Release()
		body := out.String()
		// cells[r][c] is the decoded text of row r column c, "" if absent.
		var cells [][2]string
		switch f {
		case JSON:
			var doc struct {
				Results struct {
					Bindings []map[string]any `json:"bindings"`
				} `json:"results"`
			}
			if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			for _, row := range doc.Results.Bindings {
				var c [2]string
				for k, name := range []string{"a", "b"} {
					if v, ok := row[name]; ok {
						c[k] = fmt.Sprint(v)
					}
				}
				if len(row) != countSet(c) {
					t.Fatalf("json row %v has bindings beyond a, b", row)
				}
				cells = append(cells, c)
			}
		case XML:
			var doc struct {
				Results []struct {
					Bindings []struct {
						Name  string `xml:"name,attr"`
						Inner string `xml:",innerxml"`
					} `xml:"binding"`
				} `xml:"results>result"`
			}
			if err := xml.Unmarshal(out.Bytes(), &doc); err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			for _, r := range doc.Results {
				var c [2]string
				for _, bd := range r.Bindings {
					c[strings.Index("ab", bd.Name)] = bd.Inner
				}
				if len(r.Bindings) != countSet(c) {
					t.Fatalf("xml result has %d bindings for cells %q", len(r.Bindings), c)
				}
				cells = append(cells, c)
			}
		case CSV:
			rows, err := csv.NewReader(strings.NewReader(body)).ReadAll()
			if err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			for _, r := range rows[1:] {
				cells = append(cells, [2]string{r[0], r[1]})
			}
		case TSV:
			for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n")[1:] {
				fields := strings.Split(line, "\t")
				if len(fields) != 2 {
					t.Fatalf("tsv line %q has %d fields", line, len(fields))
				}
				cells = append(cells, [2]string{fields[0], fields[1]})
			}
		}
		if len(cells) != 3 {
			t.Fatalf("%v: %d rows, want 3: %s", f, len(cells), body)
		}
		a, b := cells[0][0], cells[0][1]
		if a == "" || b == "" || a == b {
			t.Fatalf("%v: first row %q", f, cells[0])
		}
		if want := [][2]string{{a, b}, {a, ""}, {"", b}}; !reflect.DeepEqual(cells, want) {
			t.Fatalf("%v: cells %q, want %q", f, cells, want)
		}
	}
}

func countSet(c [2]string) int {
	n := 0
	for _, v := range c {
		if v != "" {
			n++
		}
	}
	return n
}

// TestWriterPredicateColumns renders the same IDs through a
// subject/object column and a predicate column. In every format the
// predicate column must equal, byte for byte, what a subject/object
// column renders over a store whose subject/object dictionary *is* the
// predicate dictionary (the oracle-checked path of the tests above), the
// per-request term cache must keep the two roles of one ID apart, and an
// ID neither dictionary holds renders through the <id> fallback in both.
func TestWriterPredicateColumns(t *testing.T) {
	st, _ := termStore(t, testTerms)
	swapped := &store.Store{Dicts: &rdf.Dicts{SO: st.Dicts.P, P: st.Dicts.P}}
	render := func(f Format, st *store.Store, role core.Role) string {
		var out bytes.Buffer
		wr := Acquire(f, st, &out)
		defer wr.Release()
		wr.Begin([]string{"v"}, role)
		for _, id := range []core.ID{0, 1, 2, 1} { // the last one from the cache
			wr.WriteRow([]core.ID{id})
		}
		wr.End()
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	for _, f := range Formats() {
		got, want := render(f, st, core.RoleP), render(f, swapped, core.RoleSO)
		if got != want {
			t.Errorf("%v: predicate column\n%s\nwant\n%s", f, got, want)
		}
		if so := render(f, st, core.RoleSO); so == got {
			t.Errorf("%v: predicate column rendered through the subject/object dictionary:\n%s", f, got)
		}
	}

	// One ID in both roles, twice: the second row comes from the cache.
	// An ID neither dictionary holds renders as <id> in both.
	for _, tc := range []struct {
		id   core.ID
		x, p string
	}{
		{0, sortedTerm(t, st, 0), testPredicates[0]},
		{1000, "<1000>", "<1000>"},
	} {
		var out bytes.Buffer
		wr := Acquire(TSV, st, &out)
		wr.Begin([]string{"x", "p"}, core.RoleSO, core.RoleP)
		wr.WriteRow([]core.ID{tc.id, tc.id})
		wr.WriteRow([]core.ID{tc.id, tc.id})
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		wr.Release()
		line := tc.x + "\t" + tc.p + "\n"
		if want := "?x\t?p\n" + line + line; out.String() != want {
			t.Errorf("body %q, want %q", out.String(), want)
		}
	}
}

func sortedTerm(t *testing.T, st *store.Store, id int) string {
	t.Helper()
	term, ok := st.Dicts.SO.Extract(id)
	if !ok {
		t.Fatalf("no term %d", id)
	}
	return term
}

// TestWriterIntsFallback: an integer ID the dictionary does not hold
// renders as the <id> fallback, which every format treats as an IRI.
func TestWriterIntsFallback(t *testing.T) {
	st, _ := termStore(t, manyTerms(8))
	var out bytes.Buffer
	wr := Acquire(JSON, st, &out)
	wr.Begin([]string{"x"})
	wr.WriteRow([]core.ID{42})
	wr.End()
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	wr.Release()
	if !strings.Contains(out.String(), `{"type":"uri","value":"42"}`) {
		t.Fatalf("ints fallback body = %s", out.String())
	}
}

// manyTerms builds a wider dictionary so the allocation test exercises
// arena growth, cache fills and bucket-cursor movement before measuring.
func manyTerms(n int) []string {
	terms := make([]string, n)
	for i := range terms {
		switch i % 3 {
		case 0:
			terms[i] = fmt.Sprintf("<http://ex/entity/%06d?k=v&x=y>", i)
		case 1:
			terms[i] = fmt.Sprintf(`"literal value %06d, with\ttabs"@en`, i)
		default:
			terms[i] = fmt.Sprintf(`"%06d"^^<http://www.w3.org/2001/XMLSchema#integer>`, i)
		}
	}
	return terms
}

// overlayStore wraps st's dictionaries in overlays with a few added
// terms, as a mutable store's serving view does.
func overlayStore(st *store.Store) *store.Store {
	so := dict.NewOverlay(st.Dicts.SO.(*dict.Dict))
	p := dict.NewOverlay(st.Dicts.P.(*dict.Dict))
	for i := 0; i < 8; i++ {
		so.Add(fmt.Sprintf("<http://zz/new%d>", i))
		p.Add(fmt.Sprintf("<http://zz/pred%d>", i))
	}
	return &store.Store{Dicts: &rdf.Dicts{SO: so.View(), P: p.View()}}
}

// TestWriterAllocs pins the zero-allocations-per-row property of every
// serializer: after the first pass fills the term cache, the steady
// state row path allocates nothing in any format, over a plain
// dictionary store and over an overlay one whose added terms the rows
// name too.
func TestWriterAllocs(t *testing.T) {
	st, _ := termStore(t, manyTerms(512))
	check := func(t *testing.T, st *store.Store) {
		n, np := st.Dicts.SO.Len(), st.Dicts.P.Len()
		for _, f := range Formats() {
			t.Run(f.String(), func(t *testing.T) {
				wr := Acquire(f, st, io.Discard)
				defer wr.Release()
				wr.Begin([]string{"x", "p", "y"}, core.RoleSO, core.RoleP)
				row := make([]core.ID, 3)
				// Warm: fill the term cache and grow every scratch buffer.
				for i := 0; i < n; i++ {
					row[0], row[1], row[2] = core.ID(i), core.ID(i%np), core.ID((i+7)%n)
					wr.WriteRow(row)
				}
				wr.Flush()
				i := 0
				if a := testing.AllocsPerRun(500, func() {
					row[0], row[1], row[2] = core.ID(i%n), core.ID(i%np), core.ID((i+13)%n)
					wr.WriteRow(row)
					i++
				}); a != 0 {
					t.Errorf("%v WriteRow allocs/row = %v, want 0", f, a)
				}
				wr.End()
				wr.Flush()
			})
		}
	}
	check(t, st)
	t.Run("overlay", func(t *testing.T) { check(t, overlayStore(st)) })
}

// TestPooledWriterKeepsBuffer renders a ~60 KiB answer — the whole of
// which a one-piece response holds in the writer's buffer, and its rows'
// IDs in the kept-ID buffer — and checks that the pool can keep buffers
// that size: trimCap exceeds StreamAt, trimBuffer keeps a buffer of up to
// trimCap elements, and Release hands both grown buffers back with the
// writer, or every request would regrow them from nothing. The kept IDs
// are those of the rows written until the first flush and none after it.
// Outside race builds, where sync.Pool keeps what it is given,
// acquire/release cycles then render the answer without allocating,
// every term encoded anew, over a plain dictionary store and over an
// overlay one.
func TestPooledWriterKeepsBuffer(t *testing.T) {
	if trimCap <= StreamAt {
		t.Fatalf("trimCap %d is not above StreamAt %d: pooled writers would drop every streamed buffer", trimCap, StreamAt)
	}
	for _, c := range []int{StreamAt, trimCap} {
		if b := trimBuffer(make([]byte, 1, c)); b == nil || len(b) != 0 || cap(b) != c {
			t.Fatalf("trimBuffer of a %d-byte buffer: len %d cap %d, want it emptied and kept", c, len(b), cap(b))
		}
		if b := trimBuffer(make([]core.ID, 1, c)); b == nil || len(b) != 0 || cap(b) != c {
			t.Fatalf("trimBuffer of a %d-ID buffer: len %d cap %d, want it emptied and kept", c, len(b), cap(b))
		}
	}
	if b := trimBuffer(make([]byte, 1, trimCap+1)); b != nil {
		t.Fatalf("trimBuffer kept a buffer past trimCap (cap %d)", cap(b))
	}
	if b := trimBuffer(make([]core.ID, 1, trimCap+1)); b != nil {
		t.Fatalf("trimBuffer kept an ID buffer past trimCap (cap %d)", cap(b))
	}
	base, _ := termStore(t, manyTerms(512))
	for name, st := range map[string]*store.Store{"dict": base, "overlay": overlayStore(base)} {
		n, np := st.Dicts.SO.Len(), st.Dicts.P.Len()
		row := make([]core.ID, 3)
		var written []core.ID
		size := 0
		render := func() *Writer {
			wr := Acquire(JSON, st, io.Discard)
			wr.Begin([]string{"x", "p", "y"}, core.RoleSO, core.RoleP)
			// From the last IDs down, so the overlay's added terms are
			// extracted and encoded in every answer.
			written = written[:0]
			for i := 0; len(wr.buf) < 60<<10; i++ {
				row[0], row[1], row[2] = core.ID(n-1-i%n), core.ID(np-1-i%np), core.ID((i+7)%n)
				wr.WriteRow(row)
				written = append(written, row...)
			}
			wr.End()
			size = len(wr.buf)
			return wr
		}
		wr := render()
		body, ids := wr.Pending()
		if len(body) != size || !slices.Equal(ids, written) {
			t.Fatalf("%s: Pending holds %d bytes and %d IDs, want the %d-byte answer and the %d IDs written",
				name, len(body), len(ids), size, len(written))
		}
		wr.Release()
		if cap(wr.buf) < size || cap(wr.kept) < len(written) {
			t.Fatalf("%s: Release dropped the %d-byte answer's buffer (cap %d) or its %d IDs' (cap %d)",
				name, size, cap(wr.buf), len(written), cap(wr.kept))
		}
		if size < 60<<10 || size >= StreamAt {
			t.Fatalf("%s: answer of %d bytes: want one held whole, between 60 KiB and StreamAt", name, size)
		}

		// Past StreamAt the writer flushes, and from then on keeps no IDs.
		wr = Acquire(JSON, st, io.Discard)
		wr.Begin([]string{"x", "p", "y"}, core.RoleSO, core.RoleP)
		for i := 0; !wr.flushed; i++ {
			row[0], row[1], row[2] = core.ID(i%n), core.ID(i%np), core.ID((i+7)%n)
			wr.WriteRow(row)
		}
		wr.WriteRow(row)
		if body, ids := wr.Pending(); len(body) == 0 || len(ids) != 0 {
			t.Fatalf("%s: after a flush Pending holds %d bytes and %d IDs, want the tail and no IDs", name, len(body), len(ids))
		}
		wr.Release()

		// A Flush before Begin writes nothing and keeps no IDs: the form a
		// caller uses that will not read them.
		var out bytes.Buffer
		wr = Acquire(JSON, st, &out)
		wr.Flush()
		wr.Begin([]string{"x", "p", "y"}, core.RoleSO, core.RoleP)
		wr.WriteRow(row)
		wr.End()
		if body, ids := wr.Pending(); out.Len() != 0 || len(body) == 0 || len(ids) != 0 {
			t.Fatalf("%s: flushed before Begin: %d bytes written, Pending holds %d bytes and %d IDs; want none, the answer and none",
				name, out.Len(), len(body), len(ids))
		}
		wr.Release()
		if raceEnabled {
			continue
		}
		if a := testing.AllocsPerRun(50, func() { render().Release() }); a >= 1 {
			t.Errorf("%s: %v allocs per pooled %d-byte answer, want 0", name, a, size)
		}
	}
}

// BenchmarkSerializerRows measures rows/sec per format over a warm term
// cache — the steady state the protocol endpoint serves from.
func BenchmarkSerializerRows(b *testing.B) {
	st, sorted := termStore(b, manyTerms(2048))
	n := len(sorted)
	for _, f := range Formats() {
		b.Run(f.String(), func(b *testing.B) {
			wr := Acquire(f, st, io.Discard)
			defer wr.Release()
			wr.Begin([]string{"x", "y"})
			row := make([]core.ID, 2)
			for i := 0; i < n; i++ {
				row[0], row[1] = core.ID(i), core.ID((i+7)%n)
				wr.WriteRow(row)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row[0], row[1] = core.ID(i%n), core.ID((i+13)%n)
				wr.WriteRow(row)
			}
			wr.End()
			wr.Flush()
		})
	}
}

// TestWriterTermTable drives the writer's term table through growth and
// SO/P collisions in one wide request, then through more than two
// generation wraps of one pooled writer, alternating stores that render
// the same IDs differently: every row must carry its own store's terms.
func TestWriterTermTable(t *testing.T) {
	var stores [2]*store.Store
	for k, prefix := range []string{"a", "b"} {
		so, p := make([]string, 3000), make([]string, 4)
		for i := range so {
			so[i] = fmt.Sprintf("<http://%s/e%06d>", prefix, i)
		}
		for i := range p {
			p[i] = fmt.Sprintf("<http://%s/p%d>", prefix, i)
		}
		sod, err := dict.New(so, dict.DefaultBucketSize)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := dict.New(p, dict.DefaultBucketSize)
		if err != nil {
			t.Fatal(err)
		}
		stores[k] = &store.Store{Dicts: &rdf.Dicts{SO: sod, P: pd}}
	}
	row := func(prefix string, id int) string {
		return fmt.Sprintf("<http://%s/e%06d>\t<http://%s/p%d>\n", prefix, id, prefix, id%4)
	}
	var out bytes.Buffer
	wr := Acquire(TSV, stores[0], &out)
	wr.Begin([]string{"s", "p"}, core.RoleSO, core.RoleP)
	want := "?s\t?p\n"
	for pass := 0; pass < 2; pass++ {
		for id := 0; id < 3000; id++ {
			wr.WriteRow([]core.ID{core.ID(id), core.ID(id % 4)})
			want += row("a", id)
		}
	}
	wr.End()
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	wr.Release()
	if out.String() != want {
		t.Fatal("wide request: rows differ from their terms")
	}

	// On one P the pool hands the same writer back every cycle, so its
	// table crosses the wrap (the race detector drops pooled values at
	// random, and then several writers share the cycles).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var last *Writer
	changes := 0
	for i := 0; i < 2*(1<<16)+10; i++ {
		k := i % 2
		out.Reset()
		wr := Acquire(TSV, stores[k], &out)
		if wr != last {
			last, changes = wr, changes+1
		}
		wr.Begin([]string{"s", "p"}, core.RoleSO, core.RoleP)
		id := i % 7
		wr.WriteRow([]core.ID{core.ID(id), core.ID(id % 4)})
		wr.WriteRow([]core.ID{core.ID(id), core.ID(id % 4)})
		wr.End()
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		wr.Release()
		if r := row([]string{"a", "b"}[k], id); out.String() != "?s\t?p\n"+r+r {
			t.Fatalf("cycle %d: %q, want two of %q", i, out.String(), r)
		}
	}
	t.Logf("the pooled writer changed %d times", changes)
}
