package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rdfindexes/internal/store"
)

// TestParseUpdate pins the update grammar: what it accepts, the terms it
// cuts, and the unsupported forms it names.
func TestParseUpdate(t *testing.T) {
	for _, c := range []struct {
		text string
		want update
	}{
		{"INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> . }",
			update{true, "<http://ex/a>", "<http://ex/p>", "<http://ex/b>"}},
		{"delete data{<a> <p> <b>}", update{false, "<a>", "<p>", "<b>"}},
		{"\n\tInsert\r\nData\n{\n_:b0 <p> \"x } y\" .\n}\n;\n", update{true, "_:b0", "<p>", `"x } y"`}},
		{`INSERT DATA { <a> <p> "q\"uo}te\\" . }`, update{true, "<a>", "<p>", `"q\"uo}te\\"`}},
		{`INSERT DATA { <a> <p> "chat"@en-GB}`, update{true, "<a>", "<p>", `"chat"@en-GB`}},
		{`INSERT DATA { <a> <p> "1"^^<http://www.w3.org/2001/XMLSchema#int>.}`,
			update{true, "<a>", "<p>", `"1"^^<http://www.w3.org/2001/XMLSchema#int>`}},
		{"INSERT DATA { 1 2 3. }", update{true, "1", "2", "3"}},
	} {
		got, err := parseUpdate(c.text)
		if err != nil || got != c.want {
			t.Errorf("parseUpdate(%q) = %+v, %v; want %+v", c.text, got, err, c.want)
		}
	}
	for _, c := range []struct{ text, names string }{
		{"", "empty"},
		{"  \n ", "empty"},
		{"{ <a> <p> <b> }", "must start with"},
		{"PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:p ex:b }", "PREFIX"},
		{"BASE <http://ex/> INSERT DATA { <a> <p> <b> }", "BASE"},
		{"INSERT { ?s <p> <o> } WHERE { ?s <q> <o> }", "WHERE"},
		{"DELETE WHERE { ?s ?p ?o }", "WHERE"},
		{"CLEAR ALL", "CLEAR"},
		{"LOAD <http://ex/data>", "LOAD"},
		{"INSERT DATA <a> <p> <b>", "'{'"},
		{"INSERT DATA { GRAPH <g> { <a> <p> <b> } }", "GRAPH"},
		{"INSERT DATA { <a> <p> <b> . <c> <p> <d> . }", "exactly one triple"},
		{"INSERT DATA { <a> <p> }", "exactly one triple"},
		{"INSERT DATA { }", "exactly one triple"},
		{"INSERT DATA { <a> <p> <b> .", "missing '}'"},
		{"INSERT DATA { <a> <p> <b> } ; DELETE DATA { <a> <p> <b> }", "more than one operation"},
		{"INSERT DATA { <a <p> <b> }", "exactly one triple"},
		{"INSERT DATA { <a> <p> \"open }", "unterminated literal"},
		{"INSERT DATA { <a> <p> \"x\"^^<dt }", "unterminated datatype"},
		{"INSERT DATA { <a> <p> <b", "unterminated IRI"},
		{"INSERT DATA { <a> <p> {", "unexpected"},
	} {
		_, err := parseUpdate(c.text)
		if err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("parseUpdate(%q) error %v, want one naming %q", c.text, err, c.names)
		}
	}
}

// literalSubjectUpdate inserts a triple whose subject is a numeric
// literal, which N-Triples forbids: the store refuses it, a 400.
const literalSubjectUpdate = `INSERT DATA { "42"^^<http://www.w3.org/2001/XMLSchema#integer> <http://ex/knows> <http://ex/p0> . }`

// TestUpdateStatuses runs updates through /sparql on a mutable store:
// applied ones answer the store's WriteResult, bad terms (a literal
// subject among them) and unsupported text are the client's 400 in the
// unified error document, and the triple count follows only the changes
// reported.
func TestUpdateStatuses(t *testing.T) {
	srv := NewMutable(mutableStore(t, t.TempDir(), 10, 2, 0), Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	base := srv.Snapshot().Triples

	for _, c := range []struct {
		update  string
		status  int
		changed bool
		triples int
	}{
		{dataUpdate("INSERT", "<http://ex/n>", "<http://ex/knows>", `"a literal, with } and \"quotes\""`), 200, true, base + 1},
		{dataUpdate("INSERT", "<http://ex/n>", "<http://ex/knows>", `"a literal, with } and \"quotes\""`), 200, false, base + 1},
		{dataUpdate("DELETE", "<http://ex/n>", "<http://ex/knows>", `"a literal, with } and \"quotes\""`), 200, true, base},
		{dataUpdate("DELETE", "<http://ex/nobody>", "<http://ex/knows>", "<http://ex/p0>"), 200, false, base},
		{dataUpdate("INSERT", "<http://ex/n>", `"not a predicate"`, "<http://ex/p0>"), 400, false, base},
		{dataUpdate("INSERT", "ex:n", "<http://ex/knows>", "<http://ex/p0>"), 400, false, base},
		{dataUpdate("INSERT", `"a literal"`, "<http://ex/knows>", "<http://ex/p0>"), 400, false, base},
		{literalSubjectUpdate, 400, false, base},
		{"INSERT { ?s <http://ex/knows> <http://ex/p0> } WHERE { ?s <http://ex/likes> ?o }", 400, false, base},
	} {
		resp, body := postUpdate(t, ts, c.update)
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d; body %s", c.update, resp.StatusCode, c.status, body)
		}
		if c.status != 200 {
			errorShape(t, resp, []byte(body))
		} else {
			var res store.WriteResult
			if err := json.Unmarshal([]byte(body), &res); err != nil {
				t.Fatal(err)
			}
			if res.Changed != c.changed || res.Triples != c.triples {
				t.Fatalf("%s: %+v, want changed %v and %d triples", c.update, res, c.changed, c.triples)
			}
		}
		if got := srv.Snapshot().Triples; got != c.triples {
			t.Fatalf("%s: store holds %d triples, want %d", c.update, got, c.triples)
		}
	}
}

// FuzzSPARQLUpdate sends arbitrary update bodies, direct or as a form's
// update field, through the handler on a small mutable store. The answer
// is a 200, 400, 413 or 415 — never a panic or a 5xx — and the triple
// count changes only on a 200 that reports the change.
func FuzzSPARQLUpdate(f *testing.F) {
	for _, seed := range []string{
		literalSubjectUpdate,
		`INSERT DATA { <http://ex/a> <http://ex/knows> <http://ex/p0> . }`,
		`DELETE DATA { <http://ex/p0> <http://ex/knows> <http://ex/p1> . }`,
		`insert data{<http://ex/a> <http://ex/likes> "spaces, a } and \"escapes\"\n\\"@en}`,
		`INSERT DATA { <http://ex/a> <http://ex/likes> "7"^^<http://www.w3.org/2001/XMLSchema#int> . }`,
		`INSERT DATA { <http://ex/a> <http://ex/knows> <http://ex/b> . <http://ex/b> <http://ex/knows> <http://ex/a> . }`,
		`PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:knows ex:b . }`,
		`INSERT { ?s <http://ex/knows> <http://ex/p0> } WHERE { ?s <http://ex/likes> ?o }`,
		``,
		strings.Repeat("x", maxQueryBytes+1),
	} {
		f.Add(seed, false)
	}
	f.Add(`DELETE DATA { _:b0 <http://ex/knows> <http://ex/p3> ; }`, true)
	srv := NewMutable(mutableStore(f, f.TempDir(), 10, 2, 16), Options{Workers: 2})
	f.Fuzz(func(t *testing.T, body string, form bool) {
		literalSubject := body == literalSubjectUpdate
		ct := sparqlUpdateType
		if form {
			ct, body = "application/x-www-form-urlencoded", url.Values{"update": {body}}.Encode()
		}
		req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(body))
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		before := srv.mut.View().Index.NumTriples()
		srv.ServeHTTP(rec, req)
		after := srv.mut.View().Index.NumTriples()

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnsupportedMediaType:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if literalSubject && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for a literal subject: %s", rec.Code, rec.Body)
		}
		changed := false
		if rec.Code == http.StatusOK {
			var res store.WriteResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 without a write result: %q: %v", rec.Body, err)
			}
			changed = res.Changed
		}
		if d := after - before; d != 0 && !changed || changed && d != 1 && d != -1 {
			t.Fatalf("%q: %d triples became %d, reported changed %v", body, before, after, changed)
		}
	})
}
