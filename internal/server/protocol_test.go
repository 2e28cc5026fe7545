package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"rdfindexes/internal/server/results"
)

const knowsQuery = "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }"

// do issues a protocol request with full control over method, headers
// and body, returning the response and its raw body bytes.
func do(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func protocolGet(t *testing.T, ts *httptest.Server, query, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return do(t, req)
}

// jsonBindings decodes a SPARQL JSON results body and returns its rows.
func jsonBindings(t *testing.T, body []byte) (vars []string, rows []map[string]map[string]string) {
	t.Helper()
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]map[string]string `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad SPARQL JSON %s: %v", body, err)
	}
	return doc.Head.Vars, doc.Results.Bindings
}

// errorShape decodes the unified error document and checks its code
// matches the HTTP status.
func errorShape(t *testing.T, resp *http.Response, body []byte) string {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("error Content-Type = %q", ct)
	}
	var doc struct {
		Error struct {
			Code    int    `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad error body %s: %v", body, err)
	}
	if doc.Error.Code != resp.StatusCode || doc.Error.Message == "" {
		t.Fatalf("error doc %+v vs status %d", doc, resp.StatusCode)
	}
	return doc.Error.Message
}

// TestProtocolFormats runs one BGP through all four negotiated formats
// and checks each body parses as its advertised media type.
func TestProtocolFormats(t *testing.T) {
	st := testStore(t, 40, 3)
	ts := httptest.NewServer(New(st, Options{Workers: 4}))
	defer ts.Close()

	for _, f := range results.Formats() {
		ct := f.ContentType()
		resp, body := protocolGet(t, ts, knowsQuery, strings.Split(ct, ";")[0])
		if resp.StatusCode != 200 {
			t.Fatalf("%v: status %d body %s", f, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Content-Type"); got != ct {
			t.Fatalf("%v: Content-Type %q, want %q", f, got, ct)
		}
		switch f {
		case results.JSON:
			vars, rows := jsonBindings(t, body)
			if len(vars) != 2 || len(rows) != 40 {
				t.Fatalf("json: vars %v rows %d", vars, len(rows))
			}
			if b := rows[0]["x"]; b["type"] != "uri" || !strings.HasPrefix(b["value"], "http://ex/p") {
				t.Fatalf("json binding %v", rows[0])
			}
		case results.XML:
			var doc struct {
				XMLName xml.Name `xml:"sparql"`
				Results []struct {
					Bindings []struct {
						URI string `xml:"uri"`
					} `xml:"binding"`
				} `xml:"results>result"`
			}
			if err := xml.Unmarshal(body, &doc); err != nil {
				t.Fatalf("xml: %v", err)
			}
			if len(doc.Results) != 40 || len(doc.Results[0].Bindings) != 2 {
				t.Fatalf("xml rows %d", len(doc.Results))
			}
		case results.CSV:
			lines := strings.Split(strings.TrimSpace(string(body)), "\r\n")
			if len(lines) != 41 || lines[0] != "x,y" {
				t.Fatalf("csv: %d lines, header %q", len(lines), lines[0])
			}
		case results.TSV:
			lines := strings.Split(strings.TrimSpace(string(body)), "\n")
			if len(lines) != 41 || lines[0] != "?x\t?y" {
				t.Fatalf("tsv: %d lines, header %q", len(lines), lines[0])
			}
			if !strings.HasPrefix(lines[1], "<http://ex/p") {
				t.Fatalf("tsv row %q", lines[1])
			}
		}
	}
}

// TestProtocolRequestForms covers the three query shapes the protocol
// defines plus the rejections around them, over-limit bodies of every
// POST form among them, all answered in the unified error document.
func TestProtocolRequestForms(t *testing.T) {
	st := testStore(t, 10, 2)
	ts := httptest.NewServer(New(st, Options{Workers: 2}))
	defer ts.Close()

	post := func(ct, body string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/sparql", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		return do(t, req)
	}

	t.Run("post direct", func(t *testing.T) {
		resp, body := post("application/sparql-query; charset=utf-8", knowsQuery)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d body %s", resp.StatusCode, body)
		}
		if _, rows := jsonBindings(t, body); len(rows) != 10 {
			t.Fatalf("rows %d", len(rows))
		}
	})
	t.Run("post form", func(t *testing.T) {
		resp, body := post("application/x-www-form-urlencoded",
			url.Values{"query": {knowsQuery}}.Encode())
		if resp.StatusCode != 200 {
			t.Fatalf("status %d body %s", resp.StatusCode, body)
		}
		if _, rows := jsonBindings(t, body); len(rows) != 10 {
			t.Fatalf("rows %d", len(rows))
		}
	})
	t.Run("unsupported media type", func(t *testing.T) {
		resp, body := post("text/turtle", knowsQuery)
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("status %d, want 415", resp.StatusCode)
		}
		errorShape(t, resp, body)
	})
	t.Run("method", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/sparql", nil)
		resp, body := do(t, req)
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD, POST" {
			t.Fatalf("status %d Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
		}
		errorShape(t, resp, body)
	})
	t.Run("post form and direct over limit", func(t *testing.T) {
		// A query padded past maxQueryBytes parses fine, so only the body
		// bound can refuse it, whichever form carries it.
		big := knowsQuery + strings.Repeat(" ", 2<<20)
		for _, c := range []struct{ ct, body string }{
			{"application/x-www-form-urlencoded", url.Values{"query": {big}}.Encode()},
			{"application/sparql-query", big},
			{"application/x-www-form-urlencoded", url.Values{"update": {big}}.Encode()},
			{sparqlUpdateType, big},
		} {
			resp, body := post(c.ct, c.body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s body of %d bytes: status %d, want 413", c.ct, len(c.body), resp.StatusCode)
			}
			errorShape(t, resp, body)
		}
	})
	t.Run("post form query and update", func(t *testing.T) {
		resp, body := post("application/x-www-form-urlencoded",
			url.Values{"query": {knowsQuery}, "update": {"INSERT DATA { <a> <b> <c> . }"}}.Encode())
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		errorShape(t, resp, body)
	})
	t.Run("missing query param", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sparql", nil)
		resp, body := do(t, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		errorShape(t, resp, body)
	})
	t.Run("parse error", func(t *testing.T) {
		resp, body := protocolGet(t, ts, "SELECT WHERE", "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		errorShape(t, resp, body)
	})
	t.Run("bad limit", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet,
			ts.URL+"/sparql?limit=-3&query="+url.QueryEscape(knowsQuery), nil)
		resp, body := do(t, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		errorShape(t, resp, body)
	})
	t.Run("limit", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet,
			ts.URL+"/sparql?limit=3&query="+url.QueryEscape(knowsQuery), nil)
		resp, body := do(t, req)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if _, rows := jsonBindings(t, body); len(rows) != 3 {
			t.Fatalf("rows %d, want 3", len(rows))
		}
	})
}

// TestProtocolNegotiationHTTP exercises negotiation end to end: q-value
// ordering, wildcard defaulting, and the 406 for unacceptable types.
func TestProtocolNegotiationHTTP(t *testing.T) {
	st := testStore(t, 10, 2)
	ts := httptest.NewServer(New(st, Options{Workers: 2}))
	defer ts.Close()

	cases := []struct {
		accept string
		wantCT string
	}{
		{"", "application/sparql-results+json"},
		{"*/*", "application/sparql-results+json"},
		{"application/sparql-results+xml;q=0.5, text/csv", "text/csv; charset=utf-8"},
		{"text/tab-separated-values;q=0.9, text/csv;q=0.2", "text/tab-separated-values; charset=utf-8"},
	}
	for _, c := range cases {
		resp, _ := protocolGet(t, ts, knowsQuery, c.accept)
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != c.wantCT {
			t.Fatalf("Accept %q: status %d Content-Type %q, want %q",
				c.accept, resp.StatusCode, resp.Header.Get("Content-Type"), c.wantCT)
		}
	}

	resp, body := protocolGet(t, ts, knowsQuery, "text/html, image/png;q=0.8")
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("406 case: status %d", resp.StatusCode)
	}
	if msg := errorShape(t, resp, body); !strings.Contains(msg, "text/csv") {
		t.Fatalf("406 message %q does not list supported types", msg)
	}
}

// TestProtocolGzip checks content negotiation on Accept-Encoding: a
// gzip-accepting client gets a compressed body that decompresses to
// exactly the identity body, and the one-piece/streamed decision is taken
// on the uncompressed size — so a body below results.StreamAt is cached (as
// its uncompressed serialization, serving both encodings) and a larger one
// is not, whichever encoding the first client asked for.
func TestProtocolGzip(t *testing.T) {
	st := testStore(t, 3000, 0)
	ts := httptest.NewServer(New(st, Options{Workers: 2}))
	defer ts.Close()

	// fetch returns the response and its body, decompressed when gz.
	fetch := func(params string, gz bool) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(knowsQuery)+params, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", "application/sparql-results+json")
		if !gz {
			resp, body := do(t, req)
			if enc := resp.Header.Get("Content-Encoding"); enc != "" {
				t.Fatalf("identity response has Content-Encoding %q", enc)
			}
			return resp, body
		}
		// An explicit Accept-Encoding disables the transport's
		// transparent decompression, exposing the raw wire bytes.
		req.Header.Set("Accept-Encoding", "gzip")
		resp, wire := do(t, req)
		if resp.StatusCode != 200 || resp.Header.Get("Content-Encoding") != "gzip" {
			t.Fatalf("status %d encoding %q", resp.StatusCode, resp.Header.Get("Content-Encoding"))
		}
		if resp.ContentLength >= 0 {
			t.Fatalf("compressed response has Content-Length %d; its length is unknown up front", resp.ContentLength)
		}
		zr, err := gzip.NewReader(bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// 500 rows render below results.StreamAt, all 3000 well above it; each
	// size is asked for gzip-first and identity-first (distinct limits
	// make distinct cache keys).
	for _, c := range []struct {
		params  string
		gzFirst bool
		cached  bool
	}{
		{"&limit=500", true, true}, {"&limit=501", false, true},
		{"", true, false}, {"&limit=2999", false, false},
	} {
		first, want := fetch(c.params, c.gzFirst)
		if first.Header.Get("X-Cache") != "miss" {
			t.Fatalf("%q: first request X-Cache %q", c.params, first.Header.Get("X-Cache"))
		}
		if small := len(want) < results.StreamAt; small != c.cached {
			t.Fatalf("%q: body of %d bytes, want below StreamAt: %v", c.params, len(want), c.cached)
		}
		for _, gz := range []bool{!c.gzFirst, c.gzFirst} {
			resp, body := fetch(c.params, gz)
			if hit := resp.Header.Get("X-Cache") == "hit"; hit != c.cached {
				t.Errorf("%q (gzip %v after gzip %v): X-Cache %q, want hit: %v",
					c.params, gz, c.gzFirst, resp.Header.Get("X-Cache"), c.cached)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%q: gzip and identity bodies differ", c.params)
			}
		}
	}
}

// TestProtocolETag checks conditional revalidation across the RCU
// generations: hits while the store is unchanged, misses after an
// insert bumps the generation and again after a merge remaps it.
func TestProtocolETag(t *testing.T) {
	dir := t.TempDir()
	m := mutableStore(t, dir, 10, 2, 0)
	ts := httptest.NewServer(NewMutable(m, Options{Workers: 2}))
	defer ts.Close()

	conditional := func(etag string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(knowsQuery), nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		return do(t, req)
	}

	resp, _ := conditional("")
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != 200 || etag == "" {
		t.Fatalf("initial: status %d etag %q", resp.StatusCode, etag)
	}
	if vary := resp.Header.Get("Vary"); !strings.Contains(vary, "Accept") {
		t.Fatalf("Vary = %q", vary)
	}

	// Unchanged store: the validator holds, including as a weak match.
	if resp, _ := conditional(etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: status %d, want 304", resp.StatusCode)
	}
	if resp, _ := conditional("W/" + etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("weak revalidation: status %d, want 304", resp.StatusCode)
	}
	// A different format under the same generation is a different
	// representation, so a JSON validator must not revalidate CSV.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(knowsQuery), nil)
	req.Header.Set("Accept", "text/csv")
	req.Header.Set("If-None-Match", etag)
	if resp, _ := do(t, req); resp.StatusCode != 200 {
		t.Fatalf("cross-format revalidation: status %d, want 200", resp.StatusCode)
	}

	// An insert bumps the generation: the old validator misses and the
	// fresh response carries a new one.
	if resp, body := postUpdate(t, ts, dataUpdate("INSERT", "<http://ex/p0>", "<http://ex/knows>", "<http://ex/p5>")); resp.StatusCode != 200 {
		t.Fatalf("insert: status %d body %s", resp.StatusCode, body)
	}
	resp, _ = conditional(etag)
	etag2 := resp.Header.Get("ETag")
	if resp.StatusCode != 200 || etag2 == etag || etag2 == "" {
		t.Fatalf("post-insert: status %d etag %q (was %q)", resp.StatusCode, etag2, etag)
	}
	if resp, _ := conditional(etag2); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("post-insert revalidation: status %d, want 304", resp.StatusCode)
	}

	// A merge rebuilds the store and remaps dictionary IDs under yet
	// another generation; the pre-merge validator must miss.
	if err := m.Merge(); err != nil {
		t.Fatal(err)
	}
	resp, body := conditional(etag2)
	if resp.StatusCode != 200 {
		t.Fatalf("post-merge: status %d", resp.StatusCode)
	}
	if etag3 := resp.Header.Get("ETag"); etag3 == etag2 || etag3 == "" {
		t.Fatalf("post-merge etag %q unchanged", etag3)
	}
	if _, rows := jsonBindings(t, body); len(rows) != 11 {
		t.Fatalf("post-merge rows %d, want 11", len(rows))
	}
}

// TestRetiredDialectRoutes pins the removal of the NDJSON dialect: its
// seven routes are gone, and /sparql carries no deprecation headers.
func TestRetiredDialectRoutes(t *testing.T) {
	st := testStore(t, 10, 2)
	ts := httptest.NewServer(New(st, Options{Workers: 2}))
	defer ts.Close()

	for _, path := range []string{"/v1/query", "/v1/sparql", "/v1/insert", "/v1/delete", "/query", "/insert", "/delete"} {
		resp, _ := get(t, ts, path+"?p="+url.QueryEscape("<http://ex/knows>"))
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, _ := protocolGet(t, ts, knowsQuery, "")
	for _, h := range []string{"Deprecation", "Sunset", "Link"} {
		if v := resp.Header.Get(h); v != "" {
			t.Errorf("/sparql carries %s: %q", h, v)
		}
	}
}

// TestProtocolStats checks queries and updates on /sparql count apart:
// queries under protocol_queries, updates under inserts and deletes by
// verb, and an update that fails to parse under neither.
func TestProtocolStats(t *testing.T) {
	srv := NewMutable(mutableStore(t, t.TempDir(), 10, 2, 0), Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	protocolGet(t, ts, knowsQuery, "")
	postUpdate(t, ts, dataUpdate("INSERT", "<http://ex/p0>", "<http://ex/knows>", "<http://ex/p7>"))
	postUpdate(t, ts, dataUpdate("DELETE", "<http://ex/p0>", "<http://ex/knows>", "<http://ex/p7>"))
	postUpdate(t, ts, "CLEAR ALL")
	snap := srv.Snapshot()
	if snap.ProtocolQueries != 1 || snap.Inserts != 1 || snap.Deletes != 1 || snap.Failed != 1 {
		t.Fatalf("protocol %d inserts %d deletes %d failed %d, want 1, 1, 1 and 1",
			snap.ProtocolQueries, snap.Inserts, snap.Deletes, snap.Failed)
	}
}

// TestStatsDocumentKeys pins the /stats keys that readers outside this
// package decode — the socket benchmark reads merges and workers — and
// the absence of the retired dialect's counters.
func TestStatsDocumentKeys(t *testing.T) {
	srv := NewMutable(mutableStore(t, t.TempDir(), 10, 2, 0), Options{Workers: 3})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, body := get(t, ts, "/stats")
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if w, ok := doc["workers"].(float64); !ok || w != 3 {
		t.Errorf("workers = %v, want 3", doc["workers"])
	}
	if _, ok := doc["merges"].(float64); !ok {
		t.Errorf("merges missing or not a number: %v", doc["merges"])
	}
	for _, gone := range []string{"queries", "sparql_queries"} {
		if v, ok := doc[gone]; ok {
			t.Errorf("/stats still carries %s: %v", gone, v)
		}
	}
}

// TestOptionsValidate covers the new Options surface: rejected
// negatives and the accepted meaningful ones.
func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero Options invalid: %v", err)
	}
	// Negative CacheEntries (cache off) and BreakerThreshold (breaker
	// off) carry meaning and validate.
	if err := (Options{CacheEntries: -1, BreakerThreshold: -1}).Validate(); err != nil {
		t.Fatalf("meaningful negatives rejected: %v", err)
	}
	for _, bad := range []Options{
		{Workers: -1},
		{Timeout: -time.Second},
		{RateLimit: -0.5},
		{RateBurst: -2},
		{BreakerCooldown: -time.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", bad)
		}
	}
}

// TestPredicateVariable asks for the predicates and objects of one
// subject — the query every format used to answer with subject/object
// terms in the ?p column — through the four protocol formats, and with
// the subject given as its <id> constant.
func TestPredicateVariable(t *testing.T) {
	st := testStore(t, 10, 2)
	ts := httptest.NewServer(New(st, Options{}))
	defer ts.Close()
	const query = "SELECT ?p ?o WHERE { <http://ex/p3> ?p ?o . }"
	// p3 knows p4 and likes item3 and item4.
	wantCSV := "p,o\r\nhttp://ex/knows,http://ex/p4\r\nhttp://ex/likes,http://ex/item3\r\nhttp://ex/likes,http://ex/item4\r\n"
	if _, body := protocolGet(t, ts, query, "text/csv"); string(body) != wantCSV {
		t.Errorf("csv body %q, want %q", body, wantCSV)
	}
	wantTSV := "?p\t?o\n<http://ex/knows>\t<http://ex/p4>\n<http://ex/likes>\t<http://ex/item3>\n<http://ex/likes>\t<http://ex/item4>\n"
	if _, body := protocolGet(t, ts, query, "text/tab-separated-values"); string(body) != wantTSV {
		t.Errorf("tsv body %q, want %q", body, wantTSV)
	}
	_, body := protocolGet(t, ts, query, "application/sparql-results+json")
	_, rows := jsonBindings(t, body)
	if len(rows) != 3 || rows[0]["p"]["value"] != "http://ex/knows" || rows[0]["p"]["type"] != "uri" ||
		rows[2]["p"]["value"] != "http://ex/likes" || rows[2]["o"]["value"] != "http://ex/item4" {
		t.Errorf("json rows %v", rows)
	}
	_, body = protocolGet(t, ts, query, "application/sparql-results+xml")
	if got := strings.Count(string(body), `<binding name="p"><uri>http://ex/likes</uri></binding>`); got != 2 {
		t.Errorf("xml body has %d likes predicates, want 2: %s", got, body)
	}

	id, err := st.ParseTerm("<http://ex/p3>", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, body := protocolGet(t, ts, fmt.Sprintf("SELECT ?p ?o WHERE { <%d> ?p ?o . }", id), "text/tab-separated-values"); string(body) != wantTSV {
		t.Errorf("tsv body of the <id> query %q, want %q", body, wantTSV)
	}
}

// TestMixedRoleVariable: a variable joining a predicate position with a
// subject/object one compares IDs of two unrelated spaces; every route
// that plans the query refuses it with the unified 400 body.
func TestMixedRoleVariable(t *testing.T) {
	srv := New(testStore(t, 10, 2), Options{})
	ts := httptest.NewServer(srv)
	const query = "SELECT ?x WHERE { <http://ex/p3> ?x ?o . ?x <http://ex/knows> ?y . }"
	for _, path := range []string{
		"/sparql?query=" + url.QueryEscape(query),
		"/sparql?explain=1&query=" + url.QueryEscape(query),
	} {
		resp, body := get(t, ts, path)
		var doc errorDoc
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s: body %q: %v", path, body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || doc.Error.Code != http.StatusBadRequest ||
			!strings.Contains(doc.Error.Message, "?x") {
			t.Errorf("%s: status %d, error %+v", path, resp.StatusCode, doc.Error)
		}
	}
	ts.Close() // waits for the handlers' deferred releases
	if got := srv.Snapshot().InFlight; got != 0 {
		t.Errorf("rejected plans left %d workers claimed", got)
	}
}

// FuzzSPARQLQuery sends arbitrary query text through /sparql in all
// three request forms — GET ?query=, a direct application/sparql-query
// POST and a form POST — on a 12-triple store. Every answer is a 200,
// 400, 413 or 415: never a panic or a 5xx. A row limit keeps a fuzzed
// cartesian product from building a body the size of its cube.
func FuzzSPARQLQuery(f *testing.F) {
	for _, seed := range []string{
		knowsQuery,
		"SELECT * WHERE { ?a <http://ex/knows> ?b . ?c <http://ex/likes> ?d . }",
		"SELECT ?p ?o WHERE { <http://ex/p0> ?p ?o . }",
		"SELECT ?x WHERE { ?x <http://ex/knows> ?x . }",
		"SELECT ?x WHERE { ?x <http://ex/nowhere> <http://ex/nobody> . }",
		`SELECT ?x WHERE { ?x <http://ex/likes> "a \"quoted\" } \\ \né"@en . }`,
		`SELECT ?x WHERE { ?x <http://ex/likes> "7"^^<http://www.w3.org/2001/XMLSchema#int> . }`,
		"SELECT ?s ?p ?o WHERE { ?s ?p ?o . } LIMIT 3",
		"INSERT DATA { <http://ex/a> <http://ex/knows> <http://ex/b> . }",
		"",
		strings.Repeat("x", maxQueryBytes+1),
	} {
		f.Add(seed)
	}
	srv := New(testStore(f, 4, 2), Options{Workers: 2})
	f.Fuzz(func(t *testing.T, query string) {
		const target = "/sparql?limit=4096"
		get := httptest.NewRequest(http.MethodGet, target+"&query="+url.QueryEscape(query), nil)
		direct := httptest.NewRequest(http.MethodPost, target, strings.NewReader(query))
		direct.Header.Set("Content-Type", sparqlQueryType)
		form := httptest.NewRequest(http.MethodPost, target, strings.NewReader(url.Values{"query": {query}}.Encode()))
		form.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		for _, req := range []*http.Request{get, direct, form} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnsupportedMediaType:
			default:
				t.Fatalf("%s %s: status %d for %q: %s", req.Method, req.Header.Get("Content-Type"), rec.Code, query, rec.Body)
			}
		}
	})
}
