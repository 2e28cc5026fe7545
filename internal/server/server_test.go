package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/store"
)

// testStore builds an in-memory dictionary store over a small social
// graph: people know each other and like items.
func testStore(t testing.TB, people, likesPer int) *store.Store {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < people; i++ {
		fmt.Fprintf(&sb, "<http://ex/p%d> <http://ex/knows> <http://ex/p%d> .\n", i, (i+1)%people)
		for j := 0; j < likesPer; j++ {
			fmt.Fprintf(&sb, "<http://ex/p%d> <http://ex/likes> <http://ex/item%d> .\n", i, (i+j)%(people/2+1))
		}
	}
	statements, err := rdf.ParseAll(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	d, dicts, err := rdf.Encode(statements)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	return &store.Store{Index: x, Dicts: dicts}
}

// sparqlPath is the /sparql GET path of query, with raw extra
// parameters ("limit=2&min-gen=3") in front of it.
func sparqlPath(query, params string) string {
	if params != "" {
		params += "&"
	}
	return "/sparql?" + params + "query=" + url.QueryEscape(query)
}

// rowSet renders a SPARQL JSON body's rows as sorted strings: the answer
// as a set, independent of emission order.
func rowSet(t *testing.T, body string) []string {
	t.Helper()
	_, rows := jsonBindings(t, []byte(body))
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// explainRows runs query with ?explain=1 and the extra parameters and
// returns the document's row count and truncation flag.
func explainRows(t *testing.T, ts *httptest.Server, query, params string) (rows int, truncated bool) {
	t.Helper()
	resp, body := get(t, ts, sparqlPath(query, "explain=1&"+params))
	if resp.StatusCode != 200 {
		t.Fatalf("explain %s: status %d body %s", query, resp.StatusCode, body)
	}
	var doc struct {
		Rows      int  `json:"rows"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Rows, doc.Truncated
}

// dataUpdate spells the single-triple update verb ("INSERT" or "DELETE")
// DATA { s p o . }.
func dataUpdate(verb, s, p, o string) string {
	return verb + " DATA { " + s + " " + p + " " + o + " . }"
}

// postUpdate sends one update to /sparql as an application/sparql-update
// body.
func postUpdate(t *testing.T, ts *httptest.Server, update string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sparql", sparqlUpdateType, strings.NewReader(update))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return resp, sb.String()
}

func TestServerEndpoints(t *testing.T) {
	st := testStore(t, 40, 3)
	st.Integrity.Version = store.CurrentVersion // as if opened from a file
	srv := New(st, Options{Workers: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	t.Run("healthz", func(t *testing.T) {
		resp, body := get(t, ts, "/healthz")
		if resp.StatusCode != 200 || !strings.Contains(body, "ok") {
			t.Fatalf("healthz: %d %q", resp.StatusCode, body)
		}
	})

	t.Run("readyz", func(t *testing.T) {
		resp, body := get(t, ts, "/readyz")
		if resp.StatusCode != 200 || !strings.Contains(body, "ready") {
			t.Fatalf("readyz: %d %q", resp.StatusCode, body)
		}
	})

	p0 := "SELECT ?p ?o WHERE { <http://ex/p0> ?p ?o . }"
	t.Run("query", func(t *testing.T) {
		resp, body := get(t, ts, sparqlPath(p0, ""))
		if resp.StatusCode != 200 {
			t.Fatalf("query: status %d body %q", resp.StatusCode, body)
		}
		vars, rows := jsonBindings(t, []byte(body))
		// p0 knows p1 and likes 3 items.
		if len(vars) != 2 || len(rows) != 4 {
			t.Fatalf("expected 4 rows of ?p ?o for <p0>, got vars %v rows %v", vars, rows)
		}
		for _, row := range rows {
			if row["p"]["value"] == "http://ex/knows" && row["o"]["value"] != "http://ex/p1" {
				t.Fatalf("p0 knows %v, want http://ex/p1", row["o"])
			}
		}
	})

	t.Run("query limit truncates", func(t *testing.T) {
		_, body := get(t, ts, sparqlPath(p0, "limit=2"))
		if _, rows := jsonBindings(t, []byte(body)); len(rows) != 2 {
			t.Fatalf("limit=2 returned %d rows", len(rows))
		}
		if rows, truncated := explainRows(t, ts, p0, "limit=2"); rows != 2 || !truncated {
			t.Fatalf("limit=2 explain: %d rows, truncated %v", rows, truncated)
		}
	})

	t.Run("query exact limit is not truncated", func(t *testing.T) {
		// p0 has exactly 4 triples; limit=4 returns the complete result.
		if rows, truncated := explainRows(t, ts, p0, "limit=4"); rows != 4 || truncated {
			t.Fatalf("limit=4 explain: %d rows, truncated %v", rows, truncated)
		}
	})

	t.Run("query cache", func(t *testing.T) {
		path := sparqlPath("SELECT ?s ?o WHERE { ?s <http://ex/knows> ?o . }", "")
		resp1, body1 := get(t, ts, path)
		resp2, body2 := get(t, ts, path)
		if resp1.Header.Get("X-Cache") != "miss" {
			t.Fatalf("first query X-Cache=%q, want miss", resp1.Header.Get("X-Cache"))
		}
		if resp2.Header.Get("X-Cache") != "hit" {
			t.Fatalf("second identical query not served from cache (X-Cache=%q)", resp2.Header.Get("X-Cache"))
		}
		if body1 != body2 {
			t.Fatalf("the hit's body differs from the miss's")
		}
	})

	t.Run("query bad term", func(t *testing.T) {
		resp, _ := get(t, ts, sparqlPath("SELECT ?p ?o WHERE { <http://ex/nobody> ?p ?o . }", ""))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown term: status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("sparql", func(t *testing.T) {
		resp, body := get(t, ts, sparqlPath(knowsQuery, ""))
		if resp.StatusCode != 200 {
			t.Fatalf("sparql: status %d body %q", resp.StatusCode, body)
		}
		if _, rows := jsonBindings(t, []byte(body)); len(rows) != 40 {
			t.Fatalf("expected 40 knows-solutions, got %d", len(rows))
		}
		// Different spelling of the same BGP: the result cache keyed on
		// normalized text serves it without execution.
		q2 := "SELECT ?x ?y WHERE   {   ?x   <http://ex/knows>   ?y   . }"
		resp2, body2 := get(t, ts, sparqlPath(q2, ""))
		if resp2.Header.Get("X-Cache") != "hit" {
			t.Fatalf("normalized respelling not served from result cache")
		}
		if body2 != body {
			t.Fatalf("cached sparql body differs")
		}
	})

	t.Run("sparql join", func(t *testing.T) {
		q := "SELECT ?x WHERE { <http://ex/p0> <http://ex/knows> ?x . ?x <http://ex/likes> <http://ex/item1> . }"
		resp, body := get(t, ts, sparqlPath(q, ""))
		if resp.StatusCode != 200 {
			t.Fatalf("sparql join: status %d", resp.StatusCode)
		}
		// p0 knows p1; p1 likes item1..item3, so one solution.
		if _, rows := jsonBindings(t, []byte(body)); len(rows) != 1 || rows[0]["x"]["value"] != "http://ex/p1" {
			t.Fatalf("join solutions %v, want x = http://ex/p1", rows)
		}
	})

	t.Run("sparql parse error", func(t *testing.T) {
		resp, _ := get(t, ts, sparqlPath("SELECT WHERE", ""))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("parse error: status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("stats", func(t *testing.T) {
		resp, body := get(t, ts, "/stats")
		if resp.StatusCode != 200 {
			t.Fatalf("stats: %d", resp.StatusCode)
		}
		var s Stats
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		if s.Layout != "2Tp" || s.Triples != st.Index.NumTriples() || s.Workers != 4 || s.FormatVersion != store.CurrentVersion {
			t.Fatalf("stats document wrong: %+v", s)
		}
		if s.ProtocolQueries == 0 || s.CacheHits == 0 {
			t.Fatalf("counters not advancing: %+v", s)
		}
	})
}

// TestServerSharedStoreStress fires 16 concurrent clients mixing triple
// pattern and BGP queries at one shared store; run with -race to enforce
// the shared-store concurrency contract end to end (HTTP handler,
// worker pool, result cache, the index's pooled selection states,
// executor).
func TestServerSharedStoreStress(t *testing.T) {
	st := testStore(t, 60, 4)
	srv := New(st, Options{Workers: 8, CacheEntries: 32})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	queries := []string{
		sparqlPath("SELECT ?p ?o WHERE { <http://ex/p1> ?p ?o . }", ""),
		sparqlPath("SELECT ?s ?o WHERE { ?s <http://ex/knows> ?o . }", ""),
		sparqlPath("SELECT ?s ?p WHERE { ?s ?p <http://ex/item2> . }", ""),
		sparqlPath("SELECT ?p WHERE { <http://ex/p3> ?p <http://ex/p4> . }", ""),
		sparqlPath("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }", ""),
		sparqlPath("SELECT ?x WHERE { ?x <http://ex/likes> <http://ex/item1> . ?x <http://ex/likes> <http://ex/item2> . }", ""),
		sparqlPath("SELECT ?x ?z WHERE { <http://ex/p0> <http://ex/knows> ?x . ?x <http://ex/likes> ?z . }", ""),
		"/stats",
		"/healthz",
	}

	// Reference bodies computed sequentially before the storm; dynamic
	// endpoints (stats) are checked for status only.
	want := map[string]string{}
	for _, qp := range queries {
		if strings.HasPrefix(qp, "/stats") || strings.HasPrefix(qp, "/healthz") {
			continue
		}
		resp, body := get(t, ts, qp)
		if resp.StatusCode != 200 {
			t.Fatalf("reference %s: status %d", qp, resp.StatusCode)
		}
		want[qp] = body
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				qp := queries[rng.Intn(len(queries))]
				resp, err := http.Get(ts.URL + qp)
				if err != nil {
					errs <- err.Error()
					return
				}
				var sb strings.Builder
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 1<<20), 1<<24)
				for sc.Scan() {
					sb.WriteString(sc.Text())
					sb.WriteByte('\n')
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Sprintf("%s: status %d", qp, resp.StatusCode)
					return
				}
				if ref, ok := want[qp]; ok && sb.String() != ref {
					errs <- fmt.Sprintf("%s: concurrent body differs from sequential reference", qp)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	s := srv.Snapshot()
	if s.CacheHits == 0 {
		t.Fatalf("stress run produced no cache hits: %+v", s)
	}
}

// mutableStore writes the testStore dataset to disk and opens it for
// updates.
func mutableStore(t testing.TB, dir string, people, likesPer, threshold int) *store.Mutable {
	t.Helper()
	st := testStore(t, people, likesPer)
	path := filepath.Join(dir, "srv.idx")
	if err := store.Write(path, st); err != nil {
		t.Fatal(err)
	}
	m, err := store.OpenMutable(path, threshold)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func postForm(t *testing.T, ts *httptest.Server, path string, vals url.Values) (*http.Response, string) {
	t.Helper()
	resp, err := http.PostForm(ts.URL+path, vals)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return resp, sb.String()
}

// TestServerLimitValidation pins the limit parameter contract: negative
// limits are a 400 (only absence means unlimited), and limit=0 yields
// zero result rows, reported as truncated.
func TestServerLimitValidation(t *testing.T) {
	st := testStore(t, 10, 2)
	srv := New(st, Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, params := range []string{"limit=-5", "limit=-1"} {
		resp, _ := get(t, ts, sparqlPath(knowsQuery, params))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", params, resp.StatusCode)
		}
	}

	resp, body := get(t, ts, sparqlPath(knowsQuery, "limit=0"))
	if resp.StatusCode != 200 {
		t.Fatalf("limit=0 status %d", resp.StatusCode)
	}
	if vars, rows := jsonBindings(t, []byte(body)); len(vars) != 2 || len(rows) != 0 {
		t.Fatalf("limit=0 returned vars %v and %d rows, want the head only", vars, len(rows))
	}
	if rows, truncated := explainRows(t, ts, knowsQuery, "limit=0"); rows != 0 || !truncated {
		t.Fatalf("limit=0 explain: %d rows, truncated %v", rows, truncated)
	}
}

// TestServerReadOnlyRejectsWrites checks the fixed-store server keeps
// its immutability contract against updates.
func TestServerReadOnlyRejectsWrites(t *testing.T) {
	st := testStore(t, 10, 2)
	srv := New(st, Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, body := postUpdate(t, ts, dataUpdate("INSERT", "<http://ex/x>", "<http://ex/knows>", "<http://ex/y>"))
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only insert: status %d, want 403", resp.StatusCode)
	}
	errorShape(t, resp, []byte(body))
	if got := srv.Snapshot().Triples; got != st.Index.NumTriples() {
		t.Fatalf("read-only store changed to %d triples", got)
	}
}

// TestServerWriteEndpoints is the end-to-end acceptance demo: serve a
// built store, insert a triple with a brand-new IRI as a SPARQL update,
// observe it immediately on /sparql (cache invalidated), restart from the
// WAL and still see it, then force a merge and check query results are
// unchanged.
func TestServerWriteEndpoints(t *testing.T) {
	dir := t.TempDir()
	m := mutableStore(t, dir, 20, 2, 0)
	srv := NewMutable(m, Options{Workers: 4})
	ts := httptest.NewServer(srv)

	newbie := "<http://ex/newcomer>"
	newbieQuery := "SELECT ?p ?o WHERE { " + newbie + " ?p ?o . }"
	queryPath := sparqlPath(newbieQuery, "")
	knowsPath := sparqlPath("SELECT ?s ?o WHERE { ?s <http://ex/knows> ?o . }", "")

	// Unknown term: 400 before the insert. Warm the predicate query into
	// the result cache so the invalidation is observable.
	if resp, _ := get(t, ts, queryPath); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pre-insert query: status %d, want 400", resp.StatusCode)
	}
	_, knowsBefore := get(t, ts, knowsPath)
	if resp, _ := get(t, ts, knowsPath); resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("warmup query not cached")
	}

	// Updates travel only as POST: a GET carrying one is a query request
	// without a query, and another method is a 405.
	insert := dataUpdate("INSERT", newbie, "<http://ex/knows>", "<http://ex/p0>")
	if resp, _ := get(t, ts, "/sparql?update="+url.QueryEscape(insert)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET update: status %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/sparql", strings.NewReader(insert))
	if resp, _ := do(t, req); resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") == "" {
		t.Fatalf("PUT update: status %d Allow %q, want 405 with Allow", resp.StatusCode, resp.Header.Get("Allow"))
	}
	resp, body := postUpdate(t, ts, insert)
	if resp.StatusCode != 200 {
		t.Fatalf("insert: status %d body %s", resp.StatusCode, body)
	}
	var wr store.WriteResult
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &wr); err != nil {
		t.Fatal(err)
	}
	if !wr.Changed || wr.LogSize != 1 {
		t.Fatalf("insert result %+v", wr)
	}
	if got := resp.Header.Get(generationHeader); got != strconv.FormatUint(wr.Generation, 10) {
		t.Fatalf("generation header %q, result %d", got, wr.Generation)
	}

	// The new triple is visible immediately.
	resp, body = get(t, ts, queryPath)
	if resp.StatusCode != 200 {
		t.Fatalf("post-insert query: status %d", resp.StatusCode)
	}
	_, rows := jsonBindings(t, []byte(body))
	if len(rows) != 1 || rows[0]["o"]["value"] != "http://ex/p0" {
		t.Fatalf("post-insert rows %v", rows)
	}
	// The cached predicate query was invalidated: fresh body, one more row.
	resp, knowsAfter := get(t, ts, knowsPath)
	if resp.Header.Get("X-Cache") == "hit" {
		t.Fatal("stale cache entry served after insert")
	}
	if len(rowSet(t, knowsAfter)) != len(rowSet(t, knowsBefore))+1 {
		t.Fatal("predicate query did not gain the inserted row")
	}
	if n := srv.Snapshot(); !n.Mutable || n.Inserts != 1 || n.LogSize != 1 {
		t.Fatalf("stats after insert: %+v", n)
	}

	// Restart: close the server and the store, reopen from disk + WAL.
	ts.Close()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := store.OpenMutable(filepath.Join(dir, "srv.idx"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	srv = NewMutable(m2, Options{Workers: 4})
	ts = httptest.NewServer(srv)
	defer ts.Close()

	resp, body = get(t, ts, queryPath)
	if resp.StatusCode != 200 {
		t.Fatalf("post-restart query: status %d", resp.StatusCode)
	}
	if _, rows := jsonBindings(t, []byte(body)); len(rows) != 1 {
		t.Fatalf("WAL recovery lost the insert: %v", rows)
	}
	// A merge remaps dictionary IDs, which legitimately permutes the
	// emission order; compare result sets, not byte streams.
	_, fullBefore := get(t, ts, knowsPath)

	// Forced merge folds the log into the static index; results hold.
	if err := m2.Merge(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Snapshot(); n.LogSize != 0 || n.Merges != 1 {
		t.Fatalf("stats after merge: %+v", n)
	}
	resp, body = get(t, ts, queryPath)
	if resp.StatusCode != 200 {
		t.Fatalf("post-merge query: status %d", resp.StatusCode)
	}
	if _, rows := jsonBindings(t, []byte(body)); len(rows) != 1 {
		t.Fatalf("merge lost the insert: %v", rows)
	}
	if _, fullAfter := get(t, ts, knowsPath); fmt.Sprint(rowSet(t, fullAfter)) != fmt.Sprint(rowSet(t, fullBefore)) {
		t.Fatalf("merge changed rendered query results:\n%s\nvs\n%s", fullBefore, fullAfter)
	}

	// Delete through the update form field; the triple disappears.
	resp, _ = postForm(t, ts, "/sparql", url.Values{
		"update": {dataUpdate("DELETE", newbie, "<http://ex/knows>", "<http://ex/p0>")},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	_, body = get(t, ts, queryPath)
	if _, rows := jsonBindings(t, []byte(body)); len(rows) != 0 {
		t.Fatalf("delete not visible: %v", rows)
	}
	if n := srv.Snapshot(); n.Deletes != 1 {
		t.Fatalf("stats after delete: %+v", n)
	}
}

// TestServerWriterReaderStress fires 16 concurrent readers mixing
// pattern and BGP queries while one writer inserts and deletes through
// the HTTP API; run with -race to enforce the RCU snapshot discipline
// end to end (overlay dictionaries, dynamic snapshots, generation-keyed
// caches). Readers check internal consistency (summary line matches row
// count) since results legitimately change under their feet.
func TestServerWriterReaderStress(t *testing.T) {
	dir := t.TempDir()
	m := mutableStore(t, dir, 40, 3, 64)
	srv := NewMutable(m, Options{Workers: 8, CacheEntries: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reads := []string{
		sparqlPath("SELECT ?p ?o WHERE { <http://ex/p1> ?p ?o . }", ""),
		sparqlPath("SELECT ?s ?o WHERE { ?s <http://ex/knows> ?o . }", ""),
		sparqlPath("SELECT ?s ?p WHERE { ?s ?p <http://ex/item2> . }", ""),
		sparqlPath("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }", ""),
		sparqlPath("SELECT ?x ?z WHERE { <http://ex/p0> <http://ex/knows> ?x . ?x <http://ex/likes> ?z . }", ""),
		"/stats",
	}

	const readers = 16
	const writes = 120
	var wg sync.WaitGroup
	errs := make(chan string, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			verb := "INSERT"
			if i%3 == 2 {
				verb = "DELETE"
			}
			u := dataUpdate(verb, fmt.Sprintf("<http://ex/w%d>", i%17), "<http://ex/knows>", fmt.Sprintf("<http://ex/p%d>", i%40))
			resp, err := http.Post(ts.URL+"/sparql", sparqlUpdateType, strings.NewReader(u))
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Sprintf("%s: status %d", u, resp.StatusCode)
				return
			}
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				qp := reads[rng.Intn(len(reads))]
				resp, err := http.Get(ts.URL + qp)
				if err != nil {
					errs <- err.Error()
					return
				}
				var sb strings.Builder
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 1<<20), 1<<24)
				for sc.Scan() {
					sb.WriteString(sc.Text())
					sb.WriteByte('\n')
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Sprintf("%s: status %d", qp, resp.StatusCode)
					return
				}
				if strings.HasPrefix(qp, "/sparql") {
					var doc struct {
						Results struct {
							Bindings []map[string]any `json:"bindings"`
						} `json:"results"`
					}
					if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
						errs <- fmt.Sprintf("%s: incomplete result document: %v", qp, err)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s := srv.Snapshot(); s.Inserts == 0 || s.Generation == 0 {
		t.Fatalf("writer made no progress: %+v", s)
	}
}

// TestWorkerPoolBounds floods a single-worker server and checks that the
// pool never runs more than one query at once.
func TestWorkerPoolBounds(t *testing.T) {
	st := testStore(t, 50, 3)
	srv := New(st, Options{Workers: 1, CacheEntries: -1})
	ts := httptest.NewServer(srv)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + sparqlPath("SELECT ?s ?o WHERE { ?s <http://ex/likes> ?o . }", ""))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	// A client sees its response end before the handler's deferred
	// release runs; Close waits for every handler to return.
	ts.Close()
	if got := srv.Snapshot().InFlight; got != 0 {
		t.Fatalf("in-flight count %d after drain, want 0", got)
	}
}

// lruAnswer is a one-column answer of n rows whose IDs are all n, so
// equal row counts mean equal answers; it counts 4n bytes.
func lruAnswer(n int) answer {
	ids := make([]core.ID, n)
	for i := range ids {
		ids[i] = core.ID(n)
	}
	return answer{roles: []core.Role{core.RoleSO}, ids: ids, rows: n}
}

// sameAnswer reports whether a and b hold the same rows.
func sameAnswer(a, b answer) bool {
	return a.rows == b.rows && slices.Equal(a.roles, b.roles) && slices.Equal(a.ids, b.ids)
}

func TestLRU(t *testing.T) {
	c := newLRU(2)
	c.Put("a", lruAnswer(1))
	c.Put("b", lruAnswer(2))
	if v, ok := c.Get("a"); !ok || !sameAnswer(v, lruAnswer(1)) {
		t.Fatal("a missing")
	}
	c.Put("c", lruAnswer(3)) // evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should be evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should survive")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	// The bytes of the ID rows follow inserts, refreshes, evictions and
	// flushes.
	if c.Bytes() != 4*(1+3) {
		t.Fatalf("bytes %d after evicting b, want 16", c.Bytes())
	}
	c.Put("a", lruAnswer(10))
	if c.Bytes() != 4*(10+3) {
		t.Fatalf("bytes %d after refreshing a, want 52", c.Bytes())
	}
	c.Clear()
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatalf("bytes %d, len %d after Clear", c.Bytes(), c.Len())
	}
	var disabled *lruCache
	if _, ok := disabled.Get("x"); ok {
		t.Fatal("nil cache returned a value")
	}
	disabled.Put("x", lruAnswer(1)) // must not panic
	zero := newLRU(-1)
	zero.Put("x", lruAnswer(1))
	if _, ok := zero.Get("x"); ok {
		t.Fatal("disabled cache stored a value")
	}
}

// TestLRUModel drives the cache with random Gets, Puts and Clears and
// compares every answer, length and byte total with a plain
// recency-ordered slice.
func TestLRUModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, capacity := range []int{1, 2, 3, 7} {
		c := newLRU(capacity)
		type entry struct {
			key string
			val int
		}
		var model []entry // most recently used first
		find := func(key string) int {
			for i, e := range model {
				if e.key == key {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 5000; op++ {
			key := strconv.Itoa(rng.Intn(2*capacity + 1))
			switch r := rng.Intn(20); {
			case r == 0:
				c.Clear()
				model = model[:0]
			case r < 10:
				v, ok := c.Get(key)
				i := find(key)
				if ok != (i >= 0) || ok && !sameAnswer(v, lruAnswer(model[i].val)) {
					t.Fatalf("cap %d op %d: Get(%s) = %d rows, %v; model %v", capacity, op, key, v.rows, ok, model)
				}
				if ok {
					e := model[i]
					model = append([]entry{e}, append(model[:i:i], model[i+1:]...)...)
				}
			default:
				v := rng.Intn(100)
				c.Put(key, lruAnswer(v))
				if i := find(key); i >= 0 {
					model = append(model[:i:i], model[i+1:]...)
				}
				model = append([]entry{{key, v}}, model...)
				if len(model) > capacity {
					model = model[:capacity]
				}
			}
			sum := 0
			for _, e := range model {
				sum += 4 * e.val
			}
			if c.Len() != len(model) || c.Bytes() != sum {
				t.Fatalf("cap %d op %d: len %d bytes %d, model len %d bytes %d", capacity, op, c.Len(), c.Bytes(), len(model), sum)
			}
		}
	}
}

// TestPprofEndpoints pins the -pprof gate: profiling handlers exist
// only when Options.Pprof is set.
func TestPprofEndpoints(t *testing.T) {
	st := testStore(t, 6, 1)

	off := httptest.NewServer(New(st, Options{}))
	defer off.Close()
	if resp, _ := get(t, off, "/debug/pprof/"); resp.StatusCode != 404 {
		t.Fatalf("pprof off: /debug/pprof/ status %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(New(st, Options{Pprof: true}))
	defer on.Close()
	resp, body := get(t, on, "/debug/pprof/")
	if resp.StatusCode != 200 {
		t.Fatalf("pprof on: /debug/pprof/ status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index missing profiles: %s", body)
	}
	if resp, _ := get(t, on, "/debug/pprof/cmdline"); resp.StatusCode != 200 {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
}
