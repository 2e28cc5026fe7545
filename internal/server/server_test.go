package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
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

// ndjsonLines splits a response body into decoded JSON lines.
func ndjsonLines(t *testing.T, body string) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
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

	t.Run("query", func(t *testing.T) {
		resp, body := get(t, ts, "/query?s="+url.QueryEscape("<http://ex/p0>"))
		if resp.StatusCode != 200 {
			t.Fatalf("query: status %d body %q", resp.StatusCode, body)
		}
		lines := ndjsonLines(t, body)
		last := lines[len(lines)-1]
		matches := int(last["matches"].(float64))
		if matches != len(lines)-1 {
			t.Fatalf("summary says %d matches, stream has %d rows", matches, len(lines)-1)
		}
		// p0 knows p1 and likes 3 items.
		if matches != 4 {
			t.Fatalf("expected 4 matches for S??, got %d", matches)
		}
		for _, row := range lines[:len(lines)-1] {
			if row["s"] != "<http://ex/p0>" {
				t.Fatalf("row subject %v, want <http://ex/p0>", row["s"])
			}
		}
	})

	t.Run("query limit truncates", func(t *testing.T) {
		_, body := get(t, ts, "/query?s="+url.QueryEscape("<http://ex/p0>")+"&limit=2")
		lines := ndjsonLines(t, body)
		last := lines[len(lines)-1]
		if int(last["matches"].(float64)) != 2 || last["truncated"] != true {
			t.Fatalf("limit summary wrong: %v", last)
		}
	})

	t.Run("query exact limit is not truncated", func(t *testing.T) {
		// p0 has exactly 4 triples; limit=4 returns the complete result.
		_, body := get(t, ts, "/query?s="+url.QueryEscape("<http://ex/p0>")+"&limit=4")
		lines := ndjsonLines(t, body)
		last := lines[len(lines)-1]
		if int(last["matches"].(float64)) != 4 || last["truncated"] == true {
			t.Fatalf("exact-limit summary wrong: %v", last)
		}
	})

	t.Run("query cache", func(t *testing.T) {
		path := "/query?p=" + url.QueryEscape("<http://ex/knows>")
		resp1, body1 := get(t, ts, path)
		resp2, body2 := get(t, ts, path)
		if resp1.Header.Get("X-Cache") != "miss" && resp1.Header.Get("X-Cache") != "hit" {
			t.Fatalf("missing X-Cache header")
		}
		if resp2.Header.Get("X-Cache") != "hit" {
			t.Fatalf("second identical query not served from cache (X-Cache=%q)", resp2.Header.Get("X-Cache"))
		}
		if body1 != body2 {
			t.Fatalf("cached body differs from computed body")
		}
	})

	t.Run("query bad term", func(t *testing.T) {
		resp, _ := get(t, ts, "/query?s="+url.QueryEscape("<http://ex/nobody>"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown term: status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("sparql", func(t *testing.T) {
		q := "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }"
		resp, body := get(t, ts, "/v1/sparql?q="+url.QueryEscape(q))
		if resp.StatusCode != 200 {
			t.Fatalf("sparql: status %d body %q", resp.StatusCode, body)
		}
		lines := ndjsonLines(t, body)
		last := lines[len(lines)-1]
		if int(last["results"].(float64)) != 40 {
			t.Fatalf("expected 40 knows-solutions, summary %v", last)
		}
		if last["plan_cached"] != false {
			t.Fatalf("first execution should not have a cached plan")
		}
		// Different spelling of the same BGP: plan cache hit, result
		// cache keyed on normalized text serves it without execution.
		q2 := "SELECT ?x ?y WHERE   {   ?x   <http://ex/knows>   ?y   . }"
		resp2, body2 := get(t, ts, "/v1/sparql?q="+url.QueryEscape(q2))
		if resp2.Header.Get("X-Cache") != "hit" {
			t.Fatalf("normalized respelling not served from result cache")
		}
		if body2 != body {
			t.Fatalf("cached sparql body differs")
		}
	})

	t.Run("sparql join", func(t *testing.T) {
		q := "SELECT ?x WHERE { <http://ex/p0> <http://ex/knows> ?x . ?x <http://ex/likes> <http://ex/item1> . }"
		resp, body := get(t, ts, "/v1/sparql?q="+url.QueryEscape(q))
		if resp.StatusCode != 200 {
			t.Fatalf("sparql join: status %d", resp.StatusCode)
		}
		lines := ndjsonLines(t, body)
		// p0 knows p1; p1 likes item1..item3, so one solution.
		if n := int(lines[len(lines)-1]["results"].(float64)); n != 1 {
			t.Fatalf("join solutions = %d, want 1: %s", n, body)
		}
		if lines[0]["x"] != "<http://ex/p1>" {
			t.Fatalf("join solution %v, want <http://ex/p1>", lines[0]["x"])
		}
	})

	t.Run("sparql parse error", func(t *testing.T) {
		resp, _ := get(t, ts, "/v1/sparql?q="+url.QueryEscape("SELECT WHERE"))
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
		if s.Queries == 0 || s.CacheHits == 0 {
			t.Fatalf("counters not advancing: %+v", s)
		}
	})
}

// TestServerSharedStoreStress fires 16 concurrent clients mixing triple
// pattern and BGP queries at one shared store; run with -race to enforce
// the shared-store concurrency contract end to end (HTTP handler,
// worker pool, result cache, QueryCtx pooling, executor).
func TestServerSharedStoreStress(t *testing.T) {
	st := testStore(t, 60, 4)
	srv := New(st, Options{Workers: 8, CacheEntries: 32})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	queries := []string{
		"/query?s=" + url.QueryEscape("<http://ex/p1>"),
		"/query?p=" + url.QueryEscape("<http://ex/knows>"),
		"/query?o=" + url.QueryEscape("<http://ex/item2>"),
		"/query?s=" + url.QueryEscape("<http://ex/p3>") + "&o=" + url.QueryEscape("<http://ex/p4>"),
		"/query",
		"/v1/sparql?q=" + url.QueryEscape("SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }"),
		"/v1/sparql?q=" + url.QueryEscape("SELECT ?x WHERE { ?x <http://ex/likes> <http://ex/item1> . ?x <http://ex/likes> <http://ex/item2> . }"),
		"/v1/sparql?q=" + url.QueryEscape("SELECT ?x ?z WHERE { <http://ex/p0> <http://ex/knows> ?x . ?x <http://ex/likes> ?z . }"),
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
// zero result rows plus the summary line.
func TestServerLimitValidation(t *testing.T) {
	st := testStore(t, 10, 2)
	srv := New(st, Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, path := range []string{
		"/query?limit=-5",
		"/query?limit=-1",
		"/v1/sparql?limit=-1&q=" + url.QueryEscape("SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }"),
	} {
		resp, _ := get(t, ts, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}

	resp, body := get(t, ts, "/query?limit=0&s="+url.QueryEscape("<http://ex/p0>"))
	if resp.StatusCode != 200 {
		t.Fatalf("limit=0 status %d", resp.StatusCode)
	}
	lines := ndjsonLines(t, body)
	if len(lines) != 1 {
		t.Fatalf("limit=0 returned %d lines, want summary only", len(lines))
	}
	if int(lines[0]["matches"].(float64)) != 0 || lines[0]["truncated"] != true {
		t.Fatalf("limit=0 summary %v, want 0 matches and truncated", lines[0])
	}

	resp, body = get(t, ts, "/v1/sparql?limit=0&q="+url.QueryEscape("SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }"))
	if resp.StatusCode != 200 {
		t.Fatalf("sparql limit=0 status %d", resp.StatusCode)
	}
	lines = ndjsonLines(t, body)
	if len(lines) != 1 || int(lines[0]["results"].(float64)) != 0 {
		t.Fatalf("sparql limit=0 lines %v", lines)
	}
}

// TestServerReadOnlyRejectsWrites checks the fixed-store server keeps
// its immutability contract on the write endpoints.
func TestServerReadOnlyRejectsWrites(t *testing.T) {
	st := testStore(t, 10, 2)
	srv := New(st, Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, _ := postForm(t, ts, "/insert", url.Values{
		"s": {"<http://ex/x>"}, "p": {"<http://ex/knows>"}, "o": {"<http://ex/y>"},
	})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only insert: status %d, want 403", resp.StatusCode)
	}
}

// TestServerWriteEndpoints is the end-to-end acceptance demo: serve a
// built store, insert a triple with a brand-new IRI over HTTP, observe
// it immediately on /query (cache invalidated), restart from the WAL
// and still see it, then force a merge and check query results are
// unchanged.
func TestServerWriteEndpoints(t *testing.T) {
	dir := t.TempDir()
	m := mutableStore(t, dir, 20, 2, 0)
	srv := NewMutable(m, Options{Workers: 4})
	ts := httptest.NewServer(srv)

	newbie := "<http://ex/newcomer>"
	queryPath := "/query?s=" + url.QueryEscape(newbie)
	knowsPath := "/query?p=" + url.QueryEscape("<http://ex/knows>")

	// Unknown term: 400 before the insert. Warm the predicate query into
	// the result cache so the invalidation is observable.
	if resp, _ := get(t, ts, queryPath); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pre-insert query: status %d, want 400", resp.StatusCode)
	}
	_, knowsBefore := get(t, ts, knowsPath)
	if resp, _ := get(t, ts, knowsPath); resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("warmup query not cached")
	}

	// GET on a write endpoint is rejected; POST inserts.
	if resp, _ := get(t, ts, "/insert?s=x"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET insert: status %d, want 405", resp.StatusCode)
	}
	vals := url.Values{"s": {newbie}, "p": {"<http://ex/knows>"}, "o": {"<http://ex/p0>"}}
	resp, body := postForm(t, ts, "/insert", vals)
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

	// The new triple is visible immediately, through both endpoints.
	resp, body = get(t, ts, queryPath)
	if resp.StatusCode != 200 {
		t.Fatalf("post-insert query: status %d", resp.StatusCode)
	}
	lines := ndjsonLines(t, body)
	if int(lines[len(lines)-1]["matches"].(float64)) != 1 {
		t.Fatalf("post-insert matches %v", lines[len(lines)-1])
	}
	if lines[0]["s"] != newbie {
		t.Fatalf("post-insert subject %v", lines[0]["s"])
	}
	// The cached predicate query was invalidated: fresh body, one more row.
	resp, knowsAfter := get(t, ts, knowsPath)
	if resp.Header.Get("X-Cache") == "hit" {
		t.Fatal("stale cache entry served after insert")
	}
	if knowsAfter == knowsBefore {
		t.Fatal("predicate query body unchanged after insert")
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
	lines = ndjsonLines(t, body)
	if int(lines[len(lines)-1]["matches"].(float64)) != 1 {
		t.Fatalf("WAL recovery lost the insert: %v", lines[len(lines)-1])
	}
	// A merge remaps dictionary IDs, which legitimately permutes the
	// emission order; compare result sets, not byte streams.
	sortedLines := func(body string) string {
		ls := strings.Split(strings.TrimSpace(body), "\n")
		sort.Strings(ls)
		return strings.Join(ls, "\n")
	}
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
	lines = ndjsonLines(t, body)
	if int(lines[len(lines)-1]["matches"].(float64)) != 1 {
		t.Fatalf("merge lost the insert: %v", lines[len(lines)-1])
	}
	if _, fullAfter := get(t, ts, knowsPath); sortedLines(fullAfter) != sortedLines(fullBefore) {
		t.Fatalf("merge changed rendered query results:\n%s\nvs\n%s", fullBefore, fullAfter)
	}

	// Delete through the API; the triple disappears.
	resp, _ = postForm(t, ts, "/delete", vals)
	if resp.StatusCode != 200 {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	_, body = get(t, ts, queryPath)
	lines = ndjsonLines(t, body)
	if int(lines[len(lines)-1]["matches"].(float64)) != 0 {
		t.Fatalf("delete not visible: %v", lines[len(lines)-1])
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
		"/query?s=" + url.QueryEscape("<http://ex/p1>"),
		"/query?p=" + url.QueryEscape("<http://ex/knows>"),
		"/query?o=" + url.QueryEscape("<http://ex/item2>"),
		"/query",
		"/v1/sparql?q=" + url.QueryEscape("SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }"),
		"/v1/sparql?q=" + url.QueryEscape("SELECT ?x ?z WHERE { <http://ex/p0> <http://ex/knows> ?x . ?x <http://ex/likes> ?z . }"),
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
			vals := url.Values{
				"s": {fmt.Sprintf("<http://ex/w%d>", i%17)},
				"p": {"<http://ex/knows>"},
				"o": {fmt.Sprintf("<http://ex/p%d>", i%40)},
			}
			path := "/insert"
			if i%3 == 2 {
				path = "/delete"
			}
			resp, err := http.PostForm(ts.URL+path, vals)
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Sprintf("%s: status %d", path, resp.StatusCode)
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
				if strings.HasPrefix(qp, "/query") {
					lines := ndjsonLines(t, sb.String())
					last := lines[len(lines)-1]
					n, ok := last["matches"]
					if !ok {
						errs <- fmt.Sprintf("%s: no summary line: %v", qp, last)
						return
					}
					if int(n.(float64)) != len(lines)-1 {
						errs <- fmt.Sprintf("%s: summary %v but %d rows", qp, n, len(lines)-1)
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
			resp, err := http.Get(ts.URL + "/query?p=" + url.QueryEscape("<http://ex/likes>"))
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

func TestLRU(t *testing.T) {
	c := newLRU(2, func(v int) int { return v })
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should be evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should survive")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	// Sizes (here the values themselves) follow inserts, refreshes,
	// evictions and flushes.
	if c.Bytes() != 1+3 {
		t.Fatalf("bytes %d after evicting b, want 4", c.Bytes())
	}
	c.Put("a", 10)
	if c.Bytes() != 10+3 {
		t.Fatalf("bytes %d after refreshing a, want 13", c.Bytes())
	}
	c.Clear()
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatalf("bytes %d, len %d after Clear", c.Bytes(), c.Len())
	}
	var disabled *lruCache[int]
	if _, ok := disabled.Get("x"); ok {
		t.Fatal("nil cache returned a value")
	}
	disabled.Put("x", 1) // must not panic
	zero := newLRU[int](-1, nil)
	zero.Put("x", 1)
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
		c := newLRU(capacity, func(v int) int { return v })
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
				if ok != (i >= 0) || ok && v != model[i].val {
					t.Fatalf("cap %d op %d: Get(%s) = %d, %v; model %v", capacity, op, key, v, ok, model)
				}
				if ok {
					e := model[i]
					model = append([]entry{e}, append(model[:i:i], model[i+1:]...)...)
				}
			default:
				v := rng.Intn(100)
				c.Put(key, v)
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
				sum += e.val
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
