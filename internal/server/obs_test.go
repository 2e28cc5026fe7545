package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfindexes/internal/obs"
)

// metricValue sums the parsed samples matching name and label subset.
func metricValue(samples []obs.Sample, name string, labels map[string]string) (float64, bool) {
	sum, found := 0.0, false
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			sum += s.Value
			found = true
		}
	}
	return sum, found
}

// TestMetricsEndpoint is the /metrics smoke test: after real traffic
// the scrape must parse under the minimal Prometheus parser and carry
// the counter, histogram and gauge families with values consistent
// with the traffic served.
func TestMetricsEndpoint(t *testing.T) {
	st := testStore(t, 40, 3)
	ts := httptest.NewServer(New(st, Options{Workers: 4}))
	defer ts.Close()

	// Two identical protocol queries: a miss then a result-cache hit.
	for i := 0; i < 2; i++ {
		resp, _ := protocolGet(t, ts, knowsQuery, "application/sparql-results+json")
		if resp.StatusCode != 200 {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	// One failed request.
	if resp, _ := get(t, ts, "/sparql"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing query: %d", resp.StatusCode)
	}

	runtime.GC() // so rdf_gc_cycles_total has at least this cycle to count
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	samples, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, body)
	}

	if v, ok := metricValue(samples, "rdf_requests_total", map[string]string{"endpoint": "sparql"}); !ok || v != 3 {
		t.Errorf("sparql requests = %v (found %v), want 3", v, ok)
	}
	if v, ok := metricValue(samples, "rdf_failed_total", nil); !ok || v < 1 {
		t.Errorf("failed = %v, want >= 1", v)
	}
	if v, ok := metricValue(samples, "rdf_request_duration_seconds_count", nil); !ok || v != 2 {
		t.Errorf("request histogram count = %v, want 2 (error requests unobserved)", v)
	}
	// Stage histograms exist for every stage; exec observed the cache
	// miss only: a hit executes nothing, its run is all render.
	if v, ok := metricValue(samples, "rdf_stage_duration_seconds_count", map[string]string{"stage": "exec"}); !ok || v != 1 {
		t.Errorf("exec stage count = %v, want 1", v)
	}
	if v, ok := metricValue(samples, "rdf_stage_duration_seconds_count", map[string]string{"stage": "render"}); !ok || v != 2 {
		t.Errorf("render stage count = %v, want 2", v)
	}
	if v, ok := metricValue(samples, "rdf_cache_events_total", map[string]string{"cache": "result", "event": "hit"}); !ok || v != 1 {
		t.Errorf("result cache hits = %v, want 1", v)
	}
	// The miss was below results.StreamAt: sent in one piece and cached.
	for path, want := range map[string]float64{"one_piece": 1, "streamed": 0, "hit": 1} {
		if v, ok := metricValue(samples, "rdf_responses_total", map[string]string{"path": path}); !ok || v != want {
			t.Errorf("responses{path=%q} = %v (found %v), want %v", path, v, ok, want)
		}
	}
	for _, g := range []string{"rdf_goroutines", "rdf_heap_inuse_bytes", "rdf_store_triples", "rdf_result_cache_bytes",
		"rdf_gc_cycles_total", "rdf_heap_alloc_bytes_total"} {
		if v, ok := metricValue(samples, g, nil); !ok || v <= 0 {
			t.Errorf("%s = %v (found %v), want > 0", g, v, ok)
		}
	}
	for _, g := range []string{"rdf_store_generation", "rdf_wal_bytes", "rdf_breaker_open", "rdf_in_flight_requests", "rdf_store_mapped_bytes"} {
		if _, ok := metricValue(samples, g, nil); !ok {
			t.Errorf("%s missing from scrape", g)
		}
	}

	// The same histogram feeds /stats percentiles.
	sresp, sbody := get(t, ts, "/stats")
	if sresp.StatusCode != 200 {
		t.Fatalf("/stats: %d", sresp.StatusCode)
	}
	var stats Stats
	if err := json.Unmarshal([]byte(sbody), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.RequestP50Ms <= 0 || stats.RequestP99Ms < stats.RequestP50Ms {
		t.Errorf("percentiles p50=%v p99=%v", stats.RequestP50Ms, stats.RequestP99Ms)
	}
	if v, _ := metricValue(samples, "rdf_result_cache_bytes", nil); stats.CacheBytes <= 0 || float64(stats.CacheBytes) != v {
		t.Errorf("stats cache_bytes %d, /metrics rdf_result_cache_bytes %v; want equal and positive", stats.CacheBytes, v)
	}
	if stats.CacheMisses != 1 || stats.CacheHits != 1 {
		t.Errorf("stats cache misses %d / hits %d, want 1 / 1", stats.CacheMisses, stats.CacheHits)
	}
	// A store built in memory was never opened, and a read-only server
	// never merges; both series exist anyway.
	if v, ok := metricValue(samples, "rdf_store_open_seconds", nil); !ok || v != 0 || stats.OpenSeconds != 0 {
		t.Errorf("in-memory store open seconds = %v (found %v), stats %v; want 0", v, ok, stats.OpenSeconds)
	}
	if v, ok := metricValue(samples, "rdf_merge_seconds_count", nil); !ok || v != 0 {
		t.Errorf("read-only merge count = %v (found %v), want 0", v, ok)
	}

	// An opened mutable store reports its open time, and every merge
	// lands in the merge histogram.
	m := mutableStore(t, t.TempDir(), 20, 2, 0)
	mts := httptest.NewServer(NewMutable(m, Options{Workers: 2}))
	defer mts.Close()
	if _, err := m.Insert("<http://ex/new>", "<http://ex/knows>", "<http://ex/p0>"); err != nil {
		t.Fatal(err)
	}
	// Before the merge the view serves the mapped store file: the gauge
	// and /stats count at least its bytes (mappings other tests' views
	// still hold may add to that). Only Linux maps the file.
	fi, err := os.Stat(m.Path())
	if err != nil {
		t.Fatal(err)
	}
	want := float64(fi.Size())
	if runtime.GOOS != "linux" {
		want = 0
	}
	_, body = get(t, mts, "/metrics")
	if samples, err = obs.ParseProm(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if v, ok := metricValue(samples, "rdf_store_mapped_bytes", nil); !ok || v < want {
		t.Errorf("mapped bytes = %v (found %v), want >= the %v-byte store file", v, ok, want)
	}
	_, sbody = get(t, mts, "/stats")
	if err := json.Unmarshal([]byte(sbody), &stats); err != nil {
		t.Fatal(err)
	}
	if float64(stats.MappedBytes) < want {
		t.Errorf("stats mapped_bytes = %d, want >= %v", stats.MappedBytes, want)
	}
	if err := m.Merge(); err != nil {
		t.Fatal(err)
	}
	// Updates count under the insert and delete series by verb, not as
	// queries.
	postUpdate(t, mts, dataUpdate("INSERT", "<http://ex/upd>", "<http://ex/knows>", "<http://ex/p1>"))
	postUpdate(t, mts, dataUpdate("DELETE", "<http://ex/upd>", "<http://ex/knows>", "<http://ex/p1>"))
	_, body = get(t, mts, "/metrics")
	if samples, err = obs.ParseProm(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	_, sbody = get(t, mts, "/stats")
	if err := json.Unmarshal([]byte(sbody), &stats); err != nil {
		t.Fatal(err)
	}
	if v, ok := metricValue(samples, "rdf_store_open_seconds", nil); !ok || v <= 0 || v != stats.OpenSeconds {
		t.Errorf("open seconds = %v (found %v), stats open_seconds %v; want equal and positive", v, ok, stats.OpenSeconds)
	}
	if v, ok := metricValue(samples, "rdf_merge_seconds_count", nil); !ok || v != 1 {
		t.Errorf("merge count = %v (found %v), want 1", v, ok)
	}
	endpoints := map[string]float64{}
	for _, smp := range samples {
		if smp.Name == "rdf_requests_total" {
			endpoints[smp.Labels["endpoint"]] = smp.Value
		}
	}
	if want := map[string]float64{"sparql": 0, "insert": 1, "delete": 1}; !reflect.DeepEqual(endpoints, want) {
		t.Errorf("rdf_requests_total by endpoint = %v, want %v", endpoints, want)
	}
	if v, ok := metricValue(samples, "rdf_merge_seconds_sum", nil); !ok || v <= 0 {
		t.Errorf("merge seconds sum = %v (found %v), want > 0", v, ok)
	}
}

// TestHeapInuseMatchesMemStats: rdf_heap_inuse_bytes, read from
// runtime/metrics, is the HeapInuse that runtime.ReadMemStats reports.
func TestHeapInuseMatchesMemStats(t *testing.T) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	got := heapInuse()
	// The reads are moments apart; an allocation between them can claim
	// a span or two.
	if d := int64(got) - int64(ms.HeapInuse); d < -1<<20 || d > 1<<20 {
		t.Errorf("heapInuse() = %d, MemStats.HeapInuse = %d", got, ms.HeapInuse)
	}
}

// TestExplainEndpoint runs ?explain=1 against the plain and mutable
// (overlay view) store variants: the response is the execution
// profile, not serialized results, and its cardinalities are
// self-consistent.
func TestExplainEndpoint(t *testing.T) {
	dir := t.TempDir()
	m := mutableStore(t, dir, 24, 3, 0)
	// Pending writes put the mutable server on a real overlay view.
	if _, err := m.Insert("<http://ex/extra>", "<http://ex/knows>", "<http://ex/p0>"); err != nil {
		t.Fatal(err)
	}
	servers := map[string]*Server{
		"plain":   New(testStore(t, 24, 3), Options{Workers: 2}),
		"overlay": NewMutable(m, Options{Workers: 2}),
	}
	// A star whose first arm (read object-major) meets each ?x once per
	// item it likes, so the second arm's selection repeats.
	query := "SELECT ?x ?i WHERE { ?x <http://ex/likes> ?i . ?x <http://ex/knows> ?y . }"
	for name, srv := range servers {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(srv)
			defer ts.Close()

			// Reference run without explain for the row count.
			resp, body := protocolGet(t, ts, query, "application/sparql-results+json")
			if resp.StatusCode != 200 {
				t.Fatalf("reference query: %d %s", resp.StatusCode, body)
			}
			_, rows := jsonBindings(t, body)

			req, _ := http.NewRequest(http.MethodGet,
				ts.URL+"/sparql?explain=1&query="+url.QueryEscape(query), nil)
			resp, body = do(t, req)
			if resp.StatusCode != 200 {
				t.Fatalf("explain: %d %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("explain Content-Type = %q", ct)
			}
			var doc struct {
				Generation int   `json:"generation"`
				Order      []int `json:"plan_order"`
				Steps      []struct {
					Position int    `json:"position"`
					Pattern  int    `json:"pattern"`
					Text     string `json:"text"`
					Calls    uint64 `json:"calls"`
					Replayed uint64 `json:"replayed"`
					Scanned  uint64 `json:"scanned"`
					Matched  uint64 `json:"matched"`
				} `json:"steps"`
				Replayed int                `json:"replayed"`
				Rows     int                `json:"rows"`
				StagesUs map[string]float64 `json:"stages_us"`
				TotalUs  float64            `json:"total_us"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("explain body is not the profile doc: %v\n%s", err, body)
			}
			if strings.Contains(string(body), `"bindings"`) {
				t.Error("explain response contains serialized results")
			}
			if doc.Rows != len(rows) {
				t.Errorf("explain rows %d != query rows %d", doc.Rows, len(rows))
			}
			if len(doc.Order) != 2 || len(doc.Steps) != 2 {
				t.Fatalf("plan order %v / %d steps, want 2 patterns", doc.Order, len(doc.Steps))
			}
			var scanned, replayed uint64
			for _, step := range doc.Steps {
				if step.Matched > step.Scanned {
					t.Errorf("step %d: matched %d > scanned %d", step.Position, step.Matched, step.Scanned)
				}
				if step.Text == "" || step.Calls == 0 || step.Replayed >= step.Calls {
					t.Errorf("step %d incomplete: %+v", step.Position, step)
				}
				scanned += step.Scanned
				replayed += step.Replayed
			}
			if scanned == 0 {
				t.Error("no candidates recorded")
			}
			if replayed == 0 || replayed != uint64(doc.Replayed) || doc.Steps[0].Replayed != 0 {
				t.Errorf("replayed %d over the steps, %d in all: %+v", replayed, doc.Replayed, doc.Steps)
			}
			if doc.TotalUs <= 0 || doc.StagesUs["exec"] < 0 {
				t.Errorf("timings total=%v stages=%v", doc.TotalUs, doc.StagesUs)
			}
		})
	}
}

// TestMutableGallop checks that a mutable server runs a star of two
// bound-object patterns as a leapfrog merge-intersection while its update
// log is empty, falls back to nested iteration over the merged view once
// a write is pending, and answers the star correctly either way.
func TestMutableGallop(t *testing.T) {
	const people, likesPer = 24, 3
	m := mutableStore(t, t.TempDir(), people, likesPer, 0)
	ts := httptest.NewServer(NewMutable(m, Options{Workers: 2}))
	defer ts.Close()
	query := "SELECT ?x WHERE { ?x <http://ex/likes> <http://ex/item3> . ?x <http://ex/likes> <http://ex/item4> . }"
	// testStore's person i likes items (i+j) mod (people/2+1), j < likesPer.
	want := map[string]bool{}
	for i := 0; i < people; i++ {
		likes := map[int]bool{}
		for j := 0; j < likesPer; j++ {
			likes[(i+j)%(people/2+1)] = true
		}
		if likes[3] && likes[4] {
			want[fmt.Sprintf("http://ex/p%d", i)] = true
		}
	}
	check := func(stage string, wantGallop bool) {
		t.Helper()
		resp, body := protocolGet(t, ts, query, "application/sparql-results+json")
		if resp.StatusCode != 200 {
			t.Fatalf("%s: query: %d %s", stage, resp.StatusCode, body)
		}
		_, rows := jsonBindings(t, body)
		got := map[string]bool{}
		for _, r := range rows {
			got[r["x"]["value"]] = true
		}
		if len(rows) != len(want) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows %v, want %v", stage, got, want)
		}
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sparql?explain=1&query="+url.QueryEscape(query), nil)
		resp, body = do(t, req)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: explain: %d %s", stage, resp.StatusCode, body)
		}
		var doc struct {
			Steps []struct {
				Gallop bool `json:"gallop"`
			} `json:"steps"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		gallops := 0
		for _, s := range doc.Steps {
			if s.Gallop {
				gallops++
			}
		}
		if (gallops > 0) != wantGallop || len(doc.Steps) != 2 {
			t.Errorf("%s: %d of %d steps gallop, want gallop=%v\n%s", stage, gallops, len(doc.Steps), wantGallop, body)
		}
	}
	check("empty log", true)
	// Person 4 likes items 4..6; the pending insert adds it to the answer,
	// which a stream over the base index alone would miss.
	if _, err := m.Insert("<http://ex/p4>", "<http://ex/likes>", "<http://ex/item3>"); err != nil {
		t.Fatal(err)
	}
	want["http://ex/p4"] = true
	check("pending insert", false)
}

// TestProtocolHeadAndLastModified covers the HEAD form and the
// Last-Modified/If-Modified-Since validator pair on a mutable store
// (whose views carry their publication time).
func TestProtocolHeadAndLastModified(t *testing.T) {
	dir := t.TempDir()
	m := mutableStore(t, dir, 12, 2, 0)
	ts := httptest.NewServer(NewMutable(m, Options{Workers: 2}))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodHead, ts.URL+"/sparql?query="+url.QueryEscape(knowsQuery), nil)
	req.Header.Set("Accept", "application/sparql-results+json")
	resp, body := do(t, req)
	if resp.StatusCode != 200 {
		t.Fatalf("HEAD: %d", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("HEAD carried a body: %q", body)
	}
	lm := resp.Header.Get("Last-Modified")
	if lm == "" || resp.Header.Get("ETag") == "" {
		t.Fatalf("HEAD validators missing: Last-Modified=%q ETag=%q", lm, resp.Header.Get("ETag"))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/sparql-results+json") {
		t.Errorf("HEAD Content-Type = %q", ct)
	}
	if _, err := http.ParseTime(lm); err != nil {
		t.Fatalf("Last-Modified %q unparseable: %v", lm, err)
	}

	// A conditional GET with the served validator revalidates.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(knowsQuery), nil)
	req.Header.Set("If-Modified-Since", lm)
	resp, _ = do(t, req)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-Modified-Since %q: status %d, want 304", lm, resp.StatusCode)
	}

	// A write publishes a fresh view; HTTP dates have one-second
	// granularity, so step past it before writing.
	time.Sleep(1100 * time.Millisecond)
	if _, err := m.Insert("<http://ex/new>", "<http://ex/knows>", "<http://ex/p0>"); err != nil {
		t.Fatal(err)
	}
	resp, _ = do(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after write: status %d, want 200", resp.StatusCode)
	}

	// HEAD on a malformed request still reports the failure status.
	req, _ = http.NewRequest(http.MethodHead, ts.URL+"/sparql", nil)
	resp, _ = do(t, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HEAD without query: %d, want 400", resp.StatusCode)
	}
}

// TestServerTiming checks the pre-stream Server-Timing header and the
// post-stream trailer on a response large enough to stream chunked: past
// results.StreamAt (TestResponsePaths covers the one-piece header).
func TestServerTiming(t *testing.T) {
	st := testStore(t, 1000, 0)
	ts := httptest.NewServer(New(st, Options{Workers: 2}))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(knowsQuery), nil)
	req.Header.Set("Accept", "application/sparql-results+json")
	resp, _ := do(t, req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	stHeader := resp.Header.Get("Server-Timing")
	for _, want := range []string{`cache;desc="miss"`, "queue;dur=", "parse;dur=", "plan;dur="} {
		if !strings.Contains(stHeader, want) {
			t.Errorf("Server-Timing %q missing %q", stHeader, want)
		}
	}
	// The exec/render/total stages arrive as a trailer after the chunked
	// body. Go's HTTP/1 client drops trailers that were not announced in
	// a Trailer header (announcing would strip the pre-stream
	// Server-Timing header), so read the raw bytes off a plain socket.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A distinct query text, so this is a miss of its own and not an
	// answer some earlier request left in the cache.
	fmt.Fprintf(conn, "GET /sparql?query=%s HTTP/1.1\r\nHost: t\r\nTE: trailers\r\nConnection: close\r\n\r\n",
		url.QueryEscape("SELECT ?a ?b WHERE { ?a <http://ex/knows> ?b . }"))
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	// The trailer block follows the terminating 0-length chunk.
	_, trailer, found := strings.Cut(string(raw), "\r\n0\r\n")
	if !found {
		t.Fatalf("response not chunked:\n%.300s", raw)
	}
	for _, want := range []string{"Server-Timing:", "exec;dur=", "render;dur=", "total;dur="} {
		if !strings.Contains(trailer, want) {
			t.Errorf("trailer block %q missing %q", trailer, want)
		}
	}

	// Cache hits say so.
	req.URL.RawQuery += "&limit=10"
	do(t, req)
	resp, _ = do(t, req)
	if got := resp.Header.Get("Server-Timing"); !strings.Contains(got, `cache;desc="hit"`) {
		t.Errorf("hit Server-Timing = %q", got)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog checks the log fires only past the threshold: a
// sub-threshold server logs nothing, a 1ns-threshold server logs the
// same query as a structured entry.
func TestSlowQueryLog(t *testing.T) {
	st := testStore(t, 40, 3)

	var quiet syncBuffer
	fast := httptest.NewServer(New(st, Options{Workers: 2, SlowQuery: time.Hour, SlowQueryLog: &quiet}))
	defer fast.Close()
	if resp, _ := protocolGet(t, fast, knowsQuery, ""); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := quiet.String(); got != "" {
		t.Fatalf("sub-threshold query logged: %q", got)
	}

	var loud syncBuffer
	slow := httptest.NewServer(New(st, Options{Workers: 2, SlowQuery: time.Nanosecond, SlowQueryLog: &loud}))
	defer slow.Close()
	if resp, _ := protocolGet(t, slow, knowsQuery, ""); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var entry obs.SlowQuery
	if err := json.Unmarshal([]byte(loud.String()), &entry); err != nil {
		t.Fatalf("slow log entry is not JSON: %v (%q)", err, loud.String())
	}
	if entry.Kind != "slow_query" || entry.Endpoint != "sparql" || entry.Query != knowsQuery {
		t.Errorf("entry = %+v", entry)
	}
	if entry.DurationMs <= 0 || entry.StagesUs == nil {
		t.Errorf("entry missing timing: %+v", entry)
	}
	// /stats surfaces the count.
	_, sbody := get(t, slow, "/stats")
	var stats Stats
	if err := json.Unmarshal([]byte(sbody), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.SlowQueries != 1 {
		t.Errorf("stats slow queries = %d, want 1", stats.SlowQueries)
	}
}
