package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/server/results"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/store"
)

const padQuery = "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }"

// padStore holds rows small triples under one predicate plus one whose
// object is a literal of pad letters, so a body over the predicate grows
// by exactly one byte per pad byte in every format.
func padStore(t testing.TB, rows, pad int) *store.Store {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "<http://ex/s%d> <http://ex/p> <http://ex/o%d> .\n", i, i)
	}
	fmt.Fprintf(&sb, "<http://ex/pad> <http://ex/p> \"%s\" .\n", strings.Repeat("x", pad))
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

// dialect is one result format of the pad store's rows, with the body a
// bare row writer renders for them into a bytes.Buffer: the reference the
// served bytes must equal whichever path they took.
type dialect struct {
	name   string
	path   string
	accept string
	bare   func(t *testing.T, st *store.Store) []byte
}

// byRow is a block sink that hands the rows to write one at a time: the
// single-row path the served block path must equal byte for byte.
func byRow(width int, write func([]core.ID)) func([]core.ID, int) {
	return func(ids []core.ID, rows int) {
		for i := 0; i < rows; i++ {
			write(ids[i*width : (i+1)*width])
		}
	}
}

func dialects() []dialect {
	var out []dialect
	for _, f := range results.Formats() {
		out = append(out, dialect{
			name:   f.String(),
			path:   "/sparql?query=" + url.QueryEscape(padQuery),
			accept: f.ContentType(),
			bare: func(t *testing.T, st *store.Store) []byte {
				q, err := sparql.Parse(mustTranslate(t, st, padQuery))
				if err != nil {
					t.Fatal(err)
				}
				plan, err := sparql.Compile(q, sparql.Plan(q))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				wr := results.Acquire(f, st, &buf)
				defer wr.Release()
				wr.Begin(plan.Vars, plan.Roles...)
				if _, _, _, err := execute(context.Background(), plan, st, nil, -1, byRow(len(plan.Vars), wr.WriteRow)); err != nil {
					t.Fatal(err)
				}
				wr.End()
				if err := wr.Flush(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			},
		})
	}
	return out
}

func mustTranslate(t *testing.T, st *store.Store, qs string) string {
	t.Helper()
	out, err := st.TranslateQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func (d dialect) get(t *testing.T, ts *httptest.Server) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+d.path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.accept != "" {
		req.Header.Set("Accept", d.accept)
	}
	// Naming an encoding keeps the transport from asking for gzip on its
	// own, which would hide the framing under test.
	req.Header.Set("Accept-Encoding", "identity")
	return do(t, req)
}

// TestResponsePaths lands bodies one byte below, on and one byte above
// results.StreamAt in every format and pins the two response
// paths: below the threshold the miss is one piece — Content-Length, no
// chunking, every Server-Timing entry in the header, its rows cached as
// IDs that survive the pooled writer's reuse — and from the threshold on
// it is streamed: chunked and never cached. Either way the bytes are
// those of a bare row writer.
func TestResponsePaths(t *testing.T) {
	const rows = 200
	for _, d := range dialects() {
		base := len(d.bare(t, padStore(t, rows, 0)))
		for _, delta := range []int{-1, 0, 1} {
			size := results.StreamAt + delta
			t.Run(fmt.Sprintf("%s/%+d", d.name, delta), func(t *testing.T) {
				st := padStore(t, rows, size-base)
				want := d.bare(t, st)
				if len(want) != size {
					t.Fatalf("pad store renders %d bytes, want %d", len(want), size)
				}
				srv := New(st, Options{Workers: 2})
				ts := httptest.NewServer(srv)
				defer ts.Close()

				resp, body := d.get(t, ts)
				if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
					t.Fatalf("first request: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("served body (%d bytes) differs from the bare writer's (%d bytes)", len(body), len(want))
				}
				// Another request between the two, so the pooled row writer's
				// buffer is overwritten before the cached copy is served.
				if r, _ := get(t, ts, sparqlPath("SELECT ?o WHERE { <http://ex/s1> <http://ex/p> ?o . }", "")); r.StatusCode != 200 {
					t.Fatalf("interleaved request: status %d", r.StatusCode)
				}
				resp2, body2 := d.get(t, ts)
				if !bytes.Equal(body2, want) {
					t.Fatalf("second body differs from the first")
				}
				timing := resp.Header.Get("Server-Timing")

				if delta < 0 {
					if resp.ContentLength != int64(size) || len(resp.TransferEncoding) != 0 {
						t.Errorf("one-piece: Content-Length %d, Transfer-Encoding %v; want %d and none",
							resp.ContentLength, resp.TransferEncoding, size)
					}
					for _, e := range []string{`cache;desc="miss"`, "queue;dur=", "parse;dur=", "plan;dur=", "exec;dur=", "render;dur=", "total;dur="} {
						if !strings.Contains(timing, e) {
							t.Errorf("one-piece Server-Timing %q lacks %q", timing, e)
						}
					}
					if resp2.Header.Get("X-Cache") != "hit" || resp2.ContentLength != int64(size) || len(resp2.TransferEncoding) != 0 {
						t.Errorf("second request: X-Cache %q, Content-Length %d, Transfer-Encoding %v; want a hit of %d bytes, not chunked",
							resp2.Header.Get("X-Cache"), resp2.ContentLength, resp2.TransferEncoding, size)
					}
					// The cache holds ID rows, 4 bytes a cell: the rows+1
					// two-column rows of this answer and the one cell of the
					// interleaved point query, cached too.
					if got, want := srv.results.Bytes(), 4*(2*(rows+1)+1); got != want {
						t.Errorf("cache holds %d bytes, want %d: this answer's ID rows and one small answer's", got, want)
					}
					if one, str := srv.onePiece.Load(), srv.streamed.Load(); one != 2 || str != 0 {
						t.Errorf("one_piece %d streamed %d, want 2 and 0", one, str)
					}
					return
				}
				if resp.ContentLength >= 0 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
					t.Errorf("streamed: Content-Length %d, Transfer-Encoding %v; want chunked", resp.ContentLength, resp.TransferEncoding)
				}
				if !strings.Contains(timing, "plan;dur=") || strings.Contains(timing, "exec;dur=") {
					t.Errorf("streamed Server-Timing header %q: want the pre-stream stages only", timing)
				}
				if resp2.Header.Get("X-Cache") != "miss" {
					t.Errorf("second request of a streamed body: X-Cache %q, want miss", resp2.Header.Get("X-Cache"))
				}
				if one, str := srv.onePiece.Load(), srv.streamed.Load(); one != 1 || str != 2 {
					t.Errorf("one_piece %d streamed %d, want 1 and 2", one, str)
				}
				if n := srv.Snapshot().CacheEntries; n != 1 {
					t.Errorf("%d cache entries, want only the interleaved small answer", n)
				}
			})
		}
	}
}

// TestFailureBeforeFirstByte forces the deadline on answers that have
// flushed nothing yet: with no byte on the wire the failure is a real
// status with the unified error document, counted once and never cached.
func TestFailureBeforeFirstByte(t *testing.T) {
	// A ring of knows edges: the two-pattern cycle query below visits
	// every edge (several cancellation strides) and returns no row.
	st := testStore(t, 3000, 0)
	for _, path := range []string{
		sparqlPath("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }", ""),
		sparqlPath("SELECT ?a ?b WHERE { ?a <http://ex/knows> ?b . ?b <http://ex/knows> ?a . }", ""),
	} {
		srv := New(st, Options{Workers: 2, Timeout: time.Nanosecond})
		ts := httptest.NewServer(srv)
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		resp, body := do(t, req)
		ts.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504; body %.200s", path, resp.StatusCode, body)
		}
		if msg := errorShape(t, resp, body); !strings.Contains(msg, "deadline") {
			t.Errorf("%s: error message %q", path, msg)
		}
		if resp.Header.Get("X-Cache") != "" || resp.Header.Get("Content-Encoding") != "" {
			t.Errorf("%s: a failure carries miss headers: %v", path, resp.Header)
		}
		snap := srv.Snapshot()
		if snap.Failed != 1 || snap.CacheEntries != 0 {
			t.Errorf("%s: failed %d, cache entries %d; want 1 and 0", path, snap.Failed, snap.CacheEntries)
		}
		if one, str := srv.onePiece.Load(), srv.streamed.Load(); one != 0 || str != 0 {
			t.Errorf("%s: one_piece %d streamed %d, want neither", path, one, str)
		}
	}
}

// cancelOnWrite is a response recorder whose first body write cancels the
// request: the failure the handler sees next has bytes on the wire.
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.cancel()
	return c.ResponseRecorder.Write(p)
}

// TestFailureAfterFirstByte cancels a request at its first flush. The
// status is already 200, so the body ends early as a truncated document,
// and the response is counted failed and streamed, and not cached.
func TestFailureAfterFirstByte(t *testing.T) {
	st := testStore(t, 3000, 3)
	for _, path := range []string{sparqlPath("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }", ""), sparqlPath(knowsQuery, "")} {
		srv := New(st, Options{Workers: 2})
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
		req.Header.Set("Accept", "application/sparql-results+json")
		w := &cancelOnWrite{httptest.NewRecorder(), cancel}
		srv.ServeHTTP(w, req)
		cancel()

		body := w.Body.String()
		if w.Code != 200 || w.Header().Get("X-Cache") != "miss" || len(body) < results.StreamAt {
			t.Fatalf("%s: status %d, X-Cache %q, %d bytes; want a 200 miss with a flushed body",
				path, w.Code, w.Header().Get("X-Cache"), len(body))
		}
		if strings.HasSuffix(body, "]}}\n") {
			t.Errorf("%s: cancelled stream is a complete document", path)
		}
		snap := srv.Snapshot()
		if snap.Failed != 1 || snap.CacheEntries != 0 || srv.streamed.Load() != 1 {
			t.Errorf("%s: failed %d, cache entries %d, streamed %d; want 1, 0, 1",
				path, snap.Failed, snap.CacheEntries, srv.streamed.Load())
		}
	}
}

// served is one response as the client saw it: the verdict, the framing
// and the body bytes as they came off the wire.
type served struct {
	cache, encoding string
	length          int64 // Content-Length, -1 when not announced
	chunked         bool
	body            []byte
}

func fetch(t *testing.T, ts *httptest.Server, path string, f results.Format, gz bool) served {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", f.ContentType())
	// Naming the encoding keeps the transport from decompressing on its
	// own, so a gzip body is compared as it was sent.
	req.Header.Set("Accept-Encoding", "identity")
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, body := do(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s as %v: status %d, body %.200s", path, f, resp.StatusCode, body)
	}
	return served{
		cache:    resp.Header.Get("X-Cache"),
		encoding: resp.Header.Get("Content-Encoding"),
		length:   resp.ContentLength,
		chunked:  len(resp.TransferEncoding) == 1 && resp.TransferEncoding[0] == "chunked",
		body:     body,
	}
}

// gunzip decompresses a gzip response body.
func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHitMatchesMiss fills the result cache with one JSON miss per answer
// and then asks for the answer in every format, with and without gzip:
// each hit must be byte for byte the body a server without a cache sends,
// framed as it frames it. The cache keeps the answer's IDs and a hit
// renders them on the miss's path, so this holds for an answer cut by
// ?limit= (with a predicate column, whose IDs are their own space), for one that names terms only the pending overlay dictionary
// of a mutable store holds, and for an XML rendering that crosses
// results.StreamAt, which streams as a miss of that size would.
func TestHitMatchesMiss(t *testing.T) {
	m := mutableStore(t, t.TempDir(), 10, 2, -1)
	for _, tr := range [][3]string{
		{"<http://ex/p1>", "<http://ex/knows>", "<http://ex/newcomer>"},
		{"<http://ex/newcomer>", "<http://ex/knows>", `"only in the \"overlay\""@en`},
	} {
		if _, err := m.Insert(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	// 650 rows render below StreamAt in JSON and above it in XML.
	const wideRows = 650
	wide := padStore(t, wideRows, 0)
	st := testStore(t, 200, 3)
	for _, c := range []struct {
		name   string
		server func(Options) *Server
		path   string
		check  func(t *testing.T, srv *Server, json, xml served)
	}{
		{"limit", func(o Options) *Server { return New(st, o) }, sparqlPath("SELECT ?x ?p ?y WHERE { ?x ?p ?y . }", "limit=7"),
			func(t *testing.T, srv *Server, json, _ served) {
				if _, rows := jsonBindings(t, json.body); len(rows) != 7 {
					t.Errorf("%d rows under limit=7", len(rows))
				}
				if b := srv.results.Bytes(); b != 7*3*4 {
					t.Errorf("the cache holds %d bytes, want the 7 three-column rows' %d", b, 7*3*4)
				}
			}},
		{"overlay", func(o Options) *Server { return NewMutable(m, o) }, sparqlPath(knowsQuery, ""),
			func(t *testing.T, _ *Server, json, _ served) {
				if !bytes.Contains(json.body, []byte("http://ex/newcomer")) || !bytes.Contains(json.body, []byte(`only in the \"overlay\"`)) {
					t.Errorf("the answer lacks the overlay's terms: %s", json.body)
				}
			}},
		{"xml past StreamAt", func(o Options) *Server { return New(wide, o) }, sparqlPath(padQuery, ""),
			func(t *testing.T, _ *Server, json, xml served) {
				if len(json.body) >= results.StreamAt || len(xml.body) < results.StreamAt {
					t.Fatalf("JSON %d and XML %d bytes: want them on either side of StreamAt", len(json.body), len(xml.body))
				}
				if xml.cache != "hit" || !xml.chunked || xml.length >= 0 {
					t.Errorf("XML hit: X-Cache %q, chunked %v, Content-Length %d; want a streamed hit", xml.cache, xml.chunked, xml.length)
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fresh := httptest.NewServer(c.server(Options{CacheEntries: -1}))
			defer fresh.Close()
			srv := c.server(Options{})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			if got := fetch(t, ts, c.path, results.JSON, false); got.cache != "miss" || got.chunked {
				t.Fatalf("first request: X-Cache %q, chunked %v; want a one-piece miss", got.cache, got.chunked)
			}
			var json, xml served
			for _, f := range results.Formats() {
				for _, gz := range []bool{false, true} {
					want := fetch(t, fresh, c.path, f, gz)
					got := fetch(t, ts, c.path, f, gz)
					if want.cache != "miss" || got.cache != "hit" {
						t.Fatalf("%v gzip=%v: X-Cache %q without a cache, %q with one; want miss and hit", f, gz, want.cache, got.cache)
					}
					if !bytes.Equal(got.body, want.body) {
						t.Errorf("%v gzip=%v: hit body (%d bytes) differs from a fresh miss's (%d bytes)", f, gz, len(got.body), len(want.body))
					}
					if got.encoding != want.encoding || got.length != want.length || got.chunked != want.chunked {
						t.Errorf("%v gzip=%v: hit framed as %q, length %d, chunked %v; a fresh miss as %q, %d, %v",
							f, gz, got.encoding, got.length, got.chunked, want.encoding, want.length, want.chunked)
					}
					if !gz {
						switch f {
						case results.JSON:
							json = got
						case results.XML:
							xml = got
						}
					} else if plain := fetch(t, fresh, c.path, f, false); !bytes.Equal(gunzip(t, got.body), plain.body) {
						t.Errorf("%v: gzip hit does not decompress to the identity body", f)
					}
				}
			}
			c.check(t, srv, json, xml)
			if h, _ := srv.results.Counters(); h != 8 || srv.onePiece.Load() != 1 || srv.streamed.Load() != 0 {
				t.Errorf("%d hits, one_piece %d, streamed %d; want 8 hits and the one miss", h, srv.onePiece.Load(), srv.streamed.Load())
			}
		})
	}
}

// writeSizes is a response recorder that notes the size of each body
// write: what the server buffered before handing it downstream.
type writeSizes struct {
	*httptest.ResponseRecorder
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.ResponseRecorder.Write(p)
}

// TestHitRendersInBlocks fills the cache from a CSV miss of short cells
// under a long column name, then hits it as JSON and XML, which repeat
// the name in every cell: about 2 MB rendered from 4 KB of IDs. The hit
// must stream that as a miss of its size does, buffering at most one
// block of rows past StreamAt before each write, and send a fresh
// miss's bytes.
func TestHitRendersInBlocks(t *testing.T) {
	name := strings.Repeat("v", 2000)
	path := sparqlPath("SELECT ?"+name+" WHERE { ?"+name+" <http://ex/p> ?o . }", "")
	st := padStore(t, 1000, 0)
	serve := func(srv *Server, f results.Format) *writeSizes {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("Accept", f.ContentType())
		w := &writeSizes{ResponseRecorder: httptest.NewRecorder()}
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%v: status %d, body %.200s", f, w.Code, w.Body)
		}
		return w
	}
	fresh := New(st, Options{CacheEntries: -1})
	srv := New(st, Options{})
	if w := serve(srv, results.CSV); w.Header().Get("X-Cache") != "miss" || len(w.sizes) != 1 {
		t.Fatalf("CSV: X-Cache %q in %d writes; want a one-piece miss", w.Header().Get("X-Cache"), len(w.sizes))
	}
	if b := srv.results.Bytes(); b != 4*1001 {
		t.Fatalf("the cache holds %d bytes, want the 1001 rows' %d", b, 4*1001)
	}
	// A row of either format is the name and under 128 bytes besides.
	bound := results.StreamAt + (hitBlockRows+1)*(len(name)+128)
	for _, f := range []results.Format{results.JSON, results.XML} {
		want, got := serve(fresh, f), serve(srv, f)
		if got.Header().Get("X-Cache") != "hit" || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%v: X-Cache %q, %d bytes; want a hit of the fresh miss's %d bytes", f, got.Header().Get("X-Cache"), got.Body.Len(), want.Body.Len())
		}
		if len(got.sizes) < 2 || slices.Max(got.sizes) > bound {
			t.Errorf("%v: a %d-byte hit written as %v; want it streamed in writes of at most %d bytes", f, got.Body.Len(), got.sizes, bound)
		}
	}
}

// TestCacheHoldsIDsBelowStreamAt serves a CSV answer of 20000 empty
// literals: 2 bytes a row, so it goes out in one piece, but 80 000 bytes
// of IDs, which the cache refuses, so no entry outgrows StreamAt.
func TestCacheHoldsIDsBelowStreamAt(t *testing.T) {
	const rows = 20000
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "<http://ex/s%d> <http://ex/p> \"\" .\n", i)
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
	srv := New(&store.Store{Index: x, Dicts: dicts}, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	path := sparqlPath("SELECT ?o WHERE { ?s <http://ex/p> ?o . }", "")
	for range 2 {
		got := fetch(t, ts, path, results.CSV, false)
		if got.cache != "miss" || got.chunked || len(got.body) != 3+2*rows {
			t.Fatalf("X-Cache %q, chunked %v, %d bytes; want a one-piece miss of %d bytes", got.cache, got.chunked, len(got.body), 3+2*rows)
		}
	}
	if n := srv.Snapshot().CacheEntries; n != 0 {
		t.Errorf("%d cache entries, want none", n)
	}
}
