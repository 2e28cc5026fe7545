package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
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
// chunking, every Server-Timing entry in the header, cached as a copy
// that survives the pooled buffer's reuse — and from the threshold on it
// is streamed: chunked and never cached. Either way the bytes are those
// of a bare row writer.
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
					// The interleaved point query is cached too.
					if got := srv.results.Bytes(); got <= size || got > size+200 {
						t.Errorf("cache holds %d bytes, want the %d-byte body and one small answer", got, size)
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
