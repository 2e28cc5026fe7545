package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"
)

// The per-miss garbage budget (DESIGN.md, "Per-miss garbage"): a
// protocol query that misses the result cache allocates little enough
// that the collector keeps pace on a heap goal set by the live heap
// alone. These fixtures call the handler directly, as net/http would,
// with a ResponseWriter reused across requests, so what they count is
// the handler's own garbage and none of net/http's.

// reusedWriter is a ResponseWriter that keeps its header map across
// requests and discards the body.
type reusedWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *reusedWriter) Header() http.Header { return w.h }

func (w *reusedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *reusedWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}

func (w *reusedWriter) reset() {
	clear(w.h)
	w.status, w.n = 0, 0
}

// missFixture serves distinct queries of one shape round-robin, more of
// them than the result cache holds, so every request in the steady state
// misses it, as a point-cold request mostly does.
type missFixture struct {
	s    *Server
	w    *reusedWriter
	reqs []*http.Request
	next int
}

// Shapes the fixtures cycle through: a point SP? lookup answering three
// rows, and a two-pattern star joining on its subject.
const (
	pointShape = "SELECT ?o WHERE { <http://ex/p%d> <http://ex/likes> ?o . }"
	starShape  = "SELECT ?x ?y WHERE { ?x <http://ex/likes> <http://ex/item%d> . ?x <http://ex/knows> ?y . }"
)

// missPeople sizes the store: 3000 people liking 3 of 1501 items, so both
// shapes have over 1024 distinct instances.
const missPeople = 3000

func newMissFixture(tb testing.TB, shape string, distinct int) *missFixture {
	st := testStore(tb, missPeople, 3)
	// The request context is cancelable, as net/http's is: deriving the
	// deadline from it costs what it costs in production.
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	f := &missFixture{s: New(st, Options{}), w: &reusedWriter{h: http.Header{}}}
	for i := 0; i < distinct; i++ {
		r := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(fmt.Sprintf(shape, i)), nil)
		r.Header.Set("Accept", "application/sparql-results+json")
		f.reqs = append(f.reqs, r.WithContext(ctx))
	}
	// One pass fills the caches and the pools.
	for range f.reqs {
		f.serve(tb)
	}
	return f
}

// serve answers the next request and checks that it was a 200 miss.
func (f *missFixture) serve(tb testing.TB) {
	f.w.reset()
	f.s.handleProtocol(f.w, f.reqs[f.next])
	f.next = (f.next + 1) % len(f.reqs)
	if f.w.status != http.StatusOK || f.w.n == 0 || f.w.h.Get("X-Cache") != "miss" {
		tb.Fatalf("status %d, %d bytes, X-Cache %q; want a 200 miss with a body",
			f.w.status, f.w.n, f.w.h.Get("X-Cache"))
	}
}

// garbagePerRequest counts the heap objects and bytes f allocates per
// call, on one processor as testing.AllocsPerRun measures.
func garbagePerRequest(n int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// BenchmarkProtocolMiss times the protocol handler on result-cache misses
// and reports its garbage per request.
func BenchmarkProtocolMiss(b *testing.B) {
	for _, c := range []struct{ name, shape string }{{"point", pointShape}, {"star", starShape}} {
		b.Run(c.name, func(b *testing.B) {
			f := newMissFixture(b, c.shape, 1500)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.serve(b)
			}
		})
	}
}
