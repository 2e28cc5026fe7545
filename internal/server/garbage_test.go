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
// alone, and one that hits it, rendering the cached rows, allocates no
// more than a hit did when the cache held rendered bodies. These fixtures call the handler directly, as net/http would, with a
// ResponseWriter reused across requests, so what they count is the
// handler's own garbage and none of net/http's.

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

// protocolFixture serves distinct queries of one shape round-robin.
// With more of them than the result cache holds, every request in the
// steady state misses it, as a point-cold request mostly does; with
// fewer, every one hits it, as a point-hot request does.
type protocolFixture struct {
	s    *Server
	w    *reusedWriter
	reqs []*http.Request
	next int
	want string // the X-Cache verdict of every request after the first pass
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

// newMissFixture serves more distinct queries than the result cache
// holds.
func newMissFixture(tb testing.TB, shape string) *protocolFixture {
	return newProtocolFixture(tb, shape, 1500, "miss")
}

// newHitFixture serves as many distinct queries as point-hot does, which
// the result cache holds.
func newHitFixture(tb testing.TB, shape string) *protocolFixture {
	return newProtocolFixture(tb, shape, 128, "hit")
}

func newProtocolFixture(tb testing.TB, shape string, distinct int, want string) *protocolFixture {
	st := testStore(tb, missPeople, 3)
	// The request context is cancelable, as net/http's is: deriving the
	// deadline from it costs what it costs in production.
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	f := &protocolFixture{s: New(st, Options{}), w: &reusedWriter{h: http.Header{}}, want: "miss"}
	for i := 0; i < distinct; i++ {
		r := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(fmt.Sprintf(shape, i)), nil)
		r.Header.Set("Accept", "application/sparql-results+json")
		f.reqs = append(f.reqs, r.WithContext(ctx))
	}
	// One pass of misses fills the caches and the pools.
	for range f.reqs {
		f.serve(tb)
	}
	f.want = want
	return f
}

// serve answers the next request and checks that it was a 200 with a
// body and the fixture's X-Cache verdict.
func (f *protocolFixture) serve(tb testing.TB) {
	f.w.reset()
	f.s.handleProtocol(f.w, f.reqs[f.next])
	f.next = (f.next + 1) % len(f.reqs)
	if f.w.status != http.StatusOK || f.w.n == 0 || f.w.h.Get("X-Cache") != f.want {
		tb.Fatalf("status %d, %d bytes, X-Cache %q; want a 200 %s with a body",
			f.w.status, f.w.n, f.w.h.Get("X-Cache"), f.want)
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
	benchmarkProtocol(b, newMissFixture)
}

// BenchmarkProtocolHit times the protocol handler on result-cache hits,
// which render their cached ID rows, and reports its garbage per request.
func BenchmarkProtocolHit(b *testing.B) {
	benchmarkProtocol(b, newHitFixture)
}

func benchmarkProtocol(b *testing.B, fixture func(testing.TB, string) *protocolFixture) {
	for _, c := range []struct{ name, shape string }{{"point", pointShape}, {"star", starShape}} {
		b.Run(c.name, func(b *testing.B) {
			f := fixture(b, c.shape)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.serve(b)
			}
		})
	}
}
