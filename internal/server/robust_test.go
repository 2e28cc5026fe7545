package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rdfindexes/internal/store"
)

// limitOne is a cheap query request: one row of the whole store.
var limitOne = sparqlPath("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }", "limit=1")

func TestClientKey(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/sparql", nil)
	r.RemoteAddr = "203.0.113.9:4711"
	if got := clientKey(r); got != "203.0.113.9" {
		t.Fatalf("remote addr key = %q", got)
	}
	r.Header.Set("X-Forwarded-For", " 198.51.100.7 , 203.0.113.9")
	if got := clientKey(r); got != "198.51.100.7" {
		t.Fatalf("xff key = %q", got)
	}
}

func TestRateLimiterBucket(t *testing.T) {
	rl := newRateLimiter(1, 2) // 1 req/s, burst 2
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := rl.allow("a", now); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := rl.allow("a", now)
	if ok || retry < 1 {
		t.Fatalf("over-burst allowed (ok=%v retry=%d)", ok, retry)
	}
	// A different client has its own bucket.
	if ok, _ := rl.allow("b", now); !ok {
		t.Fatal("second client throttled by the first")
	}
	// Tokens accrue with time.
	if ok, _ := rl.allow("a", now.Add(1500*time.Millisecond)); !ok {
		t.Fatal("refilled token denied")
	}
}

func TestRateLimiterEviction(t *testing.T) {
	rl := newRateLimiter(100, 1)
	now := time.Unix(1000, 0)
	for i := 0; i < maxClients; i++ {
		rl.allow("client-"+strconv.Itoa(i), now)
	}
	// All existing buckets have fully refilled by now+1s, so the next
	// insert evicts them instead of growing past the bound.
	rl.allow("straw", now.Add(time.Second))
	if n := len(rl.buckets); n > maxClients {
		t.Fatalf("limiter table grew to %d entries", n)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(3, 10*time.Second)
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		if ok, _ := b.allow(now); !ok {
			t.Fatalf("breaker open before threshold (failure %d)", i)
		}
		b.result(true, false, now)
	}
	ok, retry := b.allow(now)
	if ok || retry < 1 {
		t.Fatalf("breaker closed after threshold failures (ok=%v retry=%d)", ok, retry)
	}
	if !b.open(now) {
		t.Fatal("open() disagrees with allow()")
	}
	// Client-fault (neutral) outcomes neither trip nor reset: a new
	// breaker fed bad-term errors stays closed.
	nb := newBreaker(2, time.Second)
	for i := 0; i < 5; i++ {
		nb.allow(now)
		nb.result(true, true, now)
	}
	if nb.open(now) {
		t.Fatal("client faults opened the breaker")
	}
	// After the cooldown exactly one probe goes through; a concurrent
	// request is still rejected.
	later := now.Add(11 * time.Second)
	if ok, _ := b.allow(later); !ok {
		t.Fatal("half-open probe denied")
	}
	if ok, _ := b.allow(later); ok {
		t.Fatal("second request admitted during the probe")
	}
	// Probe success closes the breaker for everyone.
	b.result(false, false, later)
	if ok, _ := b.allow(later); !ok {
		t.Fatal("breaker still open after a successful probe")
	}
	// And a failed probe re-opens it for a full cooldown.
	for i := 0; i < 3; i++ {
		b.result(true, false, later)
	}
	probeAt := later.Add(11 * time.Second)
	if ok, _ := b.allow(probeAt); !ok {
		t.Fatal("second probe denied")
	}
	b.result(true, false, probeAt)
	if ok, _ := b.allow(probeAt.Add(5 * time.Second)); ok {
		t.Fatal("breaker closed mid-cooldown after a failed probe")
	}
}

// TestRateLimitHTTP drives the limiter through the HTTP layer: the
// burst passes, the next request 429s with Retry-After, and /stats
// counts the rejection under its cause.
func TestRateLimitHTTP(t *testing.T) {
	st := testStore(t, 6, 2)
	srv := New(st, Options{RateLimit: 1, RateBurst: 2})
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, limitOne, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("burst request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, limitOne, nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: %d", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	// A different client is unaffected.
	other := httptest.NewRequest(http.MethodGet, limitOne, nil)
	other.RemoteAddr = "203.0.113.77:999"
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, other)
	if rec.Code != http.StatusOK {
		t.Fatalf("second client throttled: %d", rec.Code)
	}
	// /stats itself is never rate-limited and reports the cause split.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats rate-limited: %d", rec.Code)
	}
	var stats Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.RejectedRateLimited != 1 || stats.Rejected != 1 {
		t.Fatalf("rejection counters %+v", stats)
	}
}

// TestBreakerHTTP opens the breaker (by feeding it internal-failure
// outcomes) and checks the write path fails fast with 503 + Retry-After
// while reads keep flowing, with the rejection counted by cause.
func TestBreakerHTTP(t *testing.T) {
	dir := t.TempDir()
	path := buildMutableStore(t, dir)
	m, err := store.OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := NewMutable(m, Options{BreakerThreshold: 2, BreakerCooldown: time.Minute})
	now := time.Now()
	for i := 0; i < 2; i++ {
		srv.brk.result(true, false, now)
	}
	insert := dataUpdate("INSERT", "<http://ex/new>", "<http://ex/knows>", "<http://ex/p1>")
	req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(insert))
	req.Header.Set("Content-Type", sparqlUpdateType)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write through open breaker: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("breaker 503 without Retry-After")
	}
	// Reads are not gated by the write breaker.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, limitOne, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("read blocked by write breaker: %d", rec.Code)
	}
	var stats Stats
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.RejectedBreakerOpen != 1 || !stats.BreakerOpen {
		t.Fatalf("breaker stats %+v", stats)
	}
	// A successful write after recovery closes it: simulate by letting
	// the probe through after cooldown.
	srv.now = func() time.Time { return now.Add(2 * time.Minute) }
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(insert))
	req.Header.Set("Content-Type", sparqlUpdateType)
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("half-open probe write: %d %s", rec.Code, rec.Body)
	}
	if srv.brk.open(srv.now()) {
		t.Fatal("breaker still open after successful probe")
	}
}

// TestPanicRecovery pins the middleware: a panicking handler answers
// 500 with the panic counted, and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	st := testStore(t, 4, 1)
	srv := New(st, Options{})
	srv.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic answered %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Fatalf("panic body %q", rec.Body)
	}
	if srv.panics.Load() != 1 {
		t.Fatalf("panics counter = %d", srv.panics.Load())
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, limitOne, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("server dead after a recovered panic: %d", rec.Code)
	}
}

// TestBusyRetryAfter saturates the one-worker pool and checks the busy
// 503 carries Retry-After and is counted under its own cause.
func TestBusyRetryAfter(t *testing.T) {
	st := testStore(t, 4, 1)
	srv := New(st, Options{Workers: 1, Timeout: 50 * time.Millisecond, CacheEntries: -1})
	srv.sem <- struct{}{} // steal the only worker slot
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, limitOne, nil))
	<-srv.sem
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated pool answered %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("busy 503 without Retry-After")
	}
	var stats Stats
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.RejectedBusy != 1 {
		t.Fatalf("busy rejection not counted: %+v", stats)
	}
}

// TestRequestDeadline holds the request context to context.WithTimeout's
// contract: Err reports the request's cancellation or the deadline by the
// clock, Done closes at the deadline once asked for, and Err agrees with
// it from then on.
func TestRequestDeadline(t *testing.T) {
	srv := New(testStore(t, 4, 1), Options{Timeout: 30 * time.Millisecond})
	parent, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest(http.MethodGet, "/sparql", nil).WithContext(parent)

	x := srv.begin(r)
	if d, ok := x.ctx.Deadline(); !ok || time.Until(d) > 30*time.Millisecond {
		t.Fatalf("Deadline() = %v, %v", d, ok)
	}
	if err := x.ctx.Err(); err != nil {
		t.Fatalf("fresh context: %v", err)
	}
	cancel()
	if err := x.ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("after the request was canceled: %v, want Canceled", err)
	}
	x.end()

	// Past the deadline, with no Done asked for: the clock decides.
	x = srv.begin(httptest.NewRequest(http.MethodGet, "/sparql", nil))
	time.Sleep(40 * time.Millisecond)
	if err := x.ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("past the deadline: %v, want DeadlineExceeded", err)
	}
	select {
	case <-x.ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("Done asked for past the deadline did not close")
	}
	x.end()

	// Done asked for before the deadline closes at it.
	x = srv.begin(httptest.NewRequest(http.MethodGet, "/sparql", nil))
	done := x.ctx.Done()
	if err := x.ctx.Err(); err != nil {
		t.Fatalf("Done armed before the deadline: Err %v", err)
	}
	select {
	case <-done:
		if err := x.ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("after Done closed: %v, want DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Done did not close at the deadline")
	}
	x.end()
}

// buildMutableStore writes a small dictionary store to disk for
// mutable-serving tests.
func buildMutableStore(t *testing.T, dir string) string {
	t.Helper()
	st := testStore(t, 6, 2)
	path := dir + "/store.idx"
	if err := store.Write(path, st); err != nil {
		t.Fatal(err)
	}
	return path
}
