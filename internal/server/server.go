// Package server exposes a loaded store over HTTP for concurrent query
// serving. Every view served is immutable (see the concurrency contract
// in internal/core), so requests share it with no locking on the read
// path: each request's selections take their states from the pools of
// the index they read, and it executes under a deadline and streams
// results. A server over a
// store.Mutable additionally accepts single-writer updates; reads then
// resolve against the RCU-published snapshot view current at request
// start.
//
// Endpoints:
//
//	GET/POST /sparql   SPARQL 1.1 Protocol endpoint. Queries arrive as
//	                   GET ?query= or POST (application/sparql-query
//	                   body, or form with query=); results stream as
//	                   SPARQL JSON, XML, CSV or TSV per the Accept header
//	                   (see internal/server/results). Updates arrive as
//	                   POST (application/sparql-update body, or form with
//	                   update=) and insert or delete one triple on a
//	                   mutable store (see update.go)
//	GET  /stats        store + server statistics as JSON
//	GET  /metrics      Prometheus text-format metrics
//	GET  /healthz      liveness probe (always 200 while serving)
//	GET  /readyz       readiness probe (503 while a replica catches up)
//	GET  /debug/pprof/* runtime profiles (only with Options.Pprof)
//
// Admission is a bounded worker pool: at most Options.Workers queries
// execute at once, later arrivals queue on their request context and are
// rejected with 503 when it expires before a slot frees. Repeated
// queries are answered from an LRU result cache keyed on the normalized
// (dictionary-resolved) query text without touching the index. A miss
// plans and compiles its query in the request that runs it: planning
// costs about a microsecond, and a plan lives only as long as its
// request. The cache key carries the store's write generation, and
// every changing write flushes the cache, so a write is never answered
// with pre-write results.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/obs"
	"rdfindexes/internal/repl"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/store"
)

// slowLogMinGap is the slow-query log's sampling gap: at most one entry
// per second, so an overload that makes every query slow degrades to a
// heartbeat instead of amplifying itself with logging I/O.
const slowLogMinGap = time.Second

// Options tunes the server; zero fields take the documented defaults.
// It is the one public configuration surface: construction goes through
// New or NewMutable with an Options value, defaults are applied
// internally, and Validate rejects nonsense combinations up front for
// callers (like the CLI) that assemble Options from external input.
type Options struct {
	// Workers bounds the number of concurrently executing queries
	// (default runtime.GOMAXPROCS(0)).
	Workers int
	// Timeout is the per-request execution deadline, covering both queue
	// wait and evaluation (default 30s). Cancellation is observed at
	// batch-refill granularity, never per triple.
	Timeout time.Duration
	// CacheEntries is the result cache capacity in entries (default 256;
	// negative disables caching). An entry is an answer's rows as
	// dictionary IDs, 4 bytes a cell; only answers sent in one piece
	// (below results.StreamAt) whose IDs are below results.StreamAt too
	// are cached, so the cache holds at most CacheEntries × 64 KiB.
	CacheEntries int
	// Pprof exposes the runtime profiling endpoints under
	// /debug/pprof/* (CPU and heap profiles, goroutine dumps, execution
	// traces) so worker-pool and cache behavior can be profiled in
	// situ. Off by default: profiles reveal operational internals, so
	// enabling them is an explicit deployment decision.
	Pprof bool
	// RateLimit caps each client (by X-Forwarded-For or remote IP) to
	// this many requests per second on the query and write endpoints;
	// excess requests get 429 + Retry-After. 0 disables limiting
	// (default): it is an explicit deployment decision, like Pprof.
	RateLimit float64
	// RateBurst is the token-bucket burst per client (default
	// max(1, 2*RateLimit)): how far a briefly idle client may exceed the
	// steady rate.
	RateBurst int
	// BreakerThreshold opens the write-path circuit breaker after this
	// many consecutive internal write failures (WAL I/O or merge errors;
	// a client's bad terms never count). While open, writes fail fast
	// with 503 + Retry-After instead of rediscovering a broken disk per
	// request. Default 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting
	// one probe write through (default 10s).
	BreakerCooldown time.Duration
	// SlowQuery is the slow-query log threshold: protocol queries whose
	// end-to-end time crosses it are written as structured JSON lines to
	// SlowQueryLog, sampled to at most one entry per second (suppressed
	// entries are counted in /metrics and /stats). 0 disables the log
	// (default).
	SlowQuery time.Duration
	// SlowQueryLog receives the slow-query entries (default os.Stderr
	// when SlowQuery is set). Writes are serialized internally.
	SlowQueryLog io.Writer
	// Replica marks this server as a WAL-shipping read replica: the
	// follower that owns the served store. Writes answer 403 with the
	// leader's address, /readyz reports catch-up state, min-gen reads
	// check the follower's applied leader generation, and replication
	// lag/position surface on /stats and /metrics. The server must be
	// built with NewMutable over Replica.Mutable().
	Replica *repl.Follower
	// ReplLeader, when set, exposes the WAL-shipping leader's follower
	// count and shipping counters through /stats and /metrics.
	ReplLeader *repl.Leader
}

// Validate reports the first nonsensical field combination, before
// withDefaults silently papers over it. The zero value is always valid.
// Negative values that carry meaning (CacheEntries disables the result
// cache, BreakerThreshold disables the breaker) pass; negatives that a
// default would mask do not.
func (c Options) Validate() error {
	switch {
	case c.Workers < 0:
		return fmt.Errorf("options: Workers %d is negative", c.Workers)
	case c.Timeout < 0:
		return fmt.Errorf("options: Timeout %v is negative", c.Timeout)
	case c.RateLimit < 0:
		return fmt.Errorf("options: RateLimit %g is negative", c.RateLimit)
	case c.RateBurst < 0:
		return fmt.Errorf("options: RateBurst %d is negative", c.RateBurst)
	case c.BreakerCooldown < 0:
		return fmt.Errorf("options: BreakerCooldown %v is negative", c.BreakerCooldown)
	case c.SlowQuery < 0:
		return fmt.Errorf("options: SlowQuery %v is negative", c.SlowQuery)
	}
	return nil
}

func (c Options) withDefaults() Options {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.SlowQuery > 0 && c.SlowQueryLog == nil {
		c.SlowQueryLog = os.Stderr
	}
	return c
}

// Server answers BGP queries over one shared store: either a fixed
// immutable store, or a mutable store whose reads go through
// RCU-published snapshot views and whose writes arrive as SPARQL updates.
type Server struct {
	st  *store.Store   // fixed read-only store (nil when mut is set)
	mut *store.Mutable // updatable store (nil when read-only)
	cfg Options
	mux *http.ServeMux

	sem     chan struct{} // bounded worker pool
	results *lruCache
	valid   atomic.Pointer[protocolValidators] // the serving view's, once a protocol request formatted them

	limiter *rateLimiter // nil when Config.RateLimit is 0
	brk     *breaker     // nil when the breaker is disabled
	now     func() time.Time

	start time.Time

	// The request counters live in the metric registry (initMetrics) and
	// are incremented through these handles: one atomic write feeds
	// /metrics, /stats and the tests alike. The total rejection count is
	// derived as the sum of its three causes at read time.
	reg           *obs.Registry
	protocols     *obs.Counter // SPARQL protocol queries accepted
	inserts       *obs.Counter // INSERT DATA updates accepted
	deletes       *obs.Counter // DELETE DATA updates accepted
	rejectedBusy  *obs.Counter // 503s: pool saturated past deadline
	rejectedRate  *obs.Counter // 429s: client over its rate limit
	rejectedBrk   *obs.Counter // 503s: write-path circuit breaker open
	rejectedStale *obs.Counter // 503s: replica behind the min-gen token
	panics        *obs.Counter // handler panics converted to 500s
	failed        *obs.Counter // requests ending in an error
	onePiece      *obs.Counter // misses sent whole with a Content-Length
	streamed      *obs.Counter // misses that crossed results.StreamAt and went out chunked

	// reqHist observes end-to-end protocol request latency; stageHist
	// breaks the same requests down by pipeline stage. slow is the
	// sampled slow-query log (disabled unless Options.SlowQuery is set —
	// a nil *obs.SlowLog swallows Record calls).
	reqHist   *obs.Histogram
	stageHist [obs.NumStages]*obs.Histogram
	slow      *obs.SlowLog
}

// New builds a read-only server over a loaded store.
func New(st *store.Store, cfg Options) *Server { return newServer(cfg, st, nil) }

// NewMutable builds a server over an updatable store: reads resolve
// against the store's current snapshot view, and /sparql accepts
// updates.
func NewMutable(m *store.Mutable, cfg Options) *Server { return newServer(cfg, nil, m) }

func newServer(cfg Options, st *store.Store, m *store.Mutable) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		st:      st,
		mut:     m,
		sem:     make(chan struct{}, cfg.Workers),
		results: newLRU(cfg.CacheEntries),
		now:     time.Now,
		start:   time.Now(),
	}
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	if cfg.BreakerThreshold > 0 {
		s.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	if cfg.SlowQuery > 0 {
		s.slow = obs.NewSlowLog(cfg.SlowQueryLog, cfg.SlowQuery, slowLogMinGap)
	}
	s.initMetrics()
	s.mux = http.NewServeMux()
	// /sparql is the one query and update endpoint: the SPARQL 1.1
	// Protocol, rate-limited per client.
	s.mux.HandleFunc("/sparql", s.limited(s.handleProtocol))
	// The probes (/stats, /metrics, /healthz) stay unlimited:
	// rate-limiting them would blind the monitoring that explains the
	// 429s.
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	if cfg.Pprof {
		// Registered on the server's own mux (net/http/pprof's side
		// effects only touch http.DefaultServeMux, which is never
		// served here).
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// view returns the store snapshot a request should serve from, plus the
// write generation it belongs to. The generation is stamped inside the
// atomically-published view, so the pair is read with one pointer load
// — a concurrent write (or merge, which remaps dictionary IDs) cannot
// tear it and make a cache key describe IDs from a different view. A
// fixed store is its own immortal snapshot at generation 0.
func (s *Server) view() (*store.Store, uint64) {
	if s.mut != nil {
		st := s.mut.View()
		return st, st.Gen
	}
	return s.st, 0
}

// ServeHTTP implements http.Handler. A panicking handler answers 500
// (when the response has not started streaming yet; net/http otherwise
// aborts the connection, which a streaming client already detects as a
// truncated body) and is counted, instead of tearing down the
// connection with no record — one poisoned query must not look like a
// server crash from the outside.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.fail(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// errBusy is returned when the worker pool stays saturated past the
// request's deadline.
var errBusy = errors.New("server busy: no worker available before the deadline")

// errRateLimited answers clients over their per-client rate limit.
var errRateLimited = errors.New("rate limit exceeded for this client")

// errBreakerOpen answers writes while the write-path circuit breaker is
// open after repeated internal write failures.
var errBreakerOpen = errors.New("write path unavailable: repeated internal write failures (circuit breaker open)")

// rejectBusy answers a pool-saturation rejection: 503 with a short
// jittered Retry-After — capacity frees on the order of a query
// duration, so an immediate retry would just queue again.
func (s *Server) rejectBusy(w http.ResponseWriter) {
	s.rejectedBusy.Add(1)
	setRetryAfter(w, 1)
	httpError(w, http.StatusServiceUnavailable, errBusy)
}

// reqCtx is a request's context under the server's execution deadline
// (Options.Timeout from the request's arrival here). context.WithTimeout
// would arm a timer and register a child with the request's context on
// every request: most of the garbage a point query leaves, for a deadline
// that a query finishing in microseconds never nears. Err reads the clock
// instead, and the timer-backed context is built only for a caller that
// waits on Done, such as a request queueing for a worker slot.
type reqCtx struct {
	context.Context // the request's
	deadline        time.Time

	mu     sync.Mutex
	timed  context.Context // context.WithDeadline(Context, deadline), once Done was asked for
	cancel context.CancelFunc
}

func (c *reqCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *reqCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timed == nil {
		c.timed, c.cancel = context.WithDeadline(c.Context, c.deadline)
	}
	return c.timed.Done()
}

// Err is what Done's context would report. Until something asks for Done
// no channel can disagree with it, so it is the request's error or the
// clock's verdict.
func (c *reqCtx) Err() error {
	c.mu.Lock()
	timed := c.timed
	c.mu.Unlock()
	if timed != nil {
		return timed.Err()
	}
	if err := c.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// exchange is the state of one request that takes a worker slot: its
// deadline context and the response a row writer flushes into. Both
// escape to the heap, the context into the executor and the response
// into the row writer, so exchanges are pooled rather than allocated per
// request.
type exchange struct {
	ctx  reqCtx
	resp response
}

var exchanges = sync.Pool{New: func() any { return new(exchange) }}

// begin starts r's deadline. The request ends its exchange, and uses
// neither the context nor the response after that.
func (s *Server) begin(r *http.Request) *exchange {
	x := exchanges.Get().(*exchange)
	parent := r.Context()
	x.ctx.Context, x.ctx.deadline = parent, time.Now().Add(s.cfg.Timeout)
	if pd, ok := parent.Deadline(); ok && pd.Before(x.ctx.deadline) {
		x.ctx.deadline = pd
	}
	//rdf:allow(ownership transfers to the caller; end returns it to the pool)
	return x
}

// end releases the timer the context's Done armed, if it did, and
// recycles the exchange.
func (x *exchange) end() {
	if x.ctx.cancel != nil {
		x.ctx.cancel()
	}
	*x = exchange{}
	exchanges.Put(x)
}

// acquire claims a worker slot, waiting on ctx when the pool is full.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return errBusy
	}
}

func (s *Server) release() { <-s.sem }

// errorDoc is the unified error body every 4xx/5xx carries:
//
//	{"error":{"code":404,"message":"…"}}
//
// One shape with an explicit Content-Type means clients branch on one
// parser instead of sniffing which handler produced the failure.
type errorDoc struct {
	Error struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// httpError answers a pre-stream failure as a JSON error document.
func httpError(w http.ResponseWriter, status int, err error) {
	var doc errorDoc
	doc.Error.Code = status
	doc.Error.Message = err.Error()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(doc)
}

// fail counts a failed request and answers it with the unified error
// body.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.failed.Add(1)
	httpError(w, status, err)
}

// parseLimitValue reads a limit parameter; absent means unlimited (-1).
// Explicit negative limits are rejected — only absence spells
// "unlimited" — and limit=0 is valid: zero result rows, summary only.
func parseLimitValue(v string) (int, error) {
	if v == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("limit %q is not an integer", v)
	}
	if n < 0 {
		return 0, fmt.Errorf("limit %d is negative; omit the parameter for unlimited", n)
	}
	return n, nil
}

// execute runs plan over the view's index, passing solution blocks to
// write up to the request's row cap (limit; negative for none). The run
// is asked for one row past the cap: finding it ends the run at once and
// reports the answer truncated, not failed.
func execute(ctx context.Context, plan *sparql.Compiled, st *store.Store, tr *obs.Trace,
	limit int, write func(ids []core.ID, rows int)) (stats sparql.ExecStats, rows int, truncated bool, err error) {
	e := execStates.Get().(*execState)
	defer execStates.Put(e)
	defer e.clear()
	e.limit, e.write = limit, write
	opt := sparql.Options{Trace: tr}
	if limit >= 0 {
		opt.MaxRows = limit + 1
	}
	stats, err = sparql.Run(ctx, plan, st.Index, opt, e.sink)
	rows, truncated = e.rows, e.truncated
	return stats, rows, truncated, err
}

// execState is what execute hands a run: the row cap, whose sink is
// bound once per pooled state rather than once per run, so execute
// itself allocates nothing.
type execState struct {
	limit     int
	rows      int
	truncated bool
	write     func(ids []core.ID, rows int)
	sink      sparql.Sink // e.block
}

var execStates = sync.Pool{New: func() any {
	e := new(execState)
	e.sink = e.block
	return e
}}

// block passes a block on to write, cut at the row cap.
func (e *execState) block(b sparql.Block) {
	if e.limit >= 0 && e.rows+b.Rows > e.limit {
		b.Rows, e.truncated = e.limit-e.rows, true
	}
	if b.Rows > 0 {
		e.write(b.IDs, b.Rows)
		e.rows += b.Rows
	}
}

// clear readies the state for the pool, keeping the bound sink.
func (e *execState) clear() { *e = execState{sink: e.sink} }

// handleWrite applies one parsed update. Terms never seen before are
// admitted via the overlay dictionaries; deleting an absent triple
// (including one with unknown terms) reports changed=false. The response
// is the store's WriteResult as JSON.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request, u update) {
	if f := s.cfg.Replica; f != nil {
		// A replica's store belongs to the replication stream; a local
		// write would fork it from the leader's WAL. Point the client at
		// the writer.
		s.failed.Add(1)
		w.Header().Set(leaderHeader, f.Leader())
		httpError(w, http.StatusForbidden,
			fmt.Errorf("this server is a read replica; write to the leader at %s", f.Leader()))
		return
	}
	if s.mut == nil {
		s.fail(w, http.StatusForbidden, errors.New("store is read-only (serve a mutable store to enable writes)"))
		return
	}
	// The circuit breaker gates admission: while the write path is known
	// broken (consecutive WAL or merge failures), fail fast before
	// spending a worker slot on a write that will hit the same fault.
	if s.brk != nil {
		if ok, retry := s.brk.allow(s.now()); !ok {
			s.rejectedBrk.Add(1)
			setRetryAfter(w, retry)
			httpError(w, http.StatusServiceUnavailable, errBreakerOpen)
			return
		}
	}
	// Writes go through the same bounded admission as reads: at most
	// Workers requests contend for the store's writer mutex, and later
	// arrivals 503 when their deadline passes first — a threshold merge
	// holding the mutex for a rebuild must not pile up goroutines.
	x := s.begin(r)
	defer x.end()
	ctx := &x.ctx
	if err := s.acquire(ctx); err != nil {
		if s.brk != nil {
			// No write happened; a granted half-open probe must not stay
			// reserved (neutral outcome releases it).
			s.brk.result(false, true, s.now())
		}
		s.rejectBusy(w)
		return
	}
	defer s.release()
	var res store.WriteResult
	var err error
	if u.insert {
		s.inserts.Add(1)
		res, err = s.mut.Insert(u.s, u.p, u.o)
	} else {
		s.deletes.Add(1)
		res, err = s.mut.Delete(u.s, u.p, u.o)
	}
	if s.brk != nil {
		// Bad terms are the caller's fault and say nothing about the
		// store's health; only internal failures count against it.
		s.brk.result(err != nil, errors.Is(err, store.ErrTerm), s.now())
	}
	if err != nil {
		s.failed.Add(1)
		// Bad terms are the caller's fault; WAL or merge failures are
		// server-side and must not masquerade as 400s (clients would
		// drop instead of retry).
		status := http.StatusInternalServerError
		if errors.Is(err, store.ErrTerm) {
			status = http.StatusBadRequest
		}
		httpError(w, status, err)
		return
	}
	if res.Changed {
		// The generation prefix already fences stale entries off the
		// read path; flushing reclaims their memory immediately instead
		// of waiting for LRU churn.
		s.results.Clear()
	}
	// The generation doubles as the read-your-writes token: present it
	// back as min-gen (to this server or a replica) to never read a view
	// older than this write.
	w.Header().Set(generationHeader, strconv.FormatUint(res.Generation, 10))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// Stats is the /stats document. On a mutable store, Triples and
// BitsPerTriple describe the current snapshot (static core plus pending
// update log).
type Stats struct {
	Layout        string  `json:"layout"`
	Triples       int     `json:"triples"`
	BitsPerTriple float64 `json:"bits_per_triple"`
	Mutable       bool    `json:"mutable"`
	Generation    uint64  `json:"generation"`
	LogSize       int     `json:"log_size"`
	Merges        uint64  `json:"merges"`
	Workers       int     `json:"workers"`
	InFlight      int     `json:"in_flight"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// OpenSeconds is how long the store open took at start.
	OpenSeconds float64 `json:"open_seconds"`
	// ProtocolQueries counts query requests on /sparql; Inserts and
	// Deletes count its updates by verb.
	ProtocolQueries uint64 `json:"protocol_queries"`
	Inserts         uint64 `json:"inserts"`
	Deletes         uint64 `json:"deletes"`
	// Rejected totals the rejection causes broken out below.
	Rejected            uint64 `json:"rejected"`
	RejectedBusy        uint64 `json:"rejected_busy"`
	RejectedRateLimited uint64 `json:"rejected_rate_limited"`
	RejectedBreakerOpen uint64 `json:"rejected_breaker_open"`
	// RejectedStale counts min-gen reads refused because the view had
	// not caught up to the requested generation.
	RejectedStale uint64 `json:"rejected_stale"`
	Panics        uint64 `json:"panics"`
	Failed        uint64 `json:"failed"`
	BreakerOpen   bool   `json:"breaker_open"`
	CacheEntries  int    `json:"cache_entries"`
	// CacheBytes is the bytes of cached ID rows: 4 a cell.
	CacheBytes  int    `json:"cache_bytes"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CacheFlushes counts whole-cache invalidations, one per changing
	// write (generation bump).
	CacheFlushes uint64 `json:"cache_flushes"`
	// SlowQueries and SlowSuppressed count slow-query log entries
	// written and entries the sampler dropped; both stay 0 with the log
	// disabled. WALBytes is the write-ahead log's current size.
	SlowQueries    uint64 `json:"slow_queries"`
	SlowSuppressed uint64 `json:"slow_queries_suppressed"`
	WALBytes       int64  `json:"wal_bytes"`
	// RequestP50Ms/P95/P99 are latency percentiles of the protocol
	// endpoint, from the same histogram /metrics exposes.
	RequestP50Ms float64 `json:"request_p50_ms"`
	RequestP95Ms float64 `json:"request_p95_ms"`
	RequestP99Ms float64 `json:"request_p99_ms"`
	// FormatVersion is the version of the container the serving view
	// came from, every section of which was checksum-verified at open.
	// MappedBytes is the size of the store files this process holds
	// mapped (see store.MappedBytes).
	FormatVersion int   `json:"format_version"`
	MappedBytes   int64 `json:"mapped_bytes"`
	// Replication carries the follower-side lag/position counters when
	// this server is a read replica; ReplicationLeader the leader-side
	// shipping counters when it streams its WAL to followers.
	Replication       *repl.FollowerStats `json:"replication,omitempty"`
	ReplicationLeader *repl.LeaderStats   `json:"replication_leader,omitempty"`
}

// Snapshot returns the current statistics.
func (s *Server) Snapshot() Stats {
	hits, misses := s.results.Counters()
	lat := s.reqHist.Snapshot()
	st, gen := s.view()
	stats := Stats{
		Layout:              st.Index.Layout().String(),
		Triples:             st.Index.NumTriples(),
		BitsPerTriple:       core.BitsPerTriple(st.Index),
		Generation:          gen,
		Workers:             s.cfg.Workers,
		InFlight:            len(s.sem),
		UptimeSeconds:       time.Since(s.start).Seconds(),
		OpenSeconds:         st.OpenDuration.Seconds(),
		ProtocolQueries:     s.protocols.Load(),
		Inserts:             s.inserts.Load(),
		Deletes:             s.deletes.Load(),
		RejectedBusy:        s.rejectedBusy.Load(),
		RejectedRateLimited: s.rejectedRate.Load(),
		RejectedBreakerOpen: s.rejectedBrk.Load(),
		RejectedStale:       s.rejectedStale.Load(),
		Panics:              s.panics.Load(),
		Failed:              s.failed.Load(),
		CacheEntries:        s.results.Len(),
		CacheBytes:          s.results.Bytes(),
		CacheHits:           hits,
		CacheMisses:         misses,
		CacheFlushes:        s.results.Flushes(),
		SlowQueries:         s.slow.Logged(),
		SlowSuppressed:      s.slow.Suppressed(),
		RequestP50Ms:        float64(lat.Quantile(0.50)) / 1e6,
		RequestP95Ms:        float64(lat.Quantile(0.95)) / 1e6,
		RequestP99Ms:        float64(lat.Quantile(0.99)) / 1e6,
		FormatVersion:       st.Integrity.Version,
		MappedBytes:         store.MappedBytes(),
	}
	stats.Rejected = stats.RejectedBusy + stats.RejectedRateLimited +
		stats.RejectedBreakerOpen + stats.RejectedStale
	if s.brk != nil {
		stats.BreakerOpen = s.brk.open(s.now())
	}
	if f := s.cfg.Replica; f != nil {
		fs := f.Stats()
		stats.Replication = &fs
	}
	if l := s.cfg.ReplLeader; l != nil {
		ls := l.Stats()
		stats.ReplicationLeader = &ls
	}
	if s.mut != nil {
		stats.Mutable = true
		stats.Merges = s.mut.Merges()
		stats.WALBytes = s.mut.WALBytes()
		if dyn, ok := st.Index.(*core.DynamicSnapshot); ok {
			stats.LogSize = dyn.LogSize()
		}
	}
	return stats
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

// handleHealthz is the pure liveness probe: the process is up and
// answering, nothing more. Conditions a restart would not fix — a
// replica still catching up — belong to /readyz
// (replica.go), where a load balancer drains traffic instead of a
// supervisor killing the process.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}
