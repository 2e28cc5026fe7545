package server

import (
	"net/http"
	"runtime"
	"runtime/metrics"
	"time"

	"rdfindexes/internal/obs"
	"rdfindexes/internal/store"
)

// initMetrics builds the server's metric registry: request/rejection
// counters (the same *obs.Counter values the handlers increment — one
// write, two surfaces), latency histograms for the whole request and
// for each pipeline stage, callback-read cache and slow-query counters
// (maintained by the caches and the slow log themselves, so exposition
// cannot double-count), and runtime/store gauges evaluated at scrape
// time. Registration allocates; everything the request path touches
// afterwards is lock-free.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r

	const reqName = "rdf_requests_total"
	const reqHelp = "Requests accepted per endpoint"
	s.protocols = r.Counter(reqName, `endpoint="sparql"`, reqHelp)
	s.inserts = r.Counter(reqName, `endpoint="insert"`, reqHelp)
	s.deletes = r.Counter(reqName, `endpoint="delete"`, reqHelp)

	const rejName = "rdf_rejected_total"
	const rejHelp = "Rejected requests by cause"
	s.rejectedBusy = r.Counter(rejName, `cause="busy"`, rejHelp)
	s.rejectedRate = r.Counter(rejName, `cause="rate_limited"`, rejHelp)
	s.rejectedBrk = r.Counter(rejName, `cause="breaker_open"`, rejHelp)
	s.rejectedStale = r.Counter(rejName, `cause="stale_min_gen"`, rejHelp)

	s.panics = r.Counter("rdf_panics_total", "", "Handler panics converted to 500s")
	s.failed = r.Counter("rdf_failed_total", "", "Requests ending in an error")

	const respName = "rdf_responses_total"
	const respHelp = "Query responses by path: a miss sent in one piece, a miss streamed chunked, a cache hit"
	s.onePiece = r.Counter(respName, `path="one_piece"`, respHelp)
	s.streamed = r.Counter(respName, `path="streamed"`, respHelp)
	r.CounterFunc(respName, `path="hit"`, respHelp,
		func() uint64 { h, _ := s.results.Counters(); return h })

	s.reqHist = r.Histogram("rdf_request_duration_seconds", "",
		"End-to-end latency of protocol endpoint requests")
	for st := 0; st < obs.NumStages; st++ {
		s.stageHist[st] = r.Histogram("rdf_stage_duration_seconds",
			`stage="`+obs.Stage(st).String()+`"`,
			"Per-stage latency of protocol endpoint requests")
	}

	const cacheName = "rdf_cache_events_total"
	const cacheHelp = "Cache hits, misses and generation flushes per cache"
	r.CounterFunc(cacheName, `cache="result",event="hit"`, cacheHelp,
		func() uint64 { h, _ := s.results.Counters(); return h })
	r.CounterFunc(cacheName, `cache="result",event="miss"`, cacheHelp,
		func() uint64 { _, m := s.results.Counters(); return m })
	r.CounterFunc(cacheName, `cache="result",event="flush"`, cacheHelp, s.results.Flushes)

	const slowName = "rdf_slow_queries_total"
	const slowHelp = "Queries over the slow-query threshold, by log outcome"
	r.CounterFunc(slowName, `outcome="logged"`, slowHelp, s.slow.Logged)
	r.CounterFunc(slowName, `outcome="suppressed"`, slowHelp, s.slow.Suppressed)

	r.GaugeFunc("rdf_goroutines", "", "Live goroutines",
		func() float64 { return float64(runtime.NumGoroutine()) })
	// The runtime series come from runtime/metrics, which unlike
	// runtime.ReadMemStats does not stop the world on every scrape.
	r.GaugeFunc("rdf_heap_inuse_bytes", "", "Bytes in in-use heap spans",
		func() float64 { return float64(heapInuse()) })
	r.CounterFunc("rdf_gc_cycles_total", "", "Completed garbage collection cycles",
		func() uint64 { return runtimeCounter("/gc/cycles/total:gc-cycles") })
	r.CounterFunc("rdf_heap_alloc_bytes_total", "", "Bytes allocated on the heap since the process started",
		func() uint64 { return runtimeCounter("/gc/heap/allocs:bytes") })
	r.GaugeFunc("rdf_result_cache_bytes", "", "Bytes of cached ID rows held by the result cache",
		func() float64 { return float64(s.results.Bytes()) })
	r.GaugeFunc("rdf_in_flight_requests", "", "Requests currently holding a worker slot",
		func() float64 { return float64(len(s.sem)) })
	r.GaugeFunc("rdf_store_generation", "", "Write generation of the serving view",
		func() float64 { _, gen := s.view(); return float64(gen) })
	r.GaugeFunc("rdf_store_triples", "", "Triples in the serving view",
		func() float64 { st, _ := s.view(); return float64(st.Index.NumTriples()) })
	r.GaugeFunc("rdf_wal_bytes", "", "Size of the write-ahead log (0 on read-only stores)",
		func() float64 {
			if s.mut == nil {
				return 0
			}
			return float64(s.mut.WALBytes())
		})
	r.GaugeFunc("rdf_store_open_seconds", "", "Seconds the store open took at start: mapping, checksum pass and WAL replay",
		func() float64 { st, _ := s.view(); return st.OpenDuration.Seconds() })
	r.GaugeFunc("rdf_store_mapped_bytes", "", "Bytes of store files mapped into memory, including mappings still held by retired views",
		func() float64 { return float64(store.MappedBytes()) })
	merges := &obs.Histogram{} // read-only stores never merge
	if s.mut != nil {
		merges = s.mut.MergeSeconds()
	}
	r.AddHistogram("rdf_merge_seconds", "", "Duration of merges folding the update log into a rebuilt, persisted store", merges)
	r.GaugeFunc("rdf_breaker_open", "", "1 while the write-path circuit breaker is open",
		func() float64 {
			if s.brk != nil && s.brk.open(s.now()) {
				return 1
			}
			return 0
		})

	// Replication metrics register only on the roles that have them, so
	// a standalone server's exposition stays role-accurate.
	if f := s.cfg.Replica; f != nil {
		r.GaugeFunc("rdf_replication_lag_seconds", "",
			"Seconds since the replica last confirmed the leader's commit offset",
			func() float64 { return f.Stats().LagSeconds })
		r.GaugeFunc("rdf_replica_last_seq", "",
			"Last WAL sequence number applied in the current epoch",
			func() float64 { return float64(f.Stats().LastSeq) })
		r.GaugeFunc("rdf_replica_ready", "",
			"1 while the replica is connected and caught up",
			func() float64 {
				if f.Ready() {
					return 1
				}
				return 0
			})
		r.CounterFunc("rdf_replica_reconnects_total", "",
			"Replication link reconnects", func() uint64 { return f.Stats().Reconnects })
		r.CounterFunc("rdf_replica_snapshots_total", "",
			"Full-snapshot catch-ups installed", func() uint64 { return f.Stats().SnapshotsInstalled })
		r.CounterFunc("rdf_replica_records_applied_total", "",
			"Replicated WAL records applied", func() uint64 { return f.Stats().RecordsApplied })
	}
	if l := s.cfg.ReplLeader; l != nil {
		r.GaugeFunc("rdf_repl_followers", "",
			"Connected replication followers",
			func() float64 { return float64(l.Stats().Followers) })
		r.CounterFunc("rdf_repl_records_shipped_total", "",
			"WAL records shipped to followers", func() uint64 { return l.Stats().RecordsShipped })
		r.CounterFunc("rdf_repl_snapshots_sent_total", "",
			"Full snapshots streamed to followers", func() uint64 { return l.Stats().SnapshotsSent })
	}
}

// runtimeUint64s reads runtime/metrics samples that hold uint64s; a
// sample this runtime does not provide reads 0.
func runtimeUint64s(names ...string) []uint64 {
	samples := make([]metrics.Sample, len(names))
	for i, name := range names {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := make([]uint64, len(names))
	for i, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			out[i] = s.Value.Uint64()
		}
	}
	return out
}

func runtimeCounter(name string) uint64 { return runtimeUint64s(name)[0] }

// heapInuse is runtime.MemStats.HeapInuse: the bytes of in-use heap
// spans, those holding objects and those reserved for them.
func heapInuse() uint64 {
	v := runtimeUint64s("/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes")
	return v[0] + v[1]
}

// observeRequest records one finished protocol request into the
// end-to-end and per-stage latency histograms. Stages a request never
// entered (zero duration) are skipped so their histograms describe only
// requests that actually exercised them.
func (s *Server) observeRequest(tr *obs.Trace, total time.Duration) {
	s.reqHist.Observe(total)
	for i := range s.stageHist {
		if d := tr.Stages[i]; d > 0 {
			s.stageHist[i].Observe(d)
		}
	}
}

// handleMetrics serves the Prometheus text exposition. Like /stats it
// bypasses the worker pool and the rate limiter: a scrape reads atomics
// and runtime stats, never the index, and throttling it would blind the
// monitoring that explains the throttling.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	s.reg.WritePrometheus(w)
}
