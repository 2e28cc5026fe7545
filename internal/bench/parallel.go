package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/obs"
)

// parallelGoroutineCounts are the concurrency levels of the scaling
// experiment; the paper's serving scenario ("heavy traffic") is the
// 16-client column.
var parallelGoroutineCounts = []int{1, 4, 16}

// ParallelWorkload builds the mixed pattern mix the throughput
// experiment fires at a shared index: the five selective shapes sampled
// from indexed triples, interleaved so consecutive queries hit different
// algorithms.
func ParallelWorkload(d *core.Dataset, queries int, seed int64) []core.Pattern {
	sample := gen.SampleTriples(d, queries, seed)
	shapes := []core.Shape{core.ShapeSPO, core.ShapeSPx, core.ShapexPO, core.ShapeSxO, core.ShapeSxx}
	pats := make([]core.Pattern, 0, len(sample))
	for i, tr := range sample {
		pats = append(pats, core.WithWildcards(tr, shapes[i%len(shapes)]))
	}
	return pats
}

// throughputChunk is the number of queries a worker claims per counter
// bump, keeping the dispatch counter off the hot path (a query can be
// well under a microsecond).
const throughputChunk = 64

// Drive answers total queries from the workload with g goroutines, each
// owning a pooled QueryCtx and claiming work in chunks. It is the shared
// worker loop of ThroughputAt and BenchmarkServeParallel, so the
// benchmark measures exactly the code the experiment runs.
func Drive(x core.Index, pats []core.Pattern, g int, total int64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qc := core.AcquireQueryCtx()
			defer qc.Release()
			buf := qc.Batch()
			for {
				lo := next.Add(throughputChunk) - throughputChunk
				if lo >= total {
					return
				}
				hi := lo + throughputChunk
				if hi > total {
					hi = total
				}
				for i := lo; i < hi; i++ {
					it := core.SelectWithCtx(x, pats[int(i)%len(pats)], qc)
					for it.NextBatch(buf) > 0 {
					}
				}
			}
		}()
	}
	wg.Wait()
}

// DriveTimed is Drive with per-query latency recording into h: each
// query is bracketed by two clock reads and observed individually, so
// the histogram holds the full latency distribution, not an average.
// The overhead (~2×30ns per query) is paid only on this measurement
// path; Drive stays clock-free for pure throughput runs.
func DriveTimed(x core.Index, pats []core.Pattern, g int, total int64, h *obs.Histogram) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qc := core.AcquireQueryCtx()
			defer qc.Release()
			buf := qc.Batch()
			for {
				lo := next.Add(throughputChunk) - throughputChunk
				if lo >= total {
					return
				}
				hi := lo + throughputChunk
				if hi > total {
					hi = total
				}
				for i := lo; i < hi; i++ {
					q0 := time.Now()
					it := core.SelectWithCtx(x, pats[int(i)%len(pats)], qc)
					for it.NextBatch(buf) > 0 {
					}
					h.Observe(time.Since(q0))
				}
			}
		}()
	}
	wg.Wait()
}

// ThroughputAt drives the shared index with the workload from g
// goroutines, each owning a pooled QueryCtx, until every query of rounds
// passes over the workload completes. It returns queries/second.
func ThroughputAt(x core.Index, pats []core.Pattern, g, rounds int) float64 {
	total := int64(len(pats) * rounds)
	start := time.Now()
	Drive(x, pats, g, total)
	return float64(total) / time.Since(start).Seconds()
}

// ThroughputLatencyAt is ThroughputAt recording every query's latency
// into h alongside the aggregate queries/second.
func ThroughputLatencyAt(x core.Index, pats []core.Pattern, g, rounds int, h *obs.Histogram) float64 {
	total := int64(len(pats) * rounds)
	start := time.Now()
	DriveTimed(x, pats, g, total, h)
	return float64(total) / time.Since(start).Seconds()
}

// ServeParallel measures concurrent query throughput over one shared 2Tp
// index (the paper's preferred layout) at 1, 4 and 16 goroutines: the
// serving-path scaling that motivates the immutable shared-store
// design. Queries/sec should grow with goroutines until the core count
// saturates.
func ServeParallel(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		return nil, err
	}
	pats := ParallelWorkload(d, cfg.Queries, cfg.Seed+6)

	t := &Table{
		Title: "Concurrent throughput: mixed selection patterns on one shared 2Tp index",
		Note: fmt.Sprintf("%s triples, %d-query workload, best of %d runs, GOMAXPROCS=%d",
			N(d.Len()), len(pats), cfg.Runs, runtime.GOMAXPROCS(0)),
		Header: []string{"goroutines", "queries/sec", "speedup", "p50 us", "p95 us", "p99 us"},
	}
	var base float64
	for _, g := range parallelGoroutineCounts {
		// One histogram per concurrency level accumulates every run's
		// per-query latencies — the same obs.Histogram the server's
		// /metrics endpoint uses, so the offline percentiles and the
		// production ones share bucketing and quantile math.
		h := new(obs.Histogram)
		best := 0.0
		for r := 0; r < cfg.Runs; r++ {
			if qps := ThroughputLatencyAt(x, pats, g, 2, h); qps > best {
				best = qps
			}
		}
		if base == 0 {
			base = best
		}
		snap := h.Snapshot()
		t.Add(fmt.Sprintf("%d", g), F(best), F(best/base),
			F(float64(snap.Quantile(0.50))/1e3),
			F(float64(snap.Quantile(0.95))/1e3),
			F(float64(snap.Quantile(0.99))/1e3))
	}
	return []*Table{t}, nil
}
