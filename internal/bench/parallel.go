package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
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
// claiming work in chunks. It is the shared worker loop of ThroughputAt
// and BenchmarkServeParallel, so the benchmark measures exactly the code
// the experiment runs.
func Drive(x core.Index, pats []core.Pattern, g int, total int64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [256]core.Triple
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
					it := x.Select(pats[int(i)%len(pats)])
					for it.NextBatch(buf[:]) > 0 {
					}
				}
			}
		}()
	}
	wg.Wait()
}

// ThroughputAt drives the shared index with the workload from g
// goroutines until every query of rounds passes over the workload
// completes. It returns queries/second.
func ThroughputAt(x core.Index, pats []core.Pattern, g, rounds int) float64 {
	total := int64(len(pats) * rounds)
	start := time.Now()
	Drive(x, pats, g, total)
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
		Header: []string{"goroutines", "queries/sec", "speedup"},
	}
	var base float64
	for _, g := range parallelGoroutineCounts {
		best := 0.0
		for r := 0; r < cfg.Runs; r++ {
			if qps := ThroughputAt(x, pats, g, 2); qps > best {
				best = qps
			}
		}
		if base == 0 {
			base = best
		}
		t.Add(fmt.Sprintf("%d", g), F(best), F(best/base))
	}
	return []*Table{t}, nil
}
