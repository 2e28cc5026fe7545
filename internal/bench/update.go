package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
)

// updateThresholds are the merge thresholds compared by the update
// experiment: smaller thresholds merge (rebuild the static index) more
// often, trading insert throughput for a smaller always-fresh log.
var updateThresholds = []int{1 << 10, 1 << 12, 1 << 14}

// updateReaders is the size of the concurrent reader fleet measuring
// interference while the writer runs.
const updateReaders = 4

// UpdateThroughput measures the paper's Section 3.1 amortized-update
// strategy end to end on a 2Tp index: single-writer insert throughput
// (merge stalls included), the number of merges each threshold causes,
// and the read latency a snapshot-reading fleet observes while the
// writer runs, versus reading an idle index. Readers follow the serving
// stack's RCU discipline — the writer publishes an immutable snapshot
// after every insert, readers always query the latest published one —
// so the interference column reflects exactly what a serving deployment
// would see.
func UpdateThroughput(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pats := ParallelWorkload(d, cfg.Queries, cfg.Seed+7)
	writes := updateStream(d, 4*cfg.Queries, cfg.Seed+8)

	t := &Table{
		Title: "Amortized updates: insert throughput and read interference by merge threshold",
		Note: fmt.Sprintf("%s base triples, %d inserts, %d concurrent snapshot readers",
			N(d.Len()), len(writes), updateReaders),
		Header: []string{"threshold", "inserts/sec", "merges", "idle read ns/q", "busy read ns/q", "slowdown"},
	}
	for _, thr := range updateThresholds {
		x, err := core.NewDynamic(d, core.Layout2Tp, thr)
		if err != nil {
			return nil, err
		}
		var cur atomic.Pointer[core.DynamicSnapshot]
		cur.Store(x.Snapshot())

		idleNs := readPass(&cur, pats, len(pats))

		// Writer applies the whole stream, publishing a snapshot per
		// insert; readers hammer the latest snapshot until it finishes.
		var busyTotal, busyQueries atomic.Int64
		var done atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < updateReaders; g++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				var buf [256]core.Triple
				i := off
				var n int64
				start := time.Now()
				for !done.Load() {
					it := cur.Load().Select(pats[i%len(pats)])
					for it.NextBatch(buf[:]) > 0 {
					}
					i++
					n++
				}
				busyTotal.Add(time.Since(start).Nanoseconds())
				busyQueries.Add(n)
			}(g * len(pats) / updateReaders)
		}
		merges := 0
		base := x.Base()
		wstart := time.Now()
		for _, tr := range writes {
			if _, err := x.Insert(tr); err != nil {
				done.Store(true)
				wg.Wait()
				return nil, err
			}
			if x.Base() != base {
				base = x.Base()
				merges++
			}
			cur.Store(x.Snapshot())
		}
		insertsPerSec := float64(len(writes)) / time.Since(wstart).Seconds()
		done.Store(true)
		wg.Wait()

		busyNs := 0.0
		if q := busyQueries.Load(); q > 0 {
			busyNs = float64(busyTotal.Load()) / float64(q)
		}
		slowdown := 0.0
		if idleNs > 0 {
			slowdown = busyNs / idleNs
		}
		t.Add(N(thr), F(insertsPerSec), N(merges), F(idleNs), F(busyNs), F(slowdown))
	}
	return []*Table{t}, nil
}

// readPass answers count queries from the workload against the current
// snapshot and returns ns/query.
func readPass(cur *atomic.Pointer[core.DynamicSnapshot], pats []core.Pattern, count int) float64 {
	var buf [256]core.Triple
	start := time.Now()
	for i := 0; i < count; i++ {
		it := cur.Load().Select(pats[i%len(pats)])
		for it.NextBatch(buf[:]) > 0 {
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(count)
}

// updateStream generates the insert workload: fresh triples drawn from
// the dataset's component distributions, with one in eight using a
// brand-new subject or object ID beyond the indexed spaces — the
// never-before-seen-term case the overlay dictionaries serve.
func updateStream(d *core.Dataset, n int, seed int64) []core.Triple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Triple, 0, n)
	fresh := 0
	for len(out) < n {
		t := core.Triple{
			S: core.ID(rng.Intn(d.NS)),
			P: core.ID(rng.Intn(d.NP)),
			O: core.ID(rng.Intn(d.NO)),
		}
		switch len(out) % 8 {
		case 3:
			t.S = core.ID(d.NS + fresh)
			fresh++
		case 7:
			t.O = core.ID(d.NO + fresh)
			fresh++
		}
		out = append(out, t)
	}
	return out
}
