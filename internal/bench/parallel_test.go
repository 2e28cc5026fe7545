package bench

import (
	"fmt"
	"runtime"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
)

// BenchmarkServeParallel measures queries/sec over one shared immutable
// index at fixed goroutine counts (not GOMAXPROCS multiples), matching
// the serving scenario: N clients, one store, a pooled QueryCtx per
// client. Compare the 1/4/16 sub-benchmarks to see the scaling.
func BenchmarkServeParallel(b *testing.B) {
	d, err := gen.GeneratePreset("dbpedia", 120000, 1)
	if err != nil {
		b.Fatal(err)
	}
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		b.Fatal(err)
	}
	pats := ParallelWorkload(d, 2048, 7)

	for _, g := range parallelGoroutineCounts {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			Drive(x, pats, g, int64(b.N))
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			}
		})
	}
}

// TestThroughputScalesWithGoroutines is the acceptance check behind the
// benchmark: on a multi-core machine, 4 goroutines must answer more
// queries per second than 1 on the same shared store. Kept as a test so
// `go test` (and the race job, at reduced size) enforces it.
func TestThroughputScalesWithGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement skipped in -short")
	}
	d, err := gen.GeneratePreset("dbpedia", 60000, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	pats := ParallelWorkload(d, 1024, 7)
	rounds := 16 // ~50-100ms per measurement, enough to swamp goroutine startup
	best1, best4 := 0.0, 0.0
	for r := 0; r < 3; r++ {
		if q := ThroughputAt(x, pats, 1, rounds); q > best1 {
			best1 = q
		}
		if q := ThroughputAt(x, pats, 4, rounds); q > best4 {
			best4 = q
		}
	}
	t.Logf("throughput: 1 goroutine %.0f q/s, 4 goroutines %.0f q/s (%.2fx)", best1, best4, best4/best1)
	// Scaling needs cores to scale onto, and the race detector
	// serializes enough to erase it; enforce the ratio only where it can
	// physically hold.
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: scaling assertion needs >= 4 CPUs", runtime.GOMAXPROCS(0))
	}
	if raceEnabled {
		return
	}
	// On shared CI runners a noisy neighbor can flatten one measurement,
	// so require a clear speedup in any of a few attempts rather than
	// best-of-one: a genuine serialization bug (a lock on the read path)
	// pins the ratio near 1.0x across all of them.
	const wantRatio = 1.15
	for attempt := 0; attempt < 3; attempt++ {
		if best4 > best1*wantRatio {
			return
		}
		if q := ThroughputAt(x, pats, 1, rounds); q > best1 {
			best1 = q
		}
		if q := ThroughputAt(x, pats, 4, rounds); q > best4 {
			best4 = q
		}
	}
	if best4 <= best1*wantRatio {
		t.Errorf("no scaling: 4 goroutines %.0f q/s vs 1 goroutine %.0f q/s (want >= %.2fx)",
			best4, best1, wantRatio)
	}
}
