package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketGeometry(t *testing.T) {
	// Bucket bounds are continuous: every value maps into exactly the
	// bucket whose [BucketBound(i-1), BucketBound(i)) range holds it.
	for i := 0; i < NumBuckets-1; i++ {
		lo := uint64(0)
		if i > 0 {
			lo = BucketBound(i - 1)
		}
		hi := BucketBound(i)
		if hi <= lo {
			t.Fatalf("bucket %d: bound %d not above previous %d", i, hi, lo)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi - 1); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d", hi-1, got, i)
		}
	}
	// Overflow clamps.
	if got := bucketIndex(math.MaxUint64); got != NumBuckets-1 {
		t.Fatalf("bucketIndex(max) = %d, want %d", got, NumBuckets-1)
	}
	// The top regular bound covers multi-minute latencies.
	if top := BucketBound(NumBuckets - 2); top < uint64(60*time.Second) {
		t.Fatalf("histogram ceiling %v too low", time.Duration(top))
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// A uniform spread of 1..1000 µs: quantiles should land within the
	// sub-bucket quantization error (25%).
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := s.Quantile(tc.q)
		if got < tc.want*3/4 || got > tc.want*5/4 {
			t.Errorf("q%.2f = %v, want within 25%% of %v", tc.q, got, tc.want)
		}
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(time.Millisecond)
		b.Observe(10 * time.Millisecond)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(&sb)
	if sa.Count != 200 {
		t.Fatalf("merged count = %d", sa.Count)
	}
	if q := sa.Quantile(0.25); q > 2*time.Millisecond {
		t.Errorf("merged q25 = %v, want ~1ms", q)
	}
	if q := sa.Quantile(0.75); q < 8*time.Millisecond {
		t.Errorf("merged q75 = %v, want ~10ms", q)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// under -race this doubles as the lock-freedom proof, and the final
// snapshot must account for every observation in both the counter and
// the bucket array.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	sum := uint64(0)
	for _, b := range s.Buckets {
		sum += b
	}
	if sum != goroutines*per {
		t.Fatalf("bucket total = %d, want %d", sum, goroutines*per)
	}
}

// TestRecordingAllocs pins the hot recorders at zero allocations.
func TestRecordingAllocs(t *testing.T) {
	var h Histogram
	var c Counter
	tr := AcquireTrace()
	defer tr.Release()
	tr.EnableSteps(4)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(42 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tr.StepIssued(1, 2, false)
		tr.StepScanned(1)
		tr.StepMatched(1)
		tr.AddStage(StageExec, time.Microsecond)
	}); n != 0 {
		t.Errorf("Trace recorders allocate %.1f/op", n)
	}
	// Steady-state trace reuse does not allocate either.
	tr.Release()
	if n := testing.AllocsPerRun(100, func() {
		tr2 := AcquireTrace()
		tr2.EnableSteps(4)
		tr2.Release()
	}); n != 0 {
		t.Errorf("trace acquire/release allocates %.1f/op steady-state", n)
	}
}

// TestExposition is the golden scrape test: a registry with all three
// metric kinds renders text the minimal parser accepts, with the
// structural properties a scraper depends on.
func TestExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rdf_test_requests_total", `endpoint="sparql"`, "requests served")
	c2 := r.Counter("rdf_test_requests_total", `endpoint="query"`, "requests served")
	r.GaugeFunc("rdf_test_goroutines", "", "live goroutines", func() float64 { return 7 })
	r.CounterFunc("rdf_test_hits_total", `cache="result"`, "cache hits", func() uint64 { return 3 })
	h := r.Histogram("rdf_test_latency_seconds", `stage="exec"`, "stage latency")
	c.Add(5)
	c2.Add(1)
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Exact golden for the scalar families (the histogram's bucket list
	// is checked structurally below).
	for _, want := range []string{
		"# HELP rdf_test_requests_total requests served\n# TYPE rdf_test_requests_total counter\n" +
			"rdf_test_requests_total{endpoint=\"sparql\"} 5\nrdf_test_requests_total{endpoint=\"query\"} 1\n",
		"# TYPE rdf_test_goroutines gauge\nrdf_test_goroutines 7\n",
		"rdf_test_hits_total{cache=\"result\"} 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	samples, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, text)
	}
	// Histogram invariants: cumulative buckets are non-decreasing, the
	// +Inf bucket equals _count, and the observations land at plausible
	// bounds.
	var lastCum float64 = -1
	var inf, count, sum float64
	bucketSeen := 0
	for _, s := range samples {
		switch s.Name {
		case "rdf_test_latency_seconds_bucket":
			bucketSeen++
			if s.Value < lastCum {
				t.Errorf("bucket le=%s cumulative %v below previous %v", s.Labels["le"], s.Value, lastCum)
			}
			lastCum = s.Value
			if s.Labels["le"] == "+Inf" {
				inf = s.Value
			}
			if s.Labels["stage"] != "exec" {
				t.Errorf("bucket lost its stage label: %v", s.Labels)
			}
		case "rdf_test_latency_seconds_count":
			count = s.Value
		case "rdf_test_latency_seconds_sum":
			sum = s.Value
		}
	}
	if bucketSeen < 10 {
		t.Fatalf("only %d bucket lines exposed", bucketSeen)
	}
	if inf != 2 || count != 2 {
		t.Errorf("+Inf bucket %v / count %v, want 2 / 2", inf, count)
	}
	if sum < 0.042 || sum > 0.044 {
		t.Errorf("sum = %v s, want ~0.043", sum)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"rdf_x 1\n",                                  // sample before TYPE
		"# TYPE rdf_x counter\nrdf_x notanum\n",      // bad value
		"# TYPE rdf_x counter\nrdf_x{le=\"1 1\n",     // unterminated labels
		"# TYPE rdf_x counter\n# TYPE rdf_x gauge\n", // duplicate TYPE
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseProm accepted %q", bad)
		}
	}
}

func TestTraceStages(t *testing.T) {
	tr := AcquireTrace()
	defer tr.Release()
	tr.AddStage(StageQueue, time.Millisecond)
	tr.AddStage(StageExec, 2*time.Millisecond)
	tr.AddStage(StageExec, time.Millisecond)
	if tr.Stages[StageExec] != 3*time.Millisecond {
		t.Errorf("exec = %v", tr.Stages[StageExec])
	}
	// nil traces swallow every recorder.
	var nilTr *Trace
	nilTr.AddStage(StageExec, time.Second)
	nilTr.StepScanned(0)
	if len(nilTr.Steps()) != 0 {
		t.Error("nil trace recorded something")
	}
	// Step recording without EnableSteps is a no-op.
	tr2 := AcquireTrace()
	defer tr2.Release()
	tr2.StepScanned(0)
	if len(tr2.Steps()) != 0 {
		t.Error("unarmed trace recorded a step")
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 10*time.Millisecond, 0)
	if l.Record("sparql", "q1", 3, 10, false, "", 5*time.Millisecond, nil) {
		t.Error("under-threshold query logged")
	}
	tr := AcquireTrace()
	defer tr.Release()
	tr.AddStage(StageExec, 11*time.Millisecond)
	tr.StepReplayed(1) // counted without armed steps
	tr.StepReplayed(1)
	if !l.Record("sparql", "q2", 3, 10, true, "", 12*time.Millisecond, tr) {
		t.Error("over-threshold query not logged")
	}
	var entry SlowQuery
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("entry is not JSON: %v (%q)", err, buf.String())
	}
	if entry.Kind != "slow_query" || entry.Query != "q2" || entry.Rows != 10 ||
		entry.Generation != 3 || !entry.Truncated || entry.DurationMs != 12 {
		t.Errorf("entry = %+v", entry)
	}
	if entry.StagesUs["exec"] != 11000 || entry.Replayed != 2 {
		t.Errorf("stages = %v, replayed = %d", entry.StagesUs, entry.Replayed)
	}
	if l.Logged() != 1 {
		t.Errorf("logged = %d", l.Logged())
	}
}

func TestSlowLogSampling(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, time.Millisecond, time.Hour)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	if !l.Record("sparql", "q1", 0, 0, false, "", time.Second, nil) {
		t.Fatal("first slow query not logged")
	}
	if l.Record("sparql", "q2", 0, 0, false, "", time.Second, nil) {
		t.Error("second slow query inside the gap was logged")
	}
	if l.Suppressed() != 1 {
		t.Errorf("suppressed = %d", l.Suppressed())
	}
	now = now.Add(2 * time.Hour)
	if !l.Record("sparql", "q3", 0, 0, false, "", time.Second, nil) {
		t.Error("slow query after the gap not logged")
	}
	if got := len(bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))); got != 2 {
		t.Errorf("entries = %d, want 2", got)
	}
	// Disabled logs never fire.
	if NewSlowLog(nil, time.Millisecond, 0).Record("e", "q", 0, 0, false, "", time.Hour, nil) {
		t.Error("nil-writer log fired")
	}
	var nilLog *SlowLog
	if nilLog.Record("e", "q", 0, 0, false, "", time.Hour, nil) {
		t.Error("nil log fired")
	}
}
