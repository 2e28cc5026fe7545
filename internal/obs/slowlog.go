package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SlowLog writes one structured JSON line per query whose total time
// crosses a threshold, with sampling: at most one entry per MinGap, so
// a storm of slow queries (an overloaded store makes every query slow
// at once) degrades to a heartbeat instead of multiplying the
// overload with logging I/O. Suppressed entries are counted, never
// silently dropped. All methods are safe for concurrent use; Record is
// called on the serving path but only does work past the threshold
// comparison, which is one branch.
type SlowLog struct {
	threshold time.Duration
	minGap    time.Duration

	last       atomic.Int64 // unix nanos of the last written entry
	logged     atomic.Uint64
	suppressed atomic.Uint64

	mu  sync.Mutex
	w   io.Writer
	now func() time.Time // test seam
}

// NewSlowLog returns a log writing entries for queries slower than
// threshold to w, with at most one entry per minGap (0 logs every slow
// query). A nil SlowLog, a zero threshold or a nil writer disable
// logging entirely.
func NewSlowLog(w io.Writer, threshold, minGap time.Duration) *SlowLog {
	return &SlowLog{w: w, threshold: threshold, minGap: minGap, now: time.Now}
}

// SlowQuery is one slow-query log entry. StagesUs and Replayed (the
// selections the executor answered from its memo) are present when the
// request carried a trace.
type SlowQuery struct {
	Time        string             `json:"ts"`
	Kind        string             `json:"kind"` // always "slow_query"
	Endpoint    string             `json:"endpoint"`
	Query       string             `json:"query"`
	DurationMs  float64            `json:"duration_ms"`
	ThresholdMs float64            `json:"threshold_ms"`
	StagesUs    map[string]float64 `json:"stages_us,omitempty"`
	Replayed    uint64             `json:"replayed,omitempty"`
	Generation  uint64             `json:"generation"`
	Rows        int                `json:"rows"`
	Truncated   bool               `json:"truncated,omitempty"`
	Error       string             `json:"error,omitempty"`
}

// Record logs the query when total crosses the threshold and the
// sampler admits it, and reports whether an entry was written. tr may
// be nil (no stage breakdown).
func (l *SlowLog) Record(endpoint, query string, gen uint64, rows int, truncated bool, errMsg string, total time.Duration, tr *Trace) bool {
	if l == nil || l.w == nil || l.threshold <= 0 || total < l.threshold {
		return false
	}
	now := l.now()
	if l.minGap > 0 {
		last := l.last.Load()
		if (last != 0 && now.UnixNano()-last < int64(l.minGap)) || !l.last.CompareAndSwap(last, now.UnixNano()) {
			l.suppressed.Add(1)
			return false
		}
	}
	entry := SlowQuery{
		Time:        now.UTC().Format(time.RFC3339Nano),
		Kind:        "slow_query",
		Endpoint:    endpoint,
		Query:       query,
		DurationMs:  float64(total) / 1e6,
		ThresholdMs: float64(l.threshold) / 1e6,
		Generation:  gen,
		Rows:        rows,
		Truncated:   truncated,
		Error:       errMsg,
	}
	if tr != nil {
		entry.StagesUs = make(map[string]float64, NumStages)
		for i := 0; i < NumStages; i++ {
			entry.StagesUs[Stage(i).String()] = float64(tr.Stages[i]) / 1e3
		}
		entry.Replayed = tr.replayed
	}
	line, err := json.Marshal(entry)
	if err != nil {
		return false
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, werr := l.w.Write(line)
	l.mu.Unlock()
	if werr != nil {
		return false
	}
	l.logged.Add(1)
	return true
}

// Threshold returns the configured threshold (0 when disabled).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Logged returns the number of entries written.
func (l *SlowLog) Logged() uint64 {
	if l == nil {
		return 0
	}
	return l.logged.Load()
}

// Suppressed returns the number of over-threshold queries the sampler
// dropped.
func (l *SlowLog) Suppressed() uint64 {
	if l == nil {
		return 0
	}
	return l.suppressed.Load()
}
