package obs

import (
	"sync"
	"time"
)

// Stage is one phase of a request's life. Stage times are recorded
// into a Trace by the serving path and surfaced as histograms
// (/metrics), a Server-Timing header/trailer, the ?explain=1 document
// and the slow-query log.
type Stage uint8

const (
	// StageQueue is the wait for a worker-pool slot.
	StageQueue Stage = iota
	// StageParse covers query translation and parsing.
	StageParse
	// StagePlan covers plan-cache lookup or BGP planning.
	StagePlan
	// StageExec is the executor's time, including row serialization
	// into the response buffer (the two interleave on the streaming
	// path); client-write time is subtracted out into StageRender.
	StageExec
	// StageRender is the time spent pushing bytes toward the client:
	// buffered flushes, gzip compression and the final head/tail
	// writes.
	StageRender

	// NumStages is the number of stages; Trace arrays are indexed by
	// Stage.
	NumStages = int(StageRender) + 1
)

var stageNames = [NumStages]string{"queue", "parse", "plan", "exec", "render"}

// String returns the stage's exposition label.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// PatternStat is the per-execution-step cardinality record of a traced
// query: which triple pattern ran at this plan position, how many
// candidate triples its selections produced (Scanned), and how many
// survived binding consistency (Matched). For a step resolved inside a
// leapfrog merge-intersection, Gallop is set, Scanned counts the
// stream advances (Next/NextGEQ) and Matched the agreed values — the
// gap is exactly the work the join optimization skips. The counts are
// logical: Replayed says how many of the Calls the executor's memo
// answered without the index.
type PatternStat struct {
	Pattern  int    // index into the query's pattern list
	Calls    uint64 // times this step (re-)issued its selection
	Replayed uint64 // of those, answered from the memo
	Scanned  uint64
	Matched  uint64
	Gallop   bool
}

// Trace is a pooled per-request recording context. The stage recorders
// and step recorders are nil-safe and allocation-free, so the serving
// and executor hot loops call them unconditionally; a request without
// a trace passes nil and pays one predictable branch.
type Trace struct {
	// Stages holds the accumulated wall time per stage.
	Stages   [NumStages]time.Duration
	steps    []PatternStat
	replayed uint64
}

var tracePool = sync.Pool{New: func() any { return &Trace{} }}

// AcquireTrace returns a cleared trace from the pool.
func AcquireTrace() *Trace {
	tr := tracePool.Get().(*Trace)
	tr.Stages = [NumStages]time.Duration{}
	tr.steps = tr.steps[:0]
	tr.replayed = 0
	//rdf:allow(ownership transfers to the caller; Release returns it to the pool)
	return tr
}

// Release returns the trace to the pool. The trace and the slice
// returned by Steps must not be used afterwards.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	tracePool.Put(t)
}

// EnableSteps arms per-pattern recording for an n-step plan. Without
// it, the step recorders are no-ops (stage timing alone has no
// per-candidate cost). The backing array is reused across requests, so
// steady-state recording does not allocate.
func (t *Trace) EnableSteps(n int) {
	if cap(t.steps) < n {
		t.steps = make([]PatternStat, n)
	}
	t.steps = t.steps[:n]
	for i := range t.steps {
		t.steps[i] = PatternStat{}
	}
}

// Steps returns the recorded per-step stats; valid until Release.
func (t *Trace) Steps() []PatternStat {
	if t == nil {
		return nil
	}
	return t.steps
}

// AddStage accumulates wall time into a stage.
//
//rdf:hotpath
func (t *Trace) AddStage(s Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.Stages[s] += d
}

// StepIssued records that execution step (plan position) step issued a
// selection for pattern (its index in the query), under gallop when it
// is one stream of a merge-intersection.
//
//rdf:hotpath
func (t *Trace) StepIssued(step, pattern int, gallop bool) {
	if t == nil || step >= len(t.steps) {
		return
	}
	st := &t.steps[step]
	st.Pattern = pattern
	st.Calls++
	st.Gallop = gallop
}

// StepReplayed records that step's latest selection was answered from
// the executor's memo. The request total counts whether or not steps are
// armed.
//
//rdf:hotpath
func (t *Trace) StepReplayed(step int) {
	if t == nil {
		return
	}
	t.replayed++
	if step < len(t.steps) {
		t.steps[step].Replayed++
	}
}

// StepScanned counts one candidate examined at step.
//
//rdf:hotpath
func (t *Trace) StepScanned(step int) {
	if t == nil || step >= len(t.steps) {
		return
	}
	t.steps[step].Scanned++
}

// StepMatched counts one candidate surviving binding at step.
//
//rdf:hotpath
func (t *Trace) StepMatched(step int) {
	if t == nil || step >= len(t.steps) {
		return
	}
	t.steps[step].Matched++
}
