package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/obs"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/store"
)

// The ?explain=1 protocol extension: the query executes normally —
// same planner, same row limit — but the
// response is a JSON profile of the execution instead of serialized
// results: the evaluation order, per-operator cardinalities (candidates
// scanned vs matched at each plan position, with merge-intersection
// steps flagged) and the stage timing breakdown. It is the harness for
// "why is this query slow": the scanned/matched ratio per step shows
// which pattern does the wasted work, and gallop steps show where the
// join optimization engages.

// explainStep is one plan position in the explain document.
type explainStep struct {
	// Position is the step's index in the evaluation order; Pattern the
	// index of the triple pattern it evaluates, as written in the query
	// — the key for correlating a step with the verbatim query text.
	// Text renders the pattern's shape with constants as resolved
	// dictionary IDs (the original term spellings are not retained past
	// parsing).
	Position int    `json:"position"`
	Pattern  int    `json:"pattern"`
	Text     string `json:"text"`
	// Calls counts how many times the step (re-)issued its selection —
	// once per binding row arriving from the steps above it — and
	// Replayed how many of those the executor answered from its memo of
	// the step's earlier selections instead of the index.
	Calls    uint64 `json:"calls"`
	Replayed uint64 `json:"replayed"`
	Scanned  uint64 `json:"scanned"`
	Matched  uint64 `json:"matched"`
	// Gallop marks a step resolved inside a leapfrog merge-intersection;
	// Scanned then counts stream advances, not enumerated candidates.
	Gallop bool `json:"gallop,omitempty"`
}

// explainDoc is the ?explain=1 response body.
type explainDoc struct {
	Query      string        `json:"query"`
	Generation uint64        `json:"generation"`
	Order      []int         `json:"plan_order"`
	Steps      []explainStep `json:"steps"`
	// PatternsIssued/TriplesMatched are the executor's aggregate stats
	// (the paper's Table 6 decomposition measure), Replayed the issued
	// selections its memo answered; Rows the solution count under the
	// requested limit.
	PatternsIssued int                `json:"patterns_issued"`
	TriplesMatched int                `json:"triples_matched"`
	Replayed       int                `json:"replayed"`
	Rows           int                `json:"rows"`
	Truncated      bool               `json:"truncated,omitempty"`
	Error          string             `json:"error,omitempty"`
	StagesUs       map[string]float64 `json:"stages_us"`
	TotalUs        float64            `json:"total_us"`
}

// serveExplain executes q with per-step recording armed and answers the
// profile document. The result cache is bypassed in both directions: an
// explain request wants fresh measurements, and its volatile timings
// must not shadow a cacheable result body.
func (s *Server) serveExplain(ctx context.Context, w http.ResponseWriter, st *store.Store, gen uint64,
	qs string, q sparql.Query, plan *sparql.Compiled, limit int, tr *obs.Trace, t0 time.Time) {
	order := plan.Order
	tr.EnableSteps(len(order))
	et := time.Now()
	stats, rows, truncated, err := execute(ctx, plan, st, tr, limit, func([]core.ID, int) {})
	tr.AddStage(obs.StageExec, time.Since(et))

	doc := explainDoc{
		Query:          qs,
		Generation:     gen,
		Order:          order,
		Steps:          make([]explainStep, 0, len(order)),
		PatternsIssued: stats.PatternsIssued,
		TriplesMatched: stats.TriplesMatched,
		Replayed:       stats.Replayed,
		Rows:           rows,
		Truncated:      truncated,
	}
	if err != nil {
		s.failed.Add(1)
		doc.Error = err.Error()
	}
	for pos, ps := range tr.Steps() {
		step := explainStep{
			Position: pos,
			Pattern:  ps.Pattern,
			Calls:    ps.Calls,
			Replayed: ps.Replayed,
			Scanned:  ps.Scanned,
			Matched:  ps.Matched,
			Gallop:   ps.Gallop,
		}
		if ps.Pattern >= 0 && ps.Pattern < len(q.Patterns) {
			step.Text = q.Patterns[ps.Pattern].String()
		}
		doc.Steps = append(doc.Steps, step)
	}

	rt := time.Now()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Stage timings are snapshotted into the document before encoding;
	// the encode itself is the render stage and lands only in the
	// histograms and the slow log.
	doc.StagesUs = make(map[string]float64, obs.NumStages)
	for i := 0; i < obs.NumStages; i++ {
		doc.StagesUs[obs.Stage(i).String()] = float64(tr.Stages[i]) / 1e3
	}
	doc.TotalUs = float64(time.Since(t0)) / 1e3
	encErr := enc.Encode(doc)
	tr.AddStage(obs.StageRender, time.Since(rt))
	_ = encErr

	total := time.Since(t0)
	s.observeRequest(tr, total)
	s.slow.Record("sparql-explain", qs, gen, rows, truncated, doc.Error, total, tr)
}
