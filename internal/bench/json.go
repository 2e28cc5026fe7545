package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/obs"
)

// ShapeResult is one (layout, pattern shape) measurement.
type ShapeResult struct {
	Layout      string  `json:"layout"`
	Shape       string  `json:"shape"`
	NsPerTriple float64 `json:"ns_per_triple"`
	Matches     int     `json:"matches"`
}

// JSONReport is the machine-readable result of one preset run: space and
// per-pattern speed for every layout, in a stable schema so the perf
// trajectory can be tracked across commits (cmd/rdfbench writes it as
// BENCH_<preset>.json).
type JSONReport struct {
	Preset        string             `json:"preset"`
	Triples       int                `json:"triples"`
	Queries       int                `json:"queries"`
	Runs          int                `json:"runs"`
	Seed          int64              `json:"seed"`
	BitsPerTriple map[string]float64 `json:"bits_per_triple"`
	Patterns      []ShapeResult      `json:"patterns"`
	// MaterializedRowsPerSec is the throughput of the pooled /sparql row
	// path (streamed execution + dictionary cursors + the row writer in
	// SPARQL JSON) on a synthetic-dictionary store; MaterializedRows is
	// the seeded row count behind it (a mismatch means the measurements
	// are not comparable). Zero in reports from before the field existed, which
	// Compare treats as "no baseline".
	MaterializedRowsPerSec float64 `json:"materialized_rows_per_sec,omitempty"`
	MaterializedRows       int     `json:"materialized_rows,omitempty"`
	// MaterializedFormatRowsPerSec is the same scan through each of the
	// protocol endpoint's serializers (SPARQL json/xml/csv/tsv), keyed by
	// format name. The row count equals MaterializedRows (same seeded
	// query), so the per-format throughputs gate downward against a
	// baseline exactly like the pooled-path number. Absent in reports from
	// before the protocol endpoint existed, which Compare skips.
	MaterializedFormatRowsPerSec map[string]float64 `json:"materialized_format_rows_per_sec,omitempty"`
	// ServeLatency is the concurrent serving-path latency distribution,
	// keyed by goroutine count ("1", "4", "16"): the tail percentiles of
	// per-query latency on the shared 2Tp index, measured through the
	// same histogram type /metrics exports. Latency gates upward (higher
	// is worse) in Compare; absent in older reports, which skips the
	// gate.
	ServeLatency map[string]ServeLatencyResult `json:"serve_latency,omitempty"`
}

// ServeLatencyResult is the latency profile at one concurrency level.
type ServeLatencyResult struct {
	QPS   float64 `json:"qps"`
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`
}

// MeasureJSON builds every layout over the preset's synthetic dataset
// and measures ns/triple for each of the eight selection shapes,
// returning the report.
func MeasureJSON(cfg Config, preset string) (*JSONReport, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset(preset, cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sample := gen.SampleTriples(d, cfg.Queries, cfg.Seed+1)
	rep := &JSONReport{
		Preset:        preset,
		Triples:       d.Len(),
		Queries:       cfg.Queries,
		Runs:          cfg.Runs,
		Seed:          cfg.Seed,
		BitsPerTriple: map[string]float64{},
	}
	for _, layout := range []core.Layout{core.Layout3T, core.LayoutCC, core.Layout2Tp, core.Layout2To} {
		x, err := core.Build(d, layout)
		if err != nil {
			return nil, fmt.Errorf("bench: build %s: %w", layout, err)
		}
		rep.BitsPerTriple[layout.String()] = BitsPerTriple(x)
		for _, shape := range core.AllShapes() {
			var pats []core.Pattern
			if shape == core.Shapexxx {
				pats = []core.Pattern{{S: core.Wildcard, P: core.Wildcard, O: core.Wildcard}}
			} else {
				pats = gen.PatternWorkload(sample, shape)
			}
			ns, matches := TimePatterns(x, pats, cfg.Runs)
			rep.Patterns = append(rep.Patterns, ShapeResult{
				Layout:      layout.String(),
				Shape:       shape.String(),
				NsPerTriple: ns,
				Matches:     matches,
			})
		}
	}
	rowsPerSec, rows, err := MaterializeRowsPerSec(d, cfg.Runs)
	if err != nil {
		return nil, fmt.Errorf("bench: materialization: %w", err)
	}
	rep.MaterializedRowsPerSec = rowsPerSec
	rep.MaterializedRows = rows
	formats, frows, err := MaterializeFormatRowsPerSec(d, cfg.Runs)
	if err != nil {
		return nil, fmt.Errorf("bench: format materialization: %w", err)
	}
	if frows != rows {
		return nil, fmt.Errorf("bench: format materialization rows %d != %d", frows, rows)
	}
	rep.MaterializedFormatRowsPerSec = formats
	rep.ServeLatency = map[string]ServeLatencyResult{}
	x2tp, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		return nil, fmt.Errorf("bench: build 2tp: %w", err)
	}
	serve := ParallelWorkload(d, cfg.Queries, cfg.Seed+6)
	for _, g := range parallelGoroutineCounts {
		h := new(obs.Histogram)
		best := 0.0
		for r := 0; r < cfg.Runs; r++ {
			if qps := ThroughputLatencyAt(x2tp, serve, g, 2, h); qps > best {
				best = qps
			}
		}
		snap := h.Snapshot()
		rep.ServeLatency[fmt.Sprintf("%d", g)] = ServeLatencyResult{
			QPS:   best,
			P50us: float64(snap.Quantile(0.50)) / 1e3,
			P95us: float64(snap.Quantile(0.95)) / 1e3,
			P99us: float64(snap.Quantile(0.99)) / 1e3,
		}
	}
	return rep, nil
}

// WriteJSON renders the report with stable indentation.
func (r *JSONReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON parses a report written by WriteJSON.
func ReadJSON(rd io.Reader) (*JSONReport, error) {
	var rep JSONReport
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Regression is one baseline comparison failure.
type Regression struct {
	Layout, Shape string
	Metric        string  // "ns/triple", "bits/triple" or "matches"
	Base, Current float64 // baseline and current values
}

func (r Regression) String() string {
	if r.Base == 0 {
		return fmt.Sprintf("%s %s: %s %.2f -> %.2f",
			r.Layout, r.Shape, r.Metric, r.Base, r.Current)
	}
	return fmt.Sprintf("%s %s: %s %.2f -> %.2f (%+.0f%%)",
		r.Layout, r.Shape, r.Metric, r.Base, r.Current, 100*(r.Current/r.Base-1))
}

// regressionNsFloor is the absolute ns/triple slack below which relative
// changes are treated as timer noise: sub-nanosecond measurements
// flicker by large ratios without meaning anything.
const regressionNsFloor = 2.0

// latencyUsFloor is the absolute serving-latency slack (µs) a
// percentile must exceed the baseline by before the relative gate
// applies: scheduler jitter moves fast percentiles by tens of
// microseconds run to run.
const latencyUsFloor = 100.0

// Compare checks cur against a committed baseline and returns the
// regressions: ns/triple worse than tolerance (a ratio, e.g. 0.25 fails
// at >25% slower, subject to an absolute noise floor), bits/triple worse
// than 2% (space is deterministic, so the tolerance is tight), and any
// change in match counts (the workload is seeded, so counts must be
// identical — a mismatch means the measurement is not comparable).
// Pairs present in only one report are ignored, so adding layouts or
// shapes does not break older baselines.
func Compare(base, cur *JSONReport, tolerance float64) []Regression {
	var regs []Regression
	type key struct{ layout, shape string }
	baseline := map[key]ShapeResult{}
	for _, p := range base.Patterns {
		baseline[key{p.Layout, p.Shape}] = p
	}
	for _, p := range cur.Patterns {
		b, ok := baseline[key{p.Layout, p.Shape}]
		if !ok {
			continue
		}
		if b.Matches != p.Matches {
			regs = append(regs, Regression{
				Layout: p.Layout, Shape: p.Shape, Metric: "matches",
				Base: float64(b.Matches), Current: float64(p.Matches),
			})
			continue
		}
		if p.NsPerTriple > b.NsPerTriple*(1+tolerance) && p.NsPerTriple-b.NsPerTriple > regressionNsFloor {
			regs = append(regs, Regression{
				Layout: p.Layout, Shape: p.Shape, Metric: "ns/triple",
				Base: b.NsPerTriple, Current: p.NsPerTriple,
			})
		}
	}
	for layout, b := range base.BitsPerTriple {
		c, ok := cur.BitsPerTriple[layout]
		if !ok {
			continue
		}
		if c > b*1.02 {
			regs = append(regs, Regression{
				Layout: layout, Shape: "-", Metric: "bits/triple", Base: b, Current: c,
			})
		}
	}
	// Materialized-row throughput gates downward: higher is better, so a
	// regression is falling below (1 - tolerance) of the baseline. A
	// zero baseline (report predating the metric) skips the gate, like
	// layout/shape pairs present in only one report.
	if base.MaterializedRowsPerSec > 0 && cur.MaterializedRowsPerSec > 0 {
		if base.MaterializedRows != cur.MaterializedRows {
			regs = append(regs, Regression{
				Layout: "materialize", Shape: "-", Metric: "matches",
				Base: float64(base.MaterializedRows), Current: float64(cur.MaterializedRows),
			})
		} else if cur.MaterializedRowsPerSec < base.MaterializedRowsPerSec*(1-tolerance) {
			regs = append(regs, Regression{
				Layout: "materialize", Shape: "-", Metric: "rows/sec",
				Base: base.MaterializedRowsPerSec, Current: cur.MaterializedRowsPerSec,
			})
		}
	}
	// Per-format protocol serializer throughput gates the same way, one
	// entry per format present in both reports. Row-count comparability
	// is already covered by the MaterializedRows check above (the formats
	// measure the identical seeded scan).
	for format, b := range base.MaterializedFormatRowsPerSec {
		c, ok := cur.MaterializedFormatRowsPerSec[format]
		if !ok || b <= 0 || c <= 0 {
			continue
		}
		if c < b*(1-tolerance) {
			regs = append(regs, Regression{
				Layout: "materialize/" + format, Shape: "-", Metric: "rows/sec",
				Base: b, Current: c,
			})
		}
	}
	// Serving-path latency percentiles gate upward: a regression is
	// exceeding the baseline by more than the doubled tolerance (tails
	// are noisier than medians on shared CI machines) AND by more than
	// an absolute floor — sub-100µs percentiles flicker across runs
	// without meaning anything. Goroutine counts present in only one
	// report are skipped.
	for g, b := range base.ServeLatency {
		c, ok := cur.ServeLatency[g]
		if !ok {
			continue
		}
		for _, q := range []struct {
			name      string
			base, cur float64
		}{
			{"p50 us", b.P50us, c.P50us},
			{"p99 us", b.P99us, c.P99us},
		} {
			if q.base <= 0 || q.cur <= 0 {
				continue
			}
			if q.cur > q.base*(1+2*tolerance) && q.cur-q.base > latencyUsFloor {
				regs = append(regs, Regression{
					Layout: "serve/g=" + g, Shape: "-", Metric: q.name,
					Base: q.base, Current: q.cur,
				})
			}
		}
	}
	return regs
}
