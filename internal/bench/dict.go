package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/server/results"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/store"
)

// SynthDicts builds dictionaries whose rank order matches the integer ID
// space of a synthetic dataset: zero-padded numeric suffixes make
// lexicographic order equal numeric order, so dictionary ID i is exactly
// dataset ID i and the dataset's triples can be served with terms
// without re-encoding. As rdf.Encode does, the SO dictionary holds the
// subjects [0, NS) as its first run and the other terms after them, so
// a store written with it passes store.Verify. The URI shapes mirror
// DBLP-style entity and schema IRIs so front-coding sees realistic
// shared prefixes.
func SynthDicts(d *core.Dataset) (*rdf.Dicts, error) {
	nso := d.NS
	if d.NO > nso {
		nso = d.NO
	}
	soStrs := make([]string, nso)
	for i := range soStrs {
		soStrs[i] = fmt.Sprintf("<http://dblp.example.org/rec/conf/Entity_%010d>", i)
	}
	pStrs := make([]string, d.NP)
	for i := range pStrs {
		pStrs[i] = fmt.Sprintf("<http://dblp.example.org/schema#prop%06d>", i)
	}
	so, err := dict.NewSplit(soStrs[:d.NS], soStrs[d.NS:], dict.DefaultBucketSize)
	if err != nil {
		return nil, err
	}
	p, err := dict.New(pStrs, dict.DefaultBucketSize)
	if err != nil {
		return nil, err
	}
	return &rdf.Dicts{SO: so, P: p}, nil
}

// bestOfRuns reports the best wall time of runs executions of f.
func bestOfRuns(runs int, f func()) time.Duration {
	if runs <= 0 {
		runs = 1
	}
	var best time.Duration
	for r := 0; r < runs; r++ {
		start := time.Now()
		f()
		el := time.Since(start)
		if r == 0 || el < best {
			best = el
		}
	}
	return best
}

func perSec(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// densestPredicate returns the predicate with the most triples and its
// count.
func densestPredicate(d *core.Dataset) (core.ID, int) {
	counts := make([]int, d.NP)
	for _, t := range d.Triples {
		counts[t.P]++
	}
	best, bestN := 0, 0
	for p, n := range counts {
		if n > bestN {
			best, bestN = p, n
		}
	}
	return core.ID(best), bestN
}

// legacyMaterialize replays the pre-writer /sparql row loop: a fresh
// map[string]string per row, one-shot Store.Render per term, and
// reflection-based json.Encoder lines. It is the baseline the pooled row
// writer is measured against.
func legacyMaterialize(st *store.Store, plan *sparql.Compiled, w io.Writer) (int, error) {
	enc := json.NewEncoder(w)
	vars := plan.Vars
	rows := 0
	_, err := sparql.Run(context.Background(), plan, st.Index, sparql.Options{}, sparql.EachRow(func(row []core.ID) {
		out := make(map[string]string, len(vars))
		for i, v := range vars {
			out[v] = st.Render(row[i])
		}
		enc.Encode(out)
		rows++
	}))
	return rows, err
}

// protocolMaterialize runs the same query through the live /sparql
// serving path: row blocks from the executor into the pooled row writer,
// in one of the standard result formats (SPARQL JSON/XML/CSV/TSV).
func protocolMaterialize(st *store.Store, plan *sparql.Compiled, f results.Format, w io.Writer) (int, error) {
	wr := results.Acquire(f, st, w)
	defer wr.Release()
	wr.Begin(plan.Vars, plan.Roles...)
	rows := 0
	_, err := sparql.Run(context.Background(), plan, st.Index, sparql.Options{}, func(b sparql.Block) {
		wr.WriteBlock(b.IDs, b.Rows)
		rows += b.Rows
	})
	if err != nil {
		return rows, err
	}
	wr.End()
	return rows, wr.Flush()
}

// materializeFixture builds the dictionary-backed store and densest-
// predicate scan the materialization measurements share.
func materializeFixture(d *core.Dataset) (*store.Store, *sparql.Compiled, error) {
	dicts, err := SynthDicts(d)
	if err != nil {
		return nil, nil, err
	}
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		return nil, nil, err
	}
	plan, err := densestScan(d)
	return &store.Store{Index: x, Dicts: dicts}, plan, err
}

// densestScan compiles the ?s/?o scan of d's densest predicate.
func densestScan(d *core.Dataset) (*sparql.Compiled, error) {
	p, _ := densestPredicate(d)
	q, err := sparql.Parse(fmt.Sprintf("SELECT ?s ?o WHERE { ?s <%d> ?o . }", p))
	if err != nil {
		return nil, err
	}
	return sparql.Compile(q, sparql.Plan(q))
}

// MaterializeRowsPerSec measures the pooled /sparql row path on a
// dictionary-backed store built from the preset dataset: the densest
// predicate's ?s/?o scan is executed, rendered and encoded as SPARQL JSON
// to a discarding writer, and the best of runs is reported as rows/sec.
// This is the number the BENCH_<preset>.json gate tracks.
func MaterializeRowsPerSec(d *core.Dataset, runs int) (float64, int, error) {
	st, plan, err := materializeFixture(d)
	if err != nil {
		return 0, 0, err
	}
	rows := 0
	el := bestOfRuns(runs, func() {
		var rerr error
		rows, rerr = protocolMaterialize(st, plan, results.JSON, io.Discard)
		if rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return perSec(rows, el), rows, nil
}

// MaterializeFormatRowsPerSec measures the same scan through each of the
// protocol endpoint's serializers, keyed by format name. The row count
// is identical across formats (same seeded query), so the per-format
// numbers gate against a baseline exactly like the pooled-path one.
func MaterializeFormatRowsPerSec(d *core.Dataset, runs int) (map[string]float64, int, error) {
	st, plan, err := materializeFixture(d)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64, len(results.Formats()))
	rows := 0
	for _, f := range results.Formats() {
		el := bestOfRuns(runs, func() {
			var rerr error
			rows, rerr = protocolMaterialize(st, plan, f, io.Discard)
			if rerr != nil {
				err = rerr
			}
		})
		if err != nil {
			return nil, 0, err
		}
		out[f.String()] = perSec(rows, el)
	}
	return out, rows, nil
}

// DictMaterialization measures the dictionary access path end to end:
// term extraction throughput of the one-shot Extract loop against the
// stateful cursor (sequential and random ID orders), Locate throughput on
// present and absent terms, and materialized /sparql rows/sec of the
// legacy row loop against the pooled row writer, then per result format.
func DictMaterialization(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dblp", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	dicts, err := SynthDicts(d)
	if err != nil {
		return nil, err
	}
	so := dicts.SO.(*dict.Dict)
	n := so.Len()

	// --- extraction ---
	seqIDs := make([]int, n)
	for i := range seqIDs {
		seqIDs[i] = i
	}
	randIDs := make([]int, n)
	copy(randIDs, seqIDs)
	rand.New(rand.NewSource(cfg.Seed+11)).Shuffle(n, func(i, j int) {
		randIDs[i], randIDs[j] = randIDs[j], randIDs[i]
	})

	extract := &Table{
		Title: "Dictionary extraction: terms/sec by access path",
		Note: fmt.Sprintf("%s front-coded terms (bucket %d), best of %d runs; one-shot re-decodes its bucket per term (the pre-cursor serving path; the seed's Extract also concatenated a string per bucket entry, so it was strictly slower than this baseline)",
			N(n), dict.DefaultBucketSize, cfg.Runs),
		Header: []string{"order", "one-shot/s", "cursor/s", "cursor speedup"},
	}
	var sink int
	for _, row := range []struct {
		name string
		ids  []int
	}{{"sequential", seqIDs}, {"random", randIDs}} {
		oneshot := bestOfRuns(cfg.Runs, func() {
			for _, id := range row.ids {
				s, _ := so.Extract(id)
				sink += len(s)
			}
		})
		e := dict.NewExtractor(so)
		cursor := bestOfRuns(cfg.Runs, func() {
			for _, id := range row.ids {
				b, _ := e.Extract(id)
				sink += len(b)
			}
		})
		os, cs := perSec(n, oneshot), perSec(n, cursor)
		extract.Add(row.name, N(int(os)), N(int(cs)), fmt.Sprintf("%.1fx", cs/os))
	}
	_ = sink

	// --- locate ---
	probeEvery := n/20000 + 1
	var present, absent []string
	for i := 0; i < n; i += probeEvery {
		s, _ := so.Extract(i)
		present = append(present, s)
		absent = append(absent, s[:len(s)-1]+"x>") // sorts inside the same bucket
	}
	locate := &Table{
		Title:  "Dictionary locate: lookups/sec, LCP-bounded header binary search + bucket scan",
		Note:   fmt.Sprintf("%d sampled terms, present and with a one-byte extension (absent), best of %d runs", len(present), cfg.Runs),
		Header: []string{"probes", "locates/s", "ns/locate"},
	}
	var found int
	for _, row := range []struct {
		name   string
		probes []string
	}{{"present", present}, {"absent", absent}} {
		el := bestOfRuns(cfg.Runs, func() {
			for _, s := range row.probes {
				if _, ok := so.Locate(s); ok {
					found++
				}
			}
		})
		locate.Add(row.name, N(int(perSec(len(row.probes), el))), fmt.Sprintf("%.0f", float64(el.Nanoseconds())/float64(len(row.probes))))
	}
	_ = found

	// --- end-to-end materialization ---
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		return nil, err
	}
	st := &store.Store{Index: x, Dicts: dicts}
	_, pn := densestPredicate(d)
	plan, err := densestScan(d)
	if err != nil {
		return nil, err
	}
	rows := 0
	legacy := bestOfRuns(cfg.Runs, func() {
		rows, _ = legacyMaterialize(st, plan, io.Discard)
	})
	pooled := bestOfRuns(cfg.Runs, func() {
		rows, _ = protocolMaterialize(st, plan, results.JSON, io.Discard)
	})
	mat := &Table{
		Title: "Materialized /sparql rows/sec: legacy row loop vs pooled row writer",
		Note: fmt.Sprintf("SELECT ?s ?o over the densest predicate (%s rows), terms rendered and JSON-encoded to a discarding writer, best of %d runs",
			N(pn), cfg.Runs),
		Header: []string{"path", "rows/s", "speedup"},
	}
	lr, pr := perSec(rows, legacy), perSec(rows, pooled)
	mat.Add("legacy (map + Render + json.Encoder)", N(int(lr)), "1.0x")
	mat.Add("pooled (stream + cursor + term table, SPARQL JSON)", N(int(pr)), fmt.Sprintf("%.1fx", pr/lr))

	// --- protocol serializers ---
	proto := &Table{
		Title: "Materialized protocol rows/sec by serializer (/sparql endpoint)",
		Note: fmt.Sprintf("same densest-predicate scan through each standard result format, best of %d runs; all four share the pooled term table",
			cfg.Runs),
		Header: []string{"format", "rows/s", "vs json"},
	}
	for _, f := range results.Formats() {
		el := bestOfRuns(cfg.Runs, func() {
			rows, _ = protocolMaterialize(st, plan, f, io.Discard)
		})
		fr := perSec(rows, el)
		proto.Add(f.String()+" ("+f.ContentType()+")", N(int(fr)), fmt.Sprintf("%.2fx", fr/pr))
	}
	return []*Table{extract, locate, mat, proto}, nil
}
