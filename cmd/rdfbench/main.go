// Command rdfbench reproduces the paper's evaluation. Each experiment
// prints a table shaped like the corresponding table or figure of the
// paper; EXPERIMENTS.md records a full run with commentary.
//
// Usage:
//
//	rdfbench -exp table1|table2|table3|table4|table5|table6|fig6a|fig6b|fig7|range|ablation|all \
//	         [-triples 300000] [-queries 2000] [-runs 3] [-seed 1]
//
// With -json, rdfbench instead writes machine-readable measurements —
// ns/triple and bits/triple per layout × pattern shape, materialized
// rows/sec per serializer, and serving-path latency percentiles
// (p50/p95/p99 at 1, 4 and 16 goroutines) — to one BENCH_<preset>.json
// file per requested preset, so the performance trajectory can be
// tracked across commits. -baseline gates the run against a committed
// report: throughputs must not fall below (1-tolerance)×baseline, and
// p50/p99 latency must not rise past the doubled tolerance plus an
// absolute noise floor:
//
//	rdfbench -json [-preset dblp,watdiv] [-out .] [-triples N] [-queries N] [-runs N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rdfindexes/internal/bench"
)

var experiments = []struct {
	name string
	what string
	run  func(bench.Config) ([]*bench.Table, error)
}{
	{"table1", "compressor space/time on trie levels (DBpedia-shaped)", bench.Table1},
	{"table2", "children per trie node (DBpedia-shaped)", bench.Table2},
	{"table3", "dataset statistics (all six shapes)", bench.Table3},
	{"table4", "3T vs CC vs 2To vs 2Tp, space and per-pattern speed", bench.Table4},
	{"table5", "2Tp vs HDT-FoQ vs TripleBit (and RDF-3X*), space and speed", bench.Table5},
	{"table6", "WatDiv and LUBM query-log decompositions", bench.Table6},
	{"fig6a", "??O by decreasing matches: select vs inverted", bench.Fig6a},
	{"fig6b", "?P? by decreasing matches: select vs select+CC vs inverted", bench.Fig6b},
	{"fig7", "S?O by subject out-degree: select vs enumerate", bench.Fig7},
	{"range", "range-constrained patterns via the R structure", bench.RangeQueries},
	{"breakdown", "per-level space shares of the 3T and 2Tp indexes (Section 3.1)", bench.Breakdown},
	{"ablation", "encoder choices and cross-compression variants", bench.Ablation},
	{"parallel", "concurrent query throughput on one shared index (1/4/16 goroutines)", bench.ServeParallel},
	{"update", "amortized-update throughput and read interference by merge threshold", bench.UpdateThroughput},
	{"dict", "dictionary materialization: cursor/batch extraction, locate, materialized rows/sec per result format", bench.DictMaterialization},
	{"repl", "WAL-shipping replication: bootstrap, shipping lag and read fan-out at 1/2/4/8 followers", bench.ReplFanOut},
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (or 'all')")
		triples  = flag.Int("triples", 300000, "synthetic dataset size")
		queries  = flag.Int("queries", 2000, "sampled queries per pattern")
		runs     = flag.Int("runs", 3, "measurement repetitions (best is kept)")
		seed     = flag.Int64("seed", 1, "generator seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonOut  = flag.Bool("json", false, "emit BENCH_<preset>.json files instead of tables")
		presets  = flag.String("preset", "dblp", "comma-separated dataset presets for -json")
		outDir   = flag.String("out", ".", "output directory for -json files")
		baseline = flag.String("baseline", "", "directory holding committed BENCH_<preset>.json baselines to gate against (with -json)")
		tol      = flag.Float64("tolerance", 0.25, "ns/triple regression tolerance for -baseline (0.25 = fail at >25% slower)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("  %-8s %s\n", e.name, e.what)
		}
		return
	}

	cfg := bench.Config{Triples: *triples, Queries: *queries, Runs: *runs, Seed: *seed}

	if *jsonOut {
		regressed := false
		for _, preset := range strings.Split(*presets, ",") {
			preset = strings.TrimSpace(preset)
			if preset == "" {
				continue
			}
			// Load the baseline before anything is written: with -out and
			// -baseline pointing at the same directory the report below
			// overwrites the baseline file, and a gate comparing the fresh
			// report against itself would always pass.
			var base *bench.JSONReport
			if *baseline != "" {
				basePath := filepath.Join(*baseline, "BENCH_"+preset+".json")
				bf, err := os.Open(basePath)
				if err != nil {
					// A missing baseline is not a regression: new presets
					// gate from their next commit on.
					fmt.Fprintf(os.Stderr, "rdfbench: no baseline %s, skipping gate\n", basePath)
				} else {
					base, err = bench.ReadJSON(bf)
					bf.Close()
					if err != nil {
						fmt.Fprintf(os.Stderr, "rdfbench: %s: %v\n", basePath, err)
						os.Exit(1)
					}
				}
			}
			rep, err := bench.MeasureJSON(cfg, preset)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdfbench: %s: %v\n", preset, err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, "BENCH_"+preset+".json")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdfbench: %v\n", err)
				os.Exit(1)
			}
			if err := rep.WriteJSON(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdfbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d triples, %d measurements)\n", path, rep.Triples, len(rep.Patterns))

			if base != nil {
				regs := bench.Compare(base, rep, *tol)
				if len(regs) == 0 {
					fmt.Printf("baseline BENCH_%s.json: ok (tolerance %.0f%%)\n", preset, *tol*100)
					continue
				}
				regressed = true
				fmt.Fprintf(os.Stderr, "rdfbench: %d regression(s) vs baseline BENCH_%s.json:\n", len(regs), preset)
				for _, r := range regs {
					fmt.Fprintf(os.Stderr, "  %s\n", r)
				}
			}
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		fmt.Printf("=== %s: %s ===\n", e.name, e.what)
		start := time.Now()
		tables, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdfbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("\n(%s completed in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "rdfbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
}
