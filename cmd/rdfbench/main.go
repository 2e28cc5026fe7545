// Command rdfbench reproduces the paper's evaluation. Each experiment
// prints a table shaped like the corresponding table or figure of the
// paper; EXPERIMENTS.md records a full run with commentary.
//
// Usage:
//
//	rdfbench -exp table1|table2|table3|table4|table5|table6|fig6a|fig6b|fig7|range| \
//	              breakdown|ablation|parallel|update|dict|repl|all \
//	         [-triples 300000] [-queries 2000] [-runs 3] [-seed 1]
//	rdfbench -list
package main

import (
	"flag"
	"fmt"
	"os"
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
		exp     = flag.String("exp", "all", "experiment to run (or 'all')")
		triples = flag.Int("triples", 300000, "synthetic dataset size")
		queries = flag.Int("queries", 2000, "sampled queries per pattern")
		runs    = flag.Int("runs", 3, "measurement repetitions (best is kept)")
		seed    = flag.Int64("seed", 1, "generator seed")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("  %-8s %s\n", e.name, e.what)
		}
		return
	}

	cfg := bench.Config{Triples: *triples, Queries: *queries, Runs: *runs, Seed: *seed}

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
