// Command rdfgen generates the synthetic datasets used by the
// experiments, either as compact binary dataset files (consumed by
// rdfstore and ReadDataset) or as N-Triples text with synthetic URIs.
//
// Generation is deterministic in -seed: the same preset, size and seed
// always produce byte-identical output, so benchmark datasets are
// reproducible across machines and commits; vary -seed to get
// independent instances.
//
// Usage:
//
//	rdfgen -preset dbpedia -triples 1000000 -seed 1 -out dbpedia.bin
//	rdfgen -preset lubm-structured -scale 50 -out lubm.bin
//	rdfgen -preset watdiv-structured -scale 5000 -format nt -out watdiv.nt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "rdfgen: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses flags, generates the
// dataset, and writes it to -out (or stdout).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rdfgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset  = fs.String("preset", "dbpedia", "dataset shape: dblp|geonames|dbpedia|watdiv|lubm|freebase|lubm-structured|watdiv-structured")
		triples = fs.Int("triples", 1000000, "triple count (statistical presets)")
		scale   = fs.Int("scale", 20, "scale for structured presets (universities / products)")
		seed    = fs.Int64("seed", 1, "generator seed; identical seeds reproduce identical datasets")
		format  = fs.String("format", "bin", "output format: bin (binary dataset) or nt (N-Triples)")
		out     = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		d   *core.Dataset
		err error
	)
	switch *preset {
	case "lubm-structured":
		d = gen.LUBM(*scale, *seed).Dataset
	case "watdiv-structured":
		d = gen.WatDiv(*scale, *seed).Dataset
	default:
		d, err = gen.GeneratePreset(*preset, *triples, *seed)
		if err != nil {
			return err
		}
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	switch *format {
	case "bin":
		if err := core.WriteDataset(w, d); err != nil {
			return err
		}
	case "nt":
		bw := bufio.NewWriter(w)
		for _, t := range d.Triples {
			fmt.Fprintf(bw, "<http://gen/s%d> <http://gen/p%d> <http://gen/o%d> .\n", t.S, t.P, t.O)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	st := d.ComputeStats()
	fmt.Fprintf(stderr, "rdfgen: %d triples (S=%d P=%d O=%d) written\n",
		st.Triples, st.DistinctS, st.DistinctP, st.DistinctO)
	return nil
}
