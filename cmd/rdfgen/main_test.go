package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// generate runs rdfgen in-process and returns the produced bytes.
func generate(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("rdfgen %s: %v", strings.Join(args, " "), err)
	}
	return out.Bytes()
}

// TestSeedReproducibility pins the -seed contract the benchmarks rely
// on: identical seeds produce byte-identical datasets, different
// seeds produce different ones — for both statistical and structured
// presets and both output formats.
func TestSeedReproducibility(t *testing.T) {
	cases := [][]string{
		{"-preset", "dblp", "-triples", "5000", "-format", "bin"},
		{"-preset", "dbpedia", "-triples", "5000", "-format", "nt"},
		{"-preset", "lubm-structured", "-scale", "2", "-format", "bin"},
		{"-preset", "watdiv-structured", "-scale", "50", "-format", "bin"},
	}
	for _, base := range cases {
		name := base[1] + "/" + base[5]
		a := generate(t, append(base, "-seed", "7")...)
		b := generate(t, append(base, "-seed", "7")...)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed produced different datasets", name)
		}
		c := generate(t, append(base, "-seed", "8")...)
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds produced identical datasets", name)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-preset", "nope"}, &out, io.Discard); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if err := run([]string{"-preset", "dblp", "-triples", "100", "-format", "nope"}, &out, io.Discard); err == nil {
		t.Fatal("unknown format accepted")
	}
}
