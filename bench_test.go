// Benchmarks regenerating the paper's tables and figures as testing.B
// benches, one family per experiment. They run on small calibrated
// datasets so `go test -bench=. -benchmem` completes quickly; the full
// paper-shaped tables are produced by cmd/rdfbench (see EXPERIMENTS.md).
package rdfindexes

import (
	"context"
	"sync"
	"testing"

	"rdfindexes/internal/bench"
	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/hdt"
	"rdfindexes/internal/rdf3x"
	"rdfindexes/internal/seq"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/trie"
	"rdfindexes/internal/triplebit"
)

const benchTriples = 100000

var (
	fixtureOnce sync.Once
	fx          struct {
		d       *core.Dataset
		sample  []core.Triple
		layouts map[string]core.Index
		hdt     *hdt.Index
		tb      *triplebit.Index
		r3      *rdf3x.Index
		wd      *gen.WatDivData
		lubm    *gen.LUBMData
	}
)

func fixture(b *testing.B) {
	fixtureOnce.Do(func() {
		d, err := gen.GeneratePreset("dbpedia", benchTriples, 1)
		if err != nil {
			panic(err)
		}
		fx.d = d
		fx.sample = gen.SampleTriples(d, 1000, 2)
		fx.layouts = map[string]core.Index{}
		for _, l := range []core.Layout{core.Layout3T, core.LayoutCC, core.Layout2Tp, core.Layout2To} {
			x, err := core.Build(d, l)
			if err != nil {
				panic(err)
			}
			fx.layouts[l.String()] = x
		}
		if fx.hdt, err = hdt.Build(d); err != nil {
			panic(err)
		}
		if fx.tb, err = triplebit.Build(d); err != nil {
			panic(err)
		}
		if fx.r3, err = rdf3x.Build(d); err != nil {
			panic(err)
		}
		fx.wd = gen.WatDiv(3000, 3)
		fx.lubm = gen.LUBM(4, 4)
	})
	b.ReportAllocs()
}

func drain(b *testing.B, st bench.Store, pats []core.Pattern) {
	b.Helper()
	total := 0
	var buf [512]core.Triple
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pats[i%len(pats)]
		it := st.Select(p)
		for {
			k := it.NextBatch(buf[:])
			if k == 0 {
				break
			}
			total += k
		}
	}
	if total > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/triple")
	}
}

// BenchmarkTable1 measures access/find/scan of each sequence
// representation on the second level of the SPO trie.
func BenchmarkTable1(b *testing.B) {
	fixture(b)
	for _, kind := range []seq.Kind{seq.KindCompact, seq.KindEF, seq.KindPEF, seq.KindVByte} {
		cfg := trie.Config{Nodes1: kind, Nodes2: kind, Ptr0: seq.KindEF, Ptr1: seq.KindEF}
		scratch := make([]core.Triple, len(fx.d.Triples))
		copy(scratch, fx.d.Triples)
		t, err := trie.Build(len(scratch), fx.d.NS, func(i int) (uint32, uint32, uint32) {
			tr := scratch[i]
			return uint32(tr.S), uint32(tr.P), uint32(tr.O)
		}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		nodes := t.Nodes(1)
		type probe struct {
			b1, e1, j int
			p         uint32
		}
		var probes []probe
		for _, tr := range fx.sample {
			b1, e1 := t.RootRange(uint32(tr.S))
			j := t.FindChild1(b1, e1, uint32(tr.P))
			if j >= 0 {
				probes = append(probes, probe{b1, e1, j, uint32(tr.P)})
			}
		}
		b.Run("access/"+kind.String(), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				p := probes[i%len(probes)]
				sink += nodes.At(p.b1, p.j)
			}
			_ = sink
		})
		b.Run("find/"+kind.String(), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				p := probes[i%len(probes)]
				sink += nodes.Find(p.b1, p.e1, uint64(p.p))
			}
			_ = sink
		})
		b.Run("scan/"+kind.String(), func(b *testing.B) {
			var sink uint64
			it := nodes.Iter(0, nodes.Len())
			for i := 0; i < b.N; i++ {
				v, ok := it.Next()
				if !ok {
					it = nodes.Iter(0, nodes.Len())
					continue
				}
				sink += v
			}
			_ = sink
		})
	}
}

// BenchmarkTable4 measures every selection pattern on every layout.
func BenchmarkTable4(b *testing.B) {
	fixture(b)
	for _, name := range []string{"3T", "CC", "2Tp", "2To"} {
		x := fx.layouts[name]
		for _, shape := range core.AllShapes() {
			if shape == core.Shapexxx {
				continue // full scans dominate -bench time; covered by tests
			}
			pats := gen.PatternWorkload(fx.sample, shape)
			b.Run(name+"/"+shape.String(), func(b *testing.B) {
				drain(b, x, pats)
			})
		}
	}
}

// BenchmarkTable5 measures the baseline systems on the paper's six
// Table 5 patterns.
func BenchmarkTable5(b *testing.B) {
	fixture(b)
	stores := map[string]bench.Store{
		"2Tp": fx.layouts["2Tp"], "HDT-FoQ": fx.hdt, "TripleBit": fx.tb, "RDF-3X": fx.r3,
	}
	shapes := []core.Shape{core.ShapexPO, core.ShapeSxO, core.ShapeSPx,
		core.ShapeSxx, core.ShapexPx, core.ShapexxO}
	for name, st := range stores {
		for _, shape := range shapes {
			pats := gen.PatternWorkload(fx.sample, shape)
			b.Run(name+"/"+shape.String(), func(b *testing.B) {
				drain(b, st, pats)
			})
		}
	}
}

// BenchmarkTable6 replays the WatDiv and LUBM query-log decompositions.
func BenchmarkTable6(b *testing.B) {
	fixture(b)
	p2, err := core.Build(fx.wd.Dataset, core.Layout2Tp)
	if err != nil {
		b.Fatal(err)
	}
	queries := gen.WatDivQueries(fx.wd, 10, 5)
	var patterns []core.Pattern
	for _, q := range queries {
		ps, err := sparql.Decompose(q, p2)
		if err != nil {
			b.Fatal(err)
		}
		patterns = append(patterns, ps...)
	}
	h, err := hdt.Build(fx.wd.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	tb, err := triplebit.Build(fx.wd.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	for name, st := range map[string]bench.Store{"2Tp": p2, "HDT-FoQ": h, "TripleBit": tb} {
		b.Run("watdiv/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparql.Replay(patterns, st.(sparql.Store))
			}
		})
	}
}

// BenchmarkFig7 contrasts select and enumerate on S?O for low and high
// subject out-degrees.
func BenchmarkFig7(b *testing.B) {
	fixture(b)
	buckets := gen.SubjectsByOutDegree(fx.d)
	bySubject := map[core.ID]core.Triple{}
	for _, tr := range fx.d.Triples {
		bySubject[tr.S] = tr
	}
	makePats := func(degLo, degHi int) []core.Pattern {
		var pats []core.Pattern
		for c := degLo; c <= degHi; c++ {
			for _, s := range buckets[c] {
				tr := bySubject[s]
				pats = append(pats, core.Pattern{S: tr.S, P: core.Wildcard, O: tr.O})
				if len(pats) >= 400 {
					return pats
				}
			}
		}
		return pats
	}
	low := makePats(1, 3)
	high := makePats(12, 60)
	for name, pats := range map[string][]core.Pattern{"lowC": low, "highC": high} {
		if len(pats) == 0 {
			continue
		}
		b.Run("select3T/"+name, func(b *testing.B) { drain(b, fx.layouts["3T"], pats) })
		b.Run("enumerate2Tp/"+name, func(b *testing.B) { drain(b, fx.layouts["2Tp"], pats) })
	}
}

// BenchmarkRangeQueries measures range-constrained patterns through the R
// structure (Section 4.1).
func BenchmarkRangeQueries(b *testing.B) {
	fixture(b)
	x, err := core.Build(fx.wd.Dataset, core.Layout2Tp)
	if err != nil {
		b.Fatal(err)
	}
	p2 := x.(core.RangeSelecter)
	r := fx.wd.R()
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i*37) % 100000
		it := core.SelectValueRange(p2, r, core.ID(gen.WdPrice), lo, lo+5000)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			total++
		}
	}
	if total > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/triple")
	}
}

// BenchmarkBuild measures index construction throughput per layout.
func BenchmarkBuild(b *testing.B) {
	fixture(b)
	for _, layout := range []core.Layout{core.Layout3T, core.LayoutCC, core.Layout2Tp, core.Layout2To} {
		b.Run(layout.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(fx.d, layout); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fx.d.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtriples/s")
		})
	}
}

// BenchmarkSPARQLExecute measures full query execution (plan + join) on
// the LUBM-like graph.
func BenchmarkSPARQLExecute(b *testing.B) {
	fixture(b)
	x, err := core.Build(fx.lubm.Dataset, core.Layout2Tp)
	if err != nil {
		b.Fatal(err)
	}
	queries := gen.LUBMQueries(fx.lubm, 12, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		c, err := sparql.Compile(q, sparql.Plan(q))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sparql.Run(context.Background(), c, x, sparql.Options{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
