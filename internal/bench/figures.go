package bench

import (
	"fmt"
	"sort"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/seq"
	"rdfindexes/internal/trie"
)

// coverageSeries measures the per-triple time of several stores on the
// same query set, sorted by decreasing matches, reporting the running
// average at fixed coverage checkpoints (the x axis of Fig. 6).
func coverageSeries(stores map[string]Store, pats []core.Pattern, runs int) *Table {
	// Order patterns by decreasing matches, as the paper does.
	type withCount struct {
		p core.Pattern
		n int
	}
	counts := make([]withCount, len(pats))
	var any Store
	for _, s := range stores {
		any = s
		break
	}
	total := 0
	for i, p := range pats {
		n := 0
		it := any.Select(p)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		counts[i] = withCount{p, n}
		total += n
	}
	sort.SliceStable(counts, func(i, j int) bool { return counts[i].n > counts[j].n })

	checkpoints := []int{14, 28, 42, 57, 71, 85, 100}
	names := make([]string, 0, len(stores))
	for n := range stores {
		names = append(names, n)
	}
	sort.Strings(names)

	t := &Table{Header: append([]string{"coverage %"}, names...)}
	type cell struct{ ns float64 }
	results := make(map[string][]cell)
	for _, name := range names {
		st := stores[name]
		var series []cell
		var best []time.Duration
		for r := 0; r < runs; r++ {
			cum := time.Duration(0)
			matched := 0
			ci := 0
			var run []time.Duration
			for _, wc := range counts {
				start := time.Now()
				it := st.Select(wc.p)
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					matched++
				}
				cum += time.Since(start)
				for ci < len(checkpoints) && matched*100 >= checkpoints[ci]*total && total > 0 {
					run = append(run, cum)
					ci++
				}
			}
			for ci < len(checkpoints) {
				run = append(run, cum)
				ci++
			}
			if r == 0 {
				best = run
			} else {
				for i := range run {
					if run[i] < best[i] {
						best[i] = run[i]
					}
				}
			}
		}
		for i := range checkpoints {
			m := total * checkpoints[i] / 100
			ns := 0.0
			if m > 0 {
				ns = float64(best[i].Nanoseconds()) / float64(m)
			}
			series = append(series, cell{ns})
		}
		results[name] = series
	}
	for i, cp := range checkpoints {
		row := []string{fmt.Sprintf("%d", cp)}
		for _, name := range names {
			row = append(row, F(results[name][i].ns))
		}
		t.Add(row...)
	}
	return t
}

// Fig6a reproduces Fig. 6a: average ns/triple for ??O by decreasing
// number of matches — select (on the OSP trie of 3T) versus inverted (the
// 2Tp algorithm issuing |P| finds on POS).
func Fig6a(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	x3, err := core.Build(d, core.Layout3T)
	if err != nil {
		return nil, err
	}
	p2, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		return nil, err
	}
	sample := gen.SampleTriples(d, cfg.Queries, cfg.Seed+6)
	pats := gen.PatternWorkload(sample, core.ShapexxO)
	t := coverageSeries(map[string]Store{"select (3T)": x3, "inverted (2Tp)": p2}, pats, cfg.Runs)
	t.Title = "Fig. 6a: ??O ns/triple by decreasing matches (triples coverage %)"
	return []*Table{t}, nil
}

// Fig6b reproduces Fig. 6b: the same stress for ?P? — select (3T),
// select+CC (cross-compressed POS, paying one unmap per match) and
// inverted (2To walking the PS structure).
func Fig6b(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	x3, err := core.Build(d, core.Layout3T)
	if err != nil {
		return nil, err
	}
	cc, err := core.Build(d, core.LayoutCC)
	if err != nil {
		return nil, err
	}
	o2, err := core.Build(d, core.Layout2To)
	if err != nil {
		return nil, err
	}
	sample := gen.SampleTriples(d, cfg.Queries, cfg.Seed+7)
	pats := gen.PatternWorkload(sample, core.ShapexPx)
	t := coverageSeries(map[string]Store{
		"select (3T)": x3, "select+CC": cc, "inverted (2To)": o2,
	}, pats, cfg.Runs)
	t.Title = "Fig. 6b: ?P? ns/triple by decreasing matches (triples coverage %)"
	return []*Table{t}, nil
}

// Fig7 reproduces Fig. 7: select (3T, on OSP) versus enumerate (2Tp, on
// SPO) for S?O, for queries whose subjects have a given number of
// children C, together with the distribution of C.
func Fig7(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	x3, err := core.Build(d, core.Layout3T)
	if err != nil {
		return nil, err
	}
	p2, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		return nil, err
	}
	buckets := gen.SubjectsByOutDegree(d)
	degrees := make([]int, 0, len(buckets))
	for c := range buckets {
		degrees = append(degrees, c)
	}
	sort.Ints(degrees)

	// For each out-degree, build S?O queries from triples of bucket
	// subjects.
	bySubject := map[core.ID][]core.Triple{}
	for _, tr := range d.Triples {
		bySubject[tr.S] = append(bySubject[tr.S], tr)
	}
	t := &Table{
		Title:  "Fig. 7: S?O ns/triple by subject out-degree C, with the C distribution",
		Header: []string{"C", "subjects", "select (3T)", "enumerate (2Tp)"},
	}
	perBucket := cfg.Queries / len(degrees)
	if perBucket < 20 {
		perBucket = 20
	}
	for _, c := range degrees {
		subjects := buckets[c]
		var pats []core.Pattern
		for i := 0; len(pats) < perBucket; i++ {
			s := subjects[i%len(subjects)]
			tris := bySubject[s]
			tr := tris[i%len(tris)]
			pats = append(pats, core.Pattern{S: tr.S, P: core.Wildcard, O: tr.O})
			if i > perBucket*4 {
				break
			}
		}
		nsSel, _ := TimePatterns(x3, pats, cfg.Runs)
		nsEnum, _ := TimePatterns(p2, pats, cfg.Runs)
		t.Add(fmt.Sprintf("%d", c), N(len(subjects)), F(nsSel), F(nsEnum))
	}
	return []*Table{t}, nil
}

// RangeQueries reproduces the range-query experiment of Section 4.1:
// ?P? patterns with range constraints on numeric objects of the
// WatDiv-shaped dataset, resolved on the POS trie of 2Tp through the R
// structure.
func RangeQueries(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	wd := gen.WatDiv(cfg.Triples/17+10, cfg.Seed)
	d := wd.Dataset
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		return nil, err
	}
	p2 := x.(core.RangeSelecter)
	r := wd.R()

	type rangeQuery struct {
		p      core.ID
		lo, hi uint64
	}
	maxPrice := uint64(100000)
	var queries []rangeQuery
	rngWidths := []uint64{500, 5000, 50000}
	for i := 0; i < cfg.Queries; i++ {
		w := rngWidths[i%len(rngWidths)]
		lo := uint64(i*37) % maxPrice
		queries = append(queries, rangeQuery{core.ID(gen.WdPrice), lo, lo + w})
		queries = append(queries, rangeQuery{core.ID(gen.WdRating), uint64(i % 9), uint64(i%9 + 2)})
	}

	var best time.Duration
	matches := 0
	for run := 0; run < cfg.Runs; run++ {
		total := 0
		start := time.Now()
		for _, q := range queries {
			it := core.SelectValueRange(p2, r, q.p, q.lo, q.hi)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				total++
			}
		}
		el := time.Since(start)
		matches = total
		if run == 0 || el < best {
			best = el
		}
	}
	t := &Table{
		Title:  "Range queries (Section 4.1): ?P? with object value constraints on WatDiv-shaped data",
		Header: []string{"metric", "value"},
	}
	ns := 0.0
	if matches > 0 {
		ns = float64(best.Nanoseconds()) / float64(matches)
	}
	t.Add("queries executed", N(len(queries)))
	t.Add("triples returned", N(matches))
	t.Add("avg ns/triple", F(ns))
	t.Add("extra space of R (bits/triple)", fmt.Sprintf("%.4f", float64(r.SizeBits())/float64(d.Len())))
	return []*Table{t}, nil
}

// Ablation reports the design-choice studies DESIGN.md calls out: the
// per-level encoder choice (whole-index space/speed when deviating from
// the paper's PEF+Compact default) and cross-compressing every
// permutation instead of POS only.
func Ablation(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sample := gen.SampleTriples(d, cfg.Queries, cfg.Seed+8)

	enc := &Table{
		Title:  "Ablation (encoders): 2Tp with uniform sequence representations",
		Header: []string{"config", "bits/triple", "SPO ns/t", "SP? ns/t", "?PO ns/t", "?P? ns/t"},
	}
	uniform := func(kind seq.Kind) []core.Option {
		cfgT := trie.Config{Nodes1: kind, Nodes2: kind, Ptr0: kind, Ptr1: kind}
		if kind == seq.KindCompact {
			// Compact pointers are legal; keep them EF for monotone data.
			cfgT.Ptr0, cfgT.Ptr1 = seq.KindEF, seq.KindEF
		}
		return []core.Option{
			core.WithTrieConfig(core.PermSPO, cfgT),
			core.WithTrieConfig(core.PermPOS, cfgT),
		}
	}
	configs := []struct {
		name string
		opts []core.Option
	}{
		{"paper default (PEF nodes + Compact SPO L3, EF ptrs)", nil},
		{"all Compact", uniform(seq.KindCompact)},
		{"all EF", uniform(seq.KindEF)},
		{"all PEF", uniform(seq.KindPEF)},
		{"all VByte", uniform(seq.KindVByte)},
	}
	for _, c := range configs {
		x, err := core.Build(d, core.Layout2Tp, c.opts...)
		if err != nil {
			return nil, err
		}
		row := []string{c.name, F(BitsPerTriple(x))}
		for _, shape := range []core.Shape{core.ShapeSPO, core.ShapeSPx, core.ShapexPO, core.ShapexPx} {
			pats := gen.PatternWorkload(sample, shape)
			ns, _ := TimePatterns(x, pats, cfg.Runs)
			row = append(row, F(ns))
		}
		enc.Add(row...)
	}

	cc := &Table{
		Title:  "Ablation (cross-compression): CC on POS only vs all permutations (Section 3.2 discussion)",
		Header: []string{"config", "bits/triple", "?PO ns/t", "SP? ns/t", "S?O ns/t"},
	}
	ccConfigs := []struct {
		name   string
		layout core.Layout
		opts   []core.Option
	}{
		{"3T (no cross-compression)", core.Layout3T, nil},
		{"CC (POS only, paper's choice)", core.LayoutCC, nil},
		{"CC (all permutations)", core.LayoutCC, []core.Option{core.WithCCAllPermutations()}},
	}
	for _, c := range ccConfigs {
		x, err := core.Build(d, c.layout, c.opts...)
		if err != nil {
			return nil, err
		}
		row := []string{c.name, F(BitsPerTriple(x))}
		for _, shape := range []core.Shape{core.ShapexPO, core.ShapeSPx, core.ShapeSxO} {
			pats := gen.PatternWorkload(sample, shape)
			ns, _ := TimePatterns(x, pats, cfg.Runs)
			row = append(row, F(ns))
		}
		cc.Add(row...)
	}
	return []*Table{enc, cc}, nil
}
