package bench

import (
	"fmt"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/hdt"
	"rdfindexes/internal/rdf3x"
	"rdfindexes/internal/seq"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/trie"
	"rdfindexes/internal/triplebit"
)

// table1Kinds are the encoders compared in Table 1. VByte is scalar here
// (the paper benchmarks a SIMD decoder; Go has no stdlib SIMD — the
// family's trade-off shape is preserved, see DESIGN.md).
var table1Kinds = []seq.Kind{seq.KindCompact, seq.KindEF, seq.KindPEF, seq.KindVByte}

// table1Perms are the three materialized permutations.
var table1Perms = []core.Perm{core.PermSPO, core.PermPOS, core.PermOSP}

// Table1 reproduces Table 1: space and access/find/scan speed of the
// four sequence representations on levels 2 and 3 of the three tries of
// the DBpedia-shaped dataset. A third table prices the same four as the
// pointer sequences of levels 1 and 2 (the trie's ptr0 and ptr1), which
// the paper fixes to EF and the layouts choose per level.
func Table1(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sample := gen.SampleTriples(d, cfg.Queries, cfg.Seed+1)

	level2 := &Table{
		Title:  "Table 1 (level 2): bits/triple and ns/int for access, find, scan",
		Note:   fmt.Sprintf("DBpedia-shaped dataset, %s triples, %d sampled queries", N(d.Len()), len(sample)),
		Header: []string{"encoder", "SPO b/t", "acc", "find", "scan", "POS b/t", "acc", "find", "scan", "OSP b/t", "acc", "find", "scan"},
	}
	level3 := &Table{
		Title:  "Table 1 (level 3): bits/triple and ns/int for access, find, scan",
		Header: level2.Header,
	}

	for _, kind := range table1Kinds {
		row2 := []string{kind.String()}
		row3 := []string{kind.String()}
		for _, perm := range table1Perms {
			t, err := buildTrieForBench(d, perm, trie.Config{
				Nodes1: kind, Nodes2: kind, Ptr0: seq.KindEF, Ptr1: seq.KindEF,
			})
			if err != nil {
				return nil, err
			}
			m2, m3 := measureTrieLevels(t, perm, sample, cfg.Runs)
			row2 = append(row2, F(m2.bitsPerTriple), F(m2.accessNs), F(m2.findNs), F(m2.scanNs))
			row3 = append(row3, F(m3.bitsPerTriple), F(m3.accessNs), F(m3.findNs), F(m3.scanNs))
		}
		level2.Add(row2...)
		level3.Add(row3...)
	}
	pointers := &Table{
		Title:  "Table 1 (pointers): bits/triple and ns per range lookup of the level 1 and 2 pointers",
		Note:   "a range lookup reads the pointer pair [i, i+1] that delimits a node's children (RootRange, ChildRange); nodes are PEF",
		Header: []string{"encoder", "SPO L1 b/t", "range", "L2 b/t", "range", "POS L1 b/t", "range", "L2 b/t", "range", "OSP L1 b/t", "range", "L2 b/t", "range"},
	}
	for _, kind := range table1Kinds {
		row := []string{kind.String()}
		for _, perm := range table1Perms {
			t, err := buildTrieForBench(d, perm, trie.Config{
				Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: kind, Ptr1: kind,
			})
			if err != nil {
				return nil, err
			}
			for _, m := range measurePointers(t, perm, sample, cfg.Runs) {
				row = append(row, F(m.bitsPerTriple), F(m.accessNs))
			}
		}
		pointers.Add(row...)
	}
	return []*Table{level2, level3, pointers}, nil
}

// measurePointers prices the pointer sequences of levels 0 and 1: their
// bits/triple, and per sampled triple the range lookup of its first
// component (RootRange) and of its second (ChildRange).
func measurePointers(t *trie.Trie, perm core.Perm, sample []core.Triple, runs int) [2]levelMeasurement {
	var roots []uint32
	var children []int
	for _, tr := range sample {
		a, b, _ := perm.Apply(tr)
		b1, e1 := t.RootRange(uint32(a))
		if j := t.FindChild1(b1, e1, uint32(b)); j >= 0 {
			roots = append(roots, uint32(a))
			children = append(children, j)
		}
	}
	var m [2]levelMeasurement
	n := float64(t.NumTriples())
	m[0].bitsPerTriple = float64(t.Pointers(0).SizeBits()) / n
	m[1].bitsPerTriple = float64(t.Pointers(1).SizeBits()) / n
	if len(roots) == 0 {
		return m
	}
	var sink int
	m[0].accessNs = float64(bestOfRuns(runs, func() {
		for _, a := range roots {
			b, e := t.RootRange(a)
			sink += b + e
		}
	}).Nanoseconds()) / float64(len(roots))
	m[1].accessNs = float64(bestOfRuns(runs, func() {
		for _, j := range children {
			b, e := t.ChildRange(j)
			sink += b + e
		}
	}).Nanoseconds()) / float64(len(children))
	_ = sink
	return m
}

func buildTrieForBench(d *core.Dataset, perm core.Perm, cfg trie.Config) (*trie.Trie, error) {
	scratch := make([]core.Triple, len(d.Triples))
	copy(scratch, d.Triples)
	core.SortPerm(scratch, perm, d.NS, d.NP, d.NO)
	return trie.Build(len(scratch), perm.RootSpace(d.NS, d.NP, d.NO), func(i int) (uint32, uint32, uint32) {
		a, b, c := perm.Apply(scratch[i])
		return uint32(a), uint32(b), uint32(c)
	}, cfg)
}

type levelMeasurement struct {
	bitsPerTriple float64
	accessNs      float64
	findNs        float64
	scanNs        float64
}

// measureTrieLevels runs the Table 1 micro-benchmarks: for every sampled
// triple, an access at the pre-calculated position of its second (third)
// component, a find for that component within its sibling range, and a
// full sequential scan of each level.
func measureTrieLevels(t *trie.Trie, perm core.Perm, sample []core.Triple, runs int) (levelMeasurement, levelMeasurement) {
	n := t.NumTriples()
	type probe struct {
		b1, e1, j int // second level: range and position of b
		b2, e2, k int // third level: range and position of c
		b, c      uint32
	}
	probes := make([]probe, 0, len(sample))
	for _, tr := range sample {
		a, b, c := perm.Apply(tr)
		p := probe{b: uint32(b), c: uint32(c)}
		p.b1, p.e1 = t.RootRange(uint32(a))
		p.j = t.FindChild1(p.b1, p.e1, uint32(b))
		if p.j < 0 {
			continue
		}
		p.b2, p.e2 = t.ChildRange(p.j)
		p.k = t.FindChild2(p.b2, p.e2, uint32(c))
		if p.k < 0 {
			continue
		}
		probes = append(probes, p)
	}

	nodes1, nodes2 := t.Nodes(1), t.Nodes(2)
	var m2, m3 levelMeasurement
	m2.bitsPerTriple = float64(nodes1.SizeBits()) / float64(n)
	m3.bitsPerTriple = float64(nodes2.SizeBits()) / float64(n)

	bestOf := func(f func()) time.Duration {
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
	perOp := func(d time.Duration, ops int) float64 {
		if ops == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(ops)
	}

	var sink uint64
	m2.accessNs = perOp(bestOf(func() {
		for _, p := range probes {
			sink += nodes1.At(p.b1, p.j)
		}
	}), len(probes))
	m2.findNs = perOp(bestOf(func() {
		for _, p := range probes {
			sink += uint64(nodes1.Find(p.b1, p.e1, uint64(p.b)))
		}
	}), len(probes))
	m3.accessNs = perOp(bestOf(func() {
		for _, p := range probes {
			sink += nodes2.At(p.b2, p.k)
		}
	}), len(probes))
	m3.findNs = perOp(bestOf(func() {
		for _, p := range probes {
			sink += uint64(nodes2.Find(p.b2, p.e2, uint64(p.c)))
		}
	}), len(probes))

	// Scans decode the whole level sequentially, as the paper measures
	// ("the time spent per node, when decoding the level sequentially").
	m2.scanNs = perOp(bestOf(func() {
		it := nodes1.Iter(0, nodes1.Len())
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			sink += v
		}
	}), nodes1.Len())
	m3.scanNs = perOp(bestOf(func() {
		it := nodes2.Iter(0, nodes2.Len())
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			sink += v
		}
	}), nodes2.Len())
	_ = sink
	return m2, m3
}

// Table2 reproduces Table 2: average and maximum number of children per
// trie level on the DBpedia-shaped dataset.
func Table2(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table 2: number of children of the trie nodes (DBpedia-shaped)",
		Header: []string{"trie", "level", "average", "maximum"},
	}
	// Child counts do not depend on the codecs: read them off the 3T
	// index, which stores every permutation of table1Perms.
	x, err := core.Build(d, core.Layout3T)
	if err != nil {
		return nil, err
	}
	for _, perm := range table1Perms {
		tr := x.Trie(perm)
		for level := 1; level <= 2; level++ {
			avg, max := tr.ChildStats(level)
			t.Add(perm.String(), fmt.Sprintf("%d", level), F(avg), N(max))
		}
	}
	return []*Table{t}, nil
}

// Table3 reproduces Table 3: the basic statistics of all six datasets.
func Table3(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	t := &Table{
		Title:  "Table 3: dataset statistics (synthetic, calibrated to the paper's shapes)",
		Header: []string{"dataset", "triples", "S", "P", "O", "SP pairs", "PO pairs", "OS pairs"},
	}
	for _, name := range gen.PresetNames() {
		d, err := gen.GeneratePreset(name, cfg.Triples, cfg.Seed)
		if err != nil {
			return nil, err
		}
		st := d.ComputeStats()
		t.Add(name, N(st.Triples), N(st.DistinctS), N(st.DistinctP), N(st.DistinctO),
			N(st.PairsSP), N(st.PairsPO), N(st.PairsOS))
	}
	return []*Table{t}, nil
}

// table4Datasets are the real-world shapes of the 3T/CC/2T comparison.
var table4Datasets = []string{"dblp", "geonames", "dbpedia", "freebase"}

// Table4 reproduces Table 4: space and per-pattern speed of 3T, CC, 2To
// and 2Tp.
func Table4(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	space := &Table{
		Title:  "Table 4 (space): bits/triple of the index layouts",
		Header: append([]string{"index"}, table4Datasets...),
	}
	speed := &Table{
		Title:  "Table 4 (speed): average ns per returned triple",
		Header: append([]string{"pattern", "index"}, table4Datasets...),
	}

	type built struct {
		indexes map[string]core.Index
		sample  []core.Triple
	}
	builds := map[string]built{}
	for _, name := range table4Datasets {
		d, err := gen.GeneratePreset(name, cfg.Triples, cfg.Seed)
		if err != nil {
			return nil, err
		}
		b := built{indexes: map[string]core.Index{}, sample: gen.SampleTriples(d, cfg.Queries, cfg.Seed+2)}
		for _, layout := range []core.Layout{core.Layout3T, core.LayoutCC, core.Layout2To, core.Layout2Tp} {
			x, err := core.Build(d, layout)
			if err != nil {
				return nil, err
			}
			b.indexes[layout.String()] = x
		}
		builds[name] = b
	}

	for _, idx := range []string{"3T", "CC", "2To", "2Tp"} {
		row := []string{idx}
		for _, name := range table4Datasets {
			row = append(row, F(BitsPerTriple(builds[name].indexes[idx])))
		}
		space.Add(row...)
	}

	for _, shape := range core.AllShapes() {
		for _, idx := range []string{"3T", "CC", "2To", "2Tp"} {
			row := []string{shape.String(), idx}
			for _, name := range table4Datasets {
				b := builds[name]
				pats := gen.PatternWorkload(b.sample, shape)
				ns, _ := TimePatterns(b.indexes[idx], pats, cfg.Runs)
				row = append(row, F(ns))
			}
			speed.Add(row...)
		}
	}
	return []*Table{space, speed}, nil
}

// table5Shapes are the patterns reported in Table 5 (SPO and ??? are
// omitted there; TripleBit does not support SPO natively).
var table5Shapes = []core.Shape{core.ShapexPO, core.ShapeSxO, core.ShapeSPx, core.ShapeSxx, core.ShapexPx, core.ShapexxO}

// Table5 reproduces Table 5: 2Tp against the reimplemented HDT-FoQ and
// TripleBit baselines, plus the RDF-3X-style baseline as an extension.
func Table5(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	space := &Table{
		Title:  "Table 5 (space): bits/triple, 2Tp vs baselines",
		Header: append([]string{"index"}, table4Datasets...),
	}
	speed := &Table{
		Title:  "Table 5 (speed): average ns per returned triple",
		Header: append([]string{"pattern", "index"}, table4Datasets...),
	}
	names := []string{"2Tp", "HDT-FoQ", "TripleBit", "RDF-3X*"}
	type built struct {
		stores map[string]Store
		sample []core.Triple
	}
	builds := map[string]built{}
	for _, name := range table4Datasets {
		d, err := gen.GeneratePreset(name, cfg.Triples, cfg.Seed)
		if err != nil {
			return nil, err
		}
		p2, err := core.Build(d, core.Layout2Tp)
		if err != nil {
			return nil, err
		}
		h, err := hdt.Build(d)
		if err != nil {
			return nil, err
		}
		tb, err := triplebit.Build(d)
		if err != nil {
			return nil, err
		}
		r3, err := rdf3x.Build(d)
		if err != nil {
			return nil, err
		}
		builds[name] = built{
			stores: map[string]Store{"2Tp": p2, "HDT-FoQ": h, "TripleBit": tb, "RDF-3X*": r3},
			sample: gen.SampleTriples(d, cfg.Queries, cfg.Seed+3),
		}
	}
	for _, idx := range names {
		row := []string{idx}
		for _, name := range table4Datasets {
			row = append(row, F(BitsPerTriple(builds[name].stores[idx])))
		}
		space.Add(row...)
	}
	for _, shape := range table5Shapes {
		for _, idx := range names {
			row := []string{shape.String(), idx}
			for _, name := range table4Datasets {
				b := builds[name]
				pats := gen.PatternWorkload(b.sample, shape)
				ns, _ := TimePatterns(b.stores[idx], pats, cfg.Runs)
				row = append(row, F(ns))
			}
			speed.Add(row...)
		}
	}
	return []*Table{space, speed}, nil
}

// Table6 reproduces Table 6: the indexes execute the identical serial
// decomposition of the WatDiv and LUBM query logs into atomic selection
// patterns (obtained with the selectivity-driven planner, as the paper
// does with TripleBit's planner).
func Table6(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	t := &Table{
		Title:  "Table 6: bits/triple and seconds/query on the WatDiv and LUBM query logs",
		Header: []string{"index", "watdiv b/t", "watdiv s/query", "lubm b/t", "lubm s/query"},
	}
	type ds struct {
		d       *core.Dataset
		queries []sparql.Query
	}
	wd := gen.WatDiv(cfg.Triples/17+10, cfg.Seed)
	lu := gen.LUBM(cfg.Triples/3500+2, cfg.Seed)
	numQ := 40
	sets := []ds{
		{wd.Dataset, gen.WatDivQueries(wd, numQ, cfg.Seed+4)},
		{lu.Dataset, gen.LUBMQueries(lu, numQ, cfg.Seed+5)},
	}

	type row struct {
		name  string
		cells []string
	}
	rows := []row{{name: "2Tp"}, {name: "HDT-FoQ"}, {name: "TripleBit"}, {name: "RDF-3X*"}}
	for _, set := range sets {
		p2, err := core.Build(set.d, core.Layout2Tp)
		if err != nil {
			return nil, err
		}
		h, err := hdt.Build(set.d)
		if err != nil {
			return nil, err
		}
		tb, err := triplebit.Build(set.d)
		if err != nil {
			return nil, err
		}
		r3, err := rdf3x.Build(set.d)
		if err != nil {
			return nil, err
		}
		// Decompose every query once with the 2Tp index; replay the same
		// pattern sequence on every store.
		var patterns []core.Pattern
		for _, q := range set.queries {
			ps, err := sparql.Decompose(q, p2)
			if err != nil {
				return nil, err
			}
			patterns = append(patterns, ps...)
		}
		stores := []Store{p2, h, tb, r3}
		for i, st := range stores {
			el, _ := TimeTotal(st, patterns, cfg.Runs)
			secPerQuery := el.Seconds() / float64(len(set.queries))
			rows[i].cells = append(rows[i].cells,
				F(BitsPerTriple(st)), fmt.Sprintf("%.6f", secPerQuery))
		}
	}
	for _, r := range rows {
		t.Add(append([]string{r.name}, r.cells...)...)
	}
	t.Note = fmt.Sprintf("%d queries per log; identical pattern decompositions replayed on every index", numQ)
	return []*Table{t}, nil
}
