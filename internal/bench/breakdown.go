package bench

import (
	"fmt"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/seq"
)

// Breakdown reproduces the space-breakdown discussion of Section 3.1
// (the percentages in parentheses in Table 1): the share of the whole 3T
// index taken by each level of each trie, identifying the three levels
// that dominate — the third levels of SPO and POS and the second level
// of OSP — which are precisely the targets of Sections 3.2 and 3.3. A
// second table breaks the served layout, 2Tp, down the same way; its
// SPO third level holds ranks among the predicate's objects in POS
// (Section 3.2), and its row says so. Every row names the codec its
// sequence is stored with.
func Breakdown(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, layout := range []core.Layout{core.Layout3T, core.Layout2Tp} {
		x, err := core.Build(d, layout)
		if err != nil {
			return nil, err
		}
		tables = append(tables, levelBreakdown(x, d.Len()))
	}
	return tables, nil
}

// levelBreakdown tabulates each level of each stored trie of x as a
// share of the whole index.
func levelBreakdown(x core.Index, triples int) *Table {
	total := float64(x.SizeBits())
	n := float64(triples)
	t := &Table{
		Title:  fmt.Sprintf("Space breakdown (Section 3.1): share of the whole %s index per trie level", x.Layout()),
		Note:   "nodes vs pointers per level; the paper reports pointers under 9% in total",
		Header: []string{"trie", "sequence", "codec", "bits/triple", "% of index"},
	}
	var pointerShare float64
	for perm := core.Perm(0); perm < core.NumPerms; perm++ {
		tr := x.Trie(perm)
		if tr == nil {
			continue
		}
		third := "nodes L2"
		if ref, ok := core.CrossReference(x, perm); ok {
			third = "nodes L2 (ranks vs " + ref.String() + ")"
		}
		rows := []struct {
			name    string
			s       seq.Sequence
			pointer bool
		}{
			{"pointers L0", tr.Pointers(0), true},
			{"nodes L1", tr.Nodes(1), false},
			{"pointers L1", tr.Pointers(1), true},
			{third, tr.Nodes(2), false},
		}
		for _, r := range rows {
			bits := r.s.SizeBits()
			share := float64(bits) / total * 100
			if r.pointer {
				pointerShare += share
			}
			t.Add(perm.String(), r.name, r.s.Kind().String(), F(float64(bits)/n), fmt.Sprintf("%.2f%%", share))
		}
	}
	t.Add("all", "pointer total", "", "", fmt.Sprintf("%.2f%%", pointerShare))
	return t
}
