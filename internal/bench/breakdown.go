package bench

import (
	"fmt"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
)

// Breakdown reproduces the space-breakdown discussion of Section 3.1
// (the percentages in parentheses in Table 1): the share of the whole 3T
// index taken by each level of each trie, identifying the three levels
// that dominate — the third levels of SPO and POS and the second level
// of OSP — which are precisely the targets of Sections 3.2 and 3.3. A
// second table breaks the served layout, 2Tp, down the same way; its
// SPO third level holds ranks among the predicate's objects in POS, and
// its POS third level ranks among the predicate's subjects in PS where
// those pay (Section 3.2): their rows say so, and PS has rows of its
// own. Every row names the codec its sequence is stored with.
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

// levelBreakdown tabulates each sequence x stores, each level of each
// trie and PS's two, as a share of the whole index.
func levelBreakdown(x core.Index, triples int) *Table {
	total := float64(x.SizeBits())
	n := float64(triples)
	t := &Table{
		Title:  fmt.Sprintf("Space breakdown (Section 3.1): share of the whole %s index per trie level", x.Layout()),
		Note:   "nodes vs pointers per level; the paper reports pointers under 9% in total",
		Header: []string{"trie", "sequence", "codec", "bits/triple", "% of index"},
	}
	var pointerShare float64
	for _, s := range core.Sequences(x) {
		part := s.Part
		if s.Ranks != "" {
			part += " (ranks vs " + s.Ranks + ")"
		}
		bits := s.Seq.SizeBits()
		share := float64(bits) / total * 100
		if s.Pointer {
			pointerShare += share
		}
		t.Add(s.Owner, part, s.Seq.Kind().String(), F(float64(bits)/n), fmt.Sprintf("%.2f%%", share))
	}
	t.Add("all", "pointer total", "", "", fmt.Sprintf("%.2f%%", pointerShare))
	return t
}
