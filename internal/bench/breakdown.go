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
// of OSP — which are precisely the targets of Sections 3.2 and 3.3.
func Breakdown(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	x, err := core.Build(d, core.Layout3T)
	if err != nil {
		return nil, err
	}
	total := float64(x.SizeBits())
	n := float64(d.Len())

	t := &Table{
		Title:  "Space breakdown (Section 3.1): share of the whole 3T index per trie level",
		Note:   "nodes vs pointers per level; the paper reports pointers under 9% in total",
		Header: []string{"trie", "sequence", "bits/triple", "% of index"},
	}
	var pointerShare float64
	for _, perm := range []core.Perm{core.PermSPO, core.PermPOS, core.PermOSP} {
		tr := x.Trie(perm)
		rows := []struct {
			name string
			bits uint64
		}{
			{"pointers L0", tr.Pointers(0).SizeBits()},
			{"nodes L1", tr.Nodes(1).SizeBits()},
			{"pointers L1", tr.Pointers(1).SizeBits()},
			{"nodes L2", tr.Nodes(2).SizeBits()},
		}
		for _, r := range rows {
			share := float64(r.bits) / total * 100
			if r.name == "pointers L0" || r.name == "pointers L1" {
				pointerShare += share
			}
			t.Add(perm.String(), r.name, F(float64(r.bits)/n), fmt.Sprintf("%.2f%%", share))
		}
	}
	t.Add("all", "pointer total", "", fmt.Sprintf("%.2f%%", pointerShare))
	return []*Table{t}, nil
}
