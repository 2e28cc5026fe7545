package bench

import (
	"fmt"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/gen"
)

// TestSpacePinned pins the space of every layout and of both
// dictionaries on two of the paper's dataset shapes at a small fixed
// seed, so that a change to any codec shows as a changed figure rather
// than only as a changed order between layouts. The dictionaries hold
// the terms rdfgen -format nt writes for the dataset; their bytes are
// the front-coded bytes dict.Space splits.
func TestSpacePinned(t *testing.T) {
	const triples, seed = 20_000, 1
	for _, tc := range []struct {
		preset string
		bits   map[core.Layout]float64 // core.BitsPerTriple
		so, p  int                     // dictionary bytes
	}{
		// Store format v4's dictionaries, with verbatim bucket heads and
		// three length bytes per entry: dblp 39 195 and 130 bytes,
		// dbpedia 37 219 and 5 199.
		{"dblp", map[core.Layout]float64{core.Layout3T: 55.2396, core.LayoutCC: 49.488, core.Layout2Tp: 36.538, core.Layout2To: 38.8532}, 16886, 67},
		{"dbpedia", map[core.Layout]float64{core.Layout3T: 64.786, core.LayoutCC: 58.8544, core.Layout2Tp: 41.29, core.Layout2To: 46.102}, 15949, 2271},
	} {
		d, err := gen.GeneratePreset(tc.preset, triples, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, layout := range []core.Layout{core.Layout3T, core.LayoutCC, core.Layout2Tp, core.Layout2To} {
			x, err := core.Build(d, layout)
			if err != nil {
				t.Fatal(err)
			}
			if got := core.BitsPerTriple(x); got != tc.bits[layout] {
				t.Errorf("%s %s: %v bits/triple, want %v", tc.preset, layout, got, tc.bits[layout])
			}
		}
		var so, p []string
		for _, tr := range d.Triples {
			so = append(so, fmt.Sprintf("<http://gen/s%d>", tr.S), fmt.Sprintf("<http://gen/o%d>", tr.O))
			p = append(p, fmt.Sprintf("<http://gen/p%d>", tr.P))
		}
		for _, c := range []struct {
			name  string
			terms []string
			want  int
		}{{"SO", so, tc.so}, {"P", p, tc.p}} {
			dt, err := dict.FromUnsorted(c.terms, dict.DefaultBucketSize)
			if err != nil {
				t.Fatal(err)
			}
			if sp := dt.Space(); sp.Samples+sp.Heads+sp.Entries != c.want {
				t.Errorf("%s %s dictionary: %d bytes (%+v), want %d", tc.preset, c.name, sp.Samples+sp.Heads+sp.Entries, sp, c.want)
			}
		}
	}
}
