package bench

import (
	"fmt"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/hdt"
	"rdfindexes/internal/rdf3x"
	"rdfindexes/internal/triplebit"
)

// TestSpacePinned pins the space of every layout and of both
// dictionaries on six of the paper's dataset shapes at a small fixed
// seed, and the space of the three baselines of Table 5 on two of them,
// so that a change to any codec shows as a changed figure rather than
// only as a changed order between layouts. The dictionaries hold the
// terms rdfgen -format nt writes for the dataset, as one sorted run;
// their bytes are the front-coded bytes dict.Space splits, offsets
// aside.
func TestSpacePinned(t *testing.T) {
	const triples, seed = 20_000, 1
	type baseline struct{ hdt, rdf3x, triplebit float64 } // bits/triple
	for _, tc := range []struct {
		preset    string
		bits      map[core.Layout]float64 // core.BitsPerTriple
		so, p     int                     // dictionary bytes
		baselines *baseline               // nil where not pinned
	}{
		// Store format v4's dictionaries, with verbatim bucket heads and
		// three length bytes per entry: dblp 39 195 and 130 bytes,
		// dbpedia 37 219 and 5 199.
		{"dblp", map[core.Layout]float64{core.Layout3T: 55.2396, core.LayoutCC: 49.488, core.Layout2Tp: 36.538, core.Layout2To: 38.8532}, 16886, 67,
			&baseline{hdt: 37.6544, rdf3x: 175.6788, triplebit: 54.7388}},
		{"dbpedia", map[core.Layout]float64{core.Layout3T: 64.786, core.LayoutCC: 58.8544, core.Layout2Tp: 41.29, core.Layout2To: 46.102}, 15949, 2271,
			&baseline{hdt: 37.9792, rdf3x: 190.0896, triplebit: 177.5068}},
		{"geonames", map[core.Layout]float64{core.Layout3T: 55.0408, core.LayoutCC: 49.3592, core.Layout2Tp: 36.3948, core.Layout2To: 38.8284}, 15647, 65, nil},
		{"freebase", map[core.Layout]float64{core.Layout3T: 59.4828, core.LayoutCC: 54.3096, core.Layout2Tp: 38.3772, core.Layout2To: 42.4324}, 10664, 1425, nil},
		{"lubm", map[core.Layout]float64{core.Layout3T: 53.486, core.LayoutCC: 46.898, core.Layout2Tp: 35.0728, core.Layout2To: 38.5568}, 11697, 47, nil},
		{"watdiv", map[core.Layout]float64{core.Layout3T: 48.7268, core.LayoutCC: 44.7472, core.Layout2Tp: 30.8852, core.Layout2To: 32.7688}, 5519, 183, nil},
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
		if b := tc.baselines; b != nil {
			for _, c := range []struct {
				name  string
				build func(*core.Dataset) (sized, error)
				want  float64
			}{
				{"hdt", func(d *core.Dataset) (sized, error) { return hdt.Build(d) }, b.hdt},
				{"rdf3x", func(d *core.Dataset) (sized, error) { return rdf3x.Build(d) }, b.rdf3x},
				{"triplebit", func(d *core.Dataset) (sized, error) { return triplebit.Build(d) }, b.triplebit},
			} {
				x, err := c.build(d)
				if err != nil {
					t.Fatal(err)
				}
				if got := float64(x.SizeBits()) / float64(x.NumTriples()); got != c.want {
					t.Errorf("%s %s: %v bits/triple, want %v", tc.preset, c.name, got, c.want)
				}
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

// sized is what the baselines' space takes: their bits over their
// triples.
type sized interface {
	SizeBits() uint64
	NumTriples() int
}
