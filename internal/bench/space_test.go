package bench

import (
	"fmt"
	"strings"
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
		// dbpedia 37 219 and 5 199. 2Tp before its SPO was
		// cross-compressed against POS (format v8): dblp 36.538,
		// dbpedia 41.29, geonames 36.3948, freebase 38.3772, lubm
		// 35.0728, watdiv 30.8852. Before the second-level pointers
		// of every layout were PEF, 2Tp's POS subjects Compact and its
		// SPO predicates EF (3T, CC, 2Tp, 2To): dblp 55.2396, 49.488,
		// 33.002, 38.8532; dbpedia 64.786, 58.8544, 37.714, 46.102;
		// geonames 55.0408, 49.3592, 34.0796, 38.8284; freebase
		// 59.4828, 54.3096, 34.758, 42.4324; lubm 53.486, 46.898,
		// 34.428, 38.5568; watdiv 48.7268, 44.7472, 28.7444, 32.7688.
		// Before SizeBits counted the bytes written rather than the
		// rank/select directories decode rebuilds (3T, CC, 2Tp, 2To;
		// hdt, triplebit): dblp 50.9872, 45.2356, 31.3264, 36.526;
		// 37.6544, 54.7388; dbpedia 60.7216, 54.79, 35.3032, 44.1908;
		// 37.9792, 177.5068; geonames 49.86, 44.1784, 31.4048,
		// 35.5148; freebase 55.768, 50.5948, 32.1528, 40.5476; lubm
		// 49.0688, 42.4808, 32.0768, 36.1356; watdiv 45.8384, 41.8588,
		// 26.6428, 31.4288. Counted that way, 2Tp before its POS
		// subjects could be ranks in PS: dblp 29.7088, dbpedia
		// 33.8784, geonames 29.5488, freebase 30.8384, lubm 30.4384,
		// watdiv 25.3568; the ranks pay on dbpedia, freebase and
		// watdiv, and elsewhere 2Tp keeps the IDs.
		{"dblp", map[core.Layout]float64{core.Layout3T: 50.3296, core.LayoutCC: 44.6016, core.Layout2Tp: 29.7088, core.Layout2To: 35.84}, 16886, 67,
			&baseline{hdt: 36.7584, rdf3x: 175.6788, triplebit: 54.286}},
		{"dbpedia", map[core.Layout]float64{core.Layout3T: 60.0096, core.LayoutCC: 54.1024, core.Layout2Tp: 32.7328, core.Layout2To: 43.5584}, 15949, 2271,
			&baseline{hdt: 37.3216, rdf3x: 190.0896, triplebit: 177.1708}},
		{"geonames", map[core.Layout]float64{core.Layout3T: 49.2032, core.LayoutCC: 43.5456, core.Layout2Tp: 29.5488, core.Layout2To: 34.96}, 15647, 65, nil},
		{"freebase", map[core.Layout]float64{core.Layout3T: 55.2352, core.LayoutCC: 50.0864, core.Layout2Tp: 30.5376, core.Layout2To: 40.0896}, 10664, 1425, nil},
		{"lubm", map[core.Layout]float64{core.Layout3T: 48.5312, core.LayoutCC: 41.968, core.Layout2Tp: 30.4384, core.Layout2To: 35.6512}, 11697, 47, nil},
		{"watdiv", map[core.Layout]float64{core.Layout3T: 45.3952, core.LayoutCC: 41.4432, core.Layout2Tp: 23.8016, core.Layout2To: 31.0624}, 5519, 183, nil},
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

// TestBreakdownLabelsRanks checks that the space breakdown names the
// levels that hold ranks: 2Tp's SPO third level, mapped against POS, and
// on this dbpedia-like data its POS third level, mapped against PS, whose
// rows follow; and no level of 3T.
func TestBreakdownLabelsRanks(t *testing.T) {
	tables, err := Breakdown(Config{Triples: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables, want 3T and 2Tp", len(tables))
	}
	var mapped []string
	for _, tb := range tables {
		for _, row := range tb.Rows {
			if strings.Contains(row[1], "ranks") {
				mapped = append(mapped, tb.Title+": "+row[0]+" "+row[1])
			}
		}
	}
	title := "Space breakdown (Section 3.1): share of the whole 2Tp index per trie level: "
	want := []string{title + "SPO nodes L2 (ranks vs POS)", title + "POS nodes L2 (ranks vs PS)"}
	if strings.Join(mapped, "|") != strings.Join(want, "|") {
		t.Fatalf("rows naming ranks: %q, want only %q", mapped, want)
	}
	var ps []string
	for _, row := range tables[1].Rows {
		if row[0] == "PS" {
			ps = append(ps, row[1]+" "+row[2])
		}
	}
	if strings.Join(ps, "|") != "pointers EF|subjects PEF" {
		t.Fatalf("2Tp's PS rows: %q", ps)
	}
}
