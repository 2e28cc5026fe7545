package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
)

const (
	xsdInteger = "http://www.w3.org/2001/XMLSchema#integer"
	xsdDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
)

// numericNT is N-Triples whose objects include xsd:integer literals,
// negative ones too, xsd:decimal literals at scales 2 and 1, and the
// forms that stay strings: non-canonical integers, integers past 64
// bits, and other datatypes.
func numericNT(rng *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		var o string
		switch v := rng.Int63n(20000) - 5000; rng.Intn(10) {
		case 0, 1, 2:
			o = fmt.Sprintf(`"%d"^^<%s>`, v, xsdInteger)
		case 3, 4, 5:
			o = fmt.Sprintf(`"%s"^^<%s>`, big.NewRat(v, 100).FloatString(2), xsdDecimal)
		case 6:
			o = fmt.Sprintf(`"%s"^^<%s>`, big.NewRat(v, 10).FloatString(1), xsdDecimal)
		case 7:
			o = []string{
				fmt.Sprintf(`"0%d"^^<%s>`, v&0xff, xsdInteger),
				fmt.Sprintf(`"+%d"^^<%s>`, v&0xff, xsdInteger),
				fmt.Sprintf(`"%d00000000000000000000"^^<%s>`, v, xsdInteger),
				fmt.Sprintf(`"%d"^^<http://www.w3.org/2001/XMLSchema#int>`, v),
			}[v&3]
		default:
			o = fmt.Sprintf("<http://ex/o%d>", v&0x3ff)
		}
		fmt.Fprintf(&sb, "<http://ex/s%d> <http://ex/p%d> %s .\n", rng.Intn(n/4+1), rng.Intn(4), o)
	}
	return sb.String()
}

// buildStore parses nt, builds the layout and writes it to path.
func buildStore(t *testing.T, nt string, layout core.Layout, path string) {
	t.Helper()
	if err := Write(path, encodeNT(t, nt, layout)); err != nil {
		t.Fatal(err)
	}
}

// oracleValue parses a literal the way the sections qualify it, with
// math/big instead of the dictionary's parser: the value scaled by
// 10^scale, when formatting it back at the scale gives the lexical
// form byte for byte and it fits an int64.
func oracleValue(lex string, scale int) (int64, bool) {
	r, ok := new(big.Rat).SetString(lex)
	if !ok || r.FloatString(scale) != lex {
		return 0, false
	}
	v := new(big.Int).Mul(r.Num(), new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(scale)), nil))
	v.Quo(v, r.Denom())
	return v.Int64(), v.IsInt64()
}

// TestSelectObjectRangeOnNumericSections builds a store from N-Triples
// with numeric literals and, on all four layouts, compares range
// queries through each numeric section — one per datatype and scale — a value interval turned into
// an ID interval, then SelectObjectRange — with an oracle that parses
// every literal of the input.
func TestSelectObjectRangeOnNumericSections(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nt := numericNT(rng, 3000)
	statements, err := rdf.ParseAll(strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []core.Layout{core.Layout3T, core.LayoutCC, core.Layout2Tp, core.Layout2To} {
		t.Run(layout.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "num.idx")
			buildStore(t, nt, layout, path)
			st, err := Read(path)
			if err != nil {
				t.Fatal(err)
			}
			secs := st.NumericSections()
			if len(secs) != 3 || secs[0].Datatype != dict.Integer || secs[1].Datatype != dict.Decimal || secs[1].Scale != 1 || secs[2].Datatype != dict.Decimal || secs[2].Scale != 2 {
				t.Fatalf("sections %+v, want xsd:integer and xsd:decimal at scales 1 and 2", secs)
			}
			x := st.Index.(core.RangeSelecter)
			for q := 0; q < 300; q++ {
				sec := secs[q%3]
				lo := rng.Int63n(24000) - 7000
				hi := lo + rng.Int63n(3000)
				p := fmt.Sprintf("<http://ex/p%d>", rng.Intn(4))
				datatype := map[dict.Datatype]string{dict.Integer: xsdInteger, dict.Decimal: xsdDecimal}[sec.Datatype]
				var want []string
				for _, s := range statements {
					if s.P.String() != p || s.O.Kind != rdf.Literal || s.O.Qualifier != datatype {
						continue
					}
					if v, ok := oracleValue(s.O.Value, sec.Scale); ok && v >= lo && v <= hi {
						want = append(want, s.String())
					}
				}
				var got []string
				if idLo, idHi, ok := sec.IDRange(lo, hi); ok {
					pid, err := st.ParseTerm(p, true)
					if err != nil {
						t.Fatal(err)
					}
					it := x.SelectObjectRange(pid, idLo, idHi)
					for tr, ok := it.Next(); ok; tr, ok = it.Next() {
						got = append(got, fmt.Sprintf("%s %s %s .", st.Render(tr.S), st.RenderPredicate(tr.P), st.Render(tr.O)))
					}
				}
				sort.Strings(want)
				want = compactStrings(want)
				sort.Strings(got)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%v [%d, %d] on %s: got %d triples, want %d\ngot  %q\nwant %q", sec.Datatype, lo, hi, p, len(got), len(want), got, want)
				}
			}
		})
	}
}

// compactStrings drops repeats from a sorted slice: the input may state
// a triple twice.
func compactStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestNumericInsertMerge inserts numeric literals through the WAL on
// every layout — values new to their section, a decimal of the other
// scale, a non-canonical integer — and requires each to land where a
// fresh build puts it after the merge: every canonical one in the
// section of its datatype and scale. The merged file equals the fresh
// build's byte for byte. A section term as a subject, as a term or by
// its ID, is refused with ErrTerm.
func TestNumericInsertMerge(t *testing.T) {
	nt := numericNT(rand.New(rand.NewSource(9)), 400)
	inserts := [][3]string{
		{"<http://ex/new>", "<http://ex/p0>", `"123456"^^<` + xsdInteger + `>`},
		{"<http://ex/new>", "<http://ex/p1>", `"-98765.43"^^<` + xsdDecimal + `>`},
		{"<http://ex/new>", "<http://ex/p2>", `"7.5"^^<` + xsdDecimal + `>`},
		{"<http://ex/new>", "<http://ex/p3>", `"0042"^^<` + xsdInteger + `>`},
	}
	inserted := nt
	for _, tr := range inserts {
		inserted += strings.Join(tr[:], " ") + " .\n"
	}
	for _, layout := range []core.Layout{core.Layout3T, core.LayoutCC, core.Layout2Tp, core.Layout2To} {
		t.Run(layout.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "num.idx")
			buildStore(t, nt, layout, path)
			m, err := OpenMutable(path, -1)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			secs := m.View().NumericSections()
			if len(secs) == 0 {
				t.Fatal("no numeric sections")
			}
			base := secs[0].R.Base()
			subject, _ := m.View().Dicts.SO.Extract(int(base))
			for _, s := range []string{subject, fmt.Sprint(base), `"plain"`} {
				if _, err := m.Insert(s, "<http://ex/p0>", "<http://ex/o1>"); !errors.Is(err, ErrTerm) {
					t.Fatalf("insert of subject %s: %v, want ErrTerm", s, err)
				}
			}
			for _, tr := range inserts {
				if res, err := m.Insert(tr[0], tr[1], tr[2]); err != nil || !res.Changed {
					t.Fatalf("insert %v: %+v, %v", tr, res, err)
				}
			}
			if err := m.Merge(); err != nil {
				t.Fatal(err)
			}
			st := m.View()
			d := st.Dicts.SO.(*dict.Overlay).Base()
			inSection := func(term string) bool {
				id, ok := d.Locate(term)
				if !ok {
					t.Fatalf("Locate(%s) failed after the merge", term)
				}
				return id >= int(st.NumericSections()[0].R.Base())
			}
			for i, want := range []bool{true, true, true, false} {
				if got := inSection(inserts[i][2]); got != want {
					t.Errorf("%s in a section: %v, want %v", inserts[i][2], got, want)
				}
			}
			built := filepath.Join(dir, "built.idx")
			buildStore(t, inserted, layout, built)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(built)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("merged file (%d bytes) differs from the built one (%d bytes)", len(got), len(want))
			}
		})
	}
}
