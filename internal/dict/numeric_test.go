package dict

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/ef"
)

// typed returns the term of lexical form lex with datatype dt.
func typed(lex, dt string) string {
	return `"` + lex + `"^^<http://www.w3.org/2001/XMLSchema#` + dt + `>`
}

// numeral reports whether s is a canonical numeric literal.
func numeral(s string) bool {
	_, _, _, ok := parseNumeric(s)
	return ok
}

// canonical is the qualification rule computed with math/big instead of
// parseNumeric: the lexical form of a numeric term qualifies when it is
// decimal digits, a '-' and, for xsd:decimal, one '.', that
// formatting its value at its own scale gives back byte for byte, with
// at most MaxScale fraction digits and the scaled value inside an int64.
func canonical(lex string, dt Datatype) (scale int, v int64, ok bool) {
	if lex == "" || strings.Trim(lex, "-.0123456789") != "" {
		return 0, 0, false // math/big reads exponents and fractions too
	}
	if i := strings.IndexByte(lex, '.'); i >= 0 {
		if dt == Integer {
			return 0, 0, false
		}
		scale = len(lex) - i - 1
	}
	r, good := new(big.Rat).SetString(lex)
	if !good || scale > MaxScale || r.FloatString(scale) != lex {
		return 0, 0, false
	}
	x := new(big.Int).Mul(r.Num(), new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(scale)), nil))
	x.Quo(x, r.Denom())
	return scale, x.Int64(), x.IsInt64()
}

func TestParseNumeric(t *testing.T) {
	for _, tc := range []struct {
		term  string
		dt    Datatype
		scale int
		v     int64
		ok    bool
	}{
		{typed("0", "integer"), Integer, 0, 0, true},
		{typed("42", "integer"), Integer, 0, 42, true},
		{typed("-7", "integer"), Integer, 0, -7, true},
		{typed("9223372036854775807", "integer"), Integer, 0, math.MaxInt64, true},
		{typed("-9223372036854775808", "integer"), Integer, 0, math.MinInt64, true},
		{typed("9223372036854775808", "integer"), 0, 0, 0, false},
		{typed("-9223372036854775809", "integer"), 0, 0, 0, false},
		{typed("007", "integer"), 0, 0, 0, false},
		{typed("+7", "integer"), 0, 0, 0, false},
		{typed("-0", "integer"), 0, 0, 0, false},
		{typed("", "integer"), 0, 0, 0, false},
		{typed("-", "integer"), 0, 0, 0, false},
		{typed("1.0", "integer"), 0, 0, 0, false},
		{typed("1e3", "integer"), 0, 0, 0, false},
		{typed("12.5", "decimal"), Decimal, 1, 125, true},
		{typed("12.50", "decimal"), Decimal, 2, 1250, true},
		{typed("-0.5", "decimal"), Decimal, 1, -5, true},
		{typed("0.0", "decimal"), Decimal, 1, 0, true},
		{typed("12", "decimal"), Decimal, 0, 12, true},
		{typed("922337203685477580.7", "decimal"), Decimal, 1, math.MaxInt64, true},
		{typed("0.123456789012345678", "decimal"), Decimal, 18, 123456789012345678, true},
		{typed("-9.223372036854775808", "decimal"), Decimal, 18, math.MinInt64, true},
		{typed("0.1234567890123456789", "decimal"), 0, 0, 0, false},
		{typed("922337203685477580.8", "decimal"), 0, 0, 0, false},
		{typed("-0.0", "decimal"), 0, 0, 0, false},
		{typed("00.5", "decimal"), 0, 0, 0, false},
		{typed("1.", "decimal"), 0, 0, 0, false},
		{typed(".5", "decimal"), 0, 0, 0, false},
		{typed("1.2.3", "decimal"), 0, 0, 0, false},
		{typed("7", "int"), 0, 0, 0, false},
		{typed("7", "double"), 0, 0, 0, false},
		{`"7"`, 0, 0, 0, false},
		{`"7"@en`, 0, 0, 0, false},
		{"<http://ex/7>", 0, 0, 0, false},
		{"", 0, 0, 0, false},
	} {
		dt, scale, v, ok := parseNumeric(tc.term)
		if ok != tc.ok || ok && (dt != tc.dt || scale != tc.scale || v != tc.v) {
			t.Errorf("parseNumeric(%s) = (%v, %d, %d, %v), want (%v, %d, %d, %v)", tc.term, dt, scale, v, ok, tc.dt, tc.scale, tc.v, tc.ok)
		}
		if bdt, bscale, bv, bok := parseNumeric([]byte(tc.term)); bdt != dt || bscale != scale || bv != v || bok != ok {
			t.Errorf("parseNumeric over bytes of %s differs from over the string", tc.term)
		}
		if ok {
			if got := string(appendNumeric(nil, dt, scale, v)); got != tc.term {
				t.Errorf("appendNumeric(%v, %d, %d) = %s, want %s", dt, scale, v, got, tc.term)
			}
		}
	}
}

// FuzzNumericLexical feeds arbitrary lexical forms, as both numeric
// datatypes and others: parseNumeric and appendNumeric never panic, a
// qualifying term formats back to itself byte for byte, and a form
// qualifies exactly when the math/big rule says it round-trips.
func FuzzNumericLexical(f *testing.F) {
	for _, lex := range []string{"0", "42", "-7", "007", "+7", "-0", "-0.0", "0.0", "12.50", "1.",
		".5", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"922337203685477580.7", "0.1234567890123456789", "1e3", "1/2", "", "-", "١٢"} {
		f.Add(lex, uint8(0))
		f.Add(lex, uint8(1))
	}
	f.Add("5", uint8(2))
	f.Fuzz(func(t *testing.T, lex string, kind uint8) {
		names := []string{"integer", "decimal", "int", "double"}
		term := typed(lex, names[int(kind)%len(names)])
		dt, scale, v, ok := parseNumeric(term)
		wantScale, wantV, want := 0, int64(0), false
		if kind%4 < 2 {
			wantScale, wantV, want = canonical(lex, Datatype(kind%4))
		}
		if ok != want || ok && (dt != Datatype(kind%4) || scale != wantScale || v != wantV) {
			t.Fatalf("parseNumeric(%q) = (%v, %d, %d, %v), the math/big rule (%d, %d, %v)", term, dt, scale, v, ok, wantScale, wantV, want)
		}
		if ok {
			if got := appendNumeric([]byte("x"), dt, scale, v); string(got) != "x"+term {
				t.Fatalf("appendNumeric(%v, %d, %d) = %q, want %q", dt, scale, v, got[1:], term)
			}
		}
	})
}

// numericTerms is a second run with every numeric form: canonical
// integers and decimals of two scales, negative ones, non-canonical
// forms and other datatypes, among plain strings.
func numericTerms() []string {
	var terms []string
	for i := -20; i < 40; i++ {
		terms = append(terms, typed(fmt.Sprint(i*37), "integer"), typed(big.NewRat(int64(i*13), 100).FloatString(2), "decimal"))
	}
	for i := 0; i < 15; i++ {
		terms = append(terms, typed(big.NewRat(int64(i), 10).FloatString(1), "decimal"), typed(fmt.Sprintf("0%d", i), "integer"),
			typed(fmt.Sprint(i), "int"), fmt.Sprintf("<http://ex/e%d>", i), fmt.Sprintf(`"label %d"@en`, i))
	}
	return append(terms, typed("-0", "integer"), typed("99999999999999999999", "integer"), typed("-0.00", "decimal"))
}

// TestNumericSections builds a dictionary whose second run holds every
// numeric form and checks its layout: the strings first, sorted, then
// one section per datatype and scale — the integers, the scale-1 and
// the scale-2 decimals — each by value; the non-canonical forms and
// other datatypes are strings. Check passes, and every term extracts
// and locates.
func TestNumericSections(t *testing.T) {
	second := numericTerms()
	first := []string{"<http://ex/s>", "_:b"}
	d, err := NewSplit(first, second, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	secs := d.Sections()
	type kind struct {
		dt         Datatype
		scale, len int
	}
	var got []kind
	for i, s := range secs {
		got = append(got, kind{s.Datatype, s.Scale, s.Len()})
		end := d.Len()
		if i+1 < len(secs) {
			end = secs[i+1].Base
		}
		if s.Base+s.Len() != end {
			t.Fatalf("section %d spans [%d, %d), not up to %d", i, s.Base, s.Base+s.Len(), end)
		}
	}
	if want := []kind{{Integer, 0, 60}, {Decimal, 1, 15}, {Decimal, 2, 60}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sections %v, want %v", got, want)
	}
	prev := int64(math.MinInt64)
	for id := d.FirstRun(); id < d.Len(); id++ {
		s, _ := d.Extract(id)
		sdt, scale, v, ok := parseNumeric(s)
		if inSection := id >= secs[0].Base; ok != inSection {
			t.Fatalf("ID %d (%s): numeric %v, in a section %v", id, s, ok, inSection)
		}
		for _, sec := range secs {
			if id == sec.Base {
				prev = math.MinInt64
			}
			if ok && id >= sec.Base && id < sec.Base+sec.Len() && (sdt != sec.Datatype || scale != sec.Scale) {
				t.Fatalf("ID %d (%s) in the %v section at scale %d", id, s, sec.Datatype, sec.Scale)
			}
		}
		if ok {
			if v <= prev {
				t.Fatalf("ID %d (%s) does not follow value %d", id, s, prev)
			}
			prev = v
		}
	}
	all := map[string]bool{}
	for _, s := range append(first, second...) {
		all[s] = true
	}
	roundTrip(t, d, all)
	if got := Arrange(second); len(got) != len(second) {
		t.Fatalf("Arrange returned %d terms of %d", len(got), len(second))
	}
	for i, s := range Arrange(second) {
		if id, ok := d.Locate(s); !ok || id != d.FirstRun()+i {
			t.Fatalf("Arrange puts %s at %d, Locate says (%d, %v)", s, d.FirstRun()+i, id, ok)
		}
	}
	// A numeral absent from its section, or of a scale without one, is
	// absent.
	for _, s := range []string{typed("38", "integer"), typed("0.05", "decimal"), typed("0.125", "decimal")} {
		if id, ok := d.Locate(s); ok {
			t.Errorf("Locate(%s) = %d, want absent", s, id)
		}
	}
	// A numeral in the first run, and one given twice, are refused.
	if _, err := NewSplit([]string{typed("38", "integer")}, second, 4); err == nil || !strings.Contains(err.Error(), "numeric literal") {
		t.Fatalf("NewSplit = %v, want an integer in the first run refused", err)
	}
	if _, err := NewSplit(nil, append(second, typed("37", "integer")), 4); err == nil {
		t.Fatal("NewSplit accepted an integer twice")
	}
}

// TestSpaceSums requires Space's parts to sum to SizeBits()/8 - 16 with
// and without numeric sections.
func TestSpaceSums(t *testing.T) {
	for _, second := range [][]string{nil, numericTerms()} {
		d, err := NewSplit(uriLike(100), second, 4)
		if err != nil {
			t.Fatal(err)
		}
		sp := d.Space()
		if sum := sp.Samples + sp.Heads + sp.Entries + sp.Offsets + sp.Numeric; uint64(sum) != d.SizeBits()/8-16 {
			t.Errorf("parts sum to %d, SizeBits()/8 - 16 = %d", sum, d.SizeBits()/8-16)
		}
		if (sp.Numeric > 0) != (second != nil) {
			t.Errorf("numeric bytes %d with %d second-run terms", sp.Numeric, len(second))
		}
	}
}

// TestEncodeWithoutSections pins that a dictionary without numeric
// literals stores the bytes of format v6 after its header: the string
// counts, the bucket size, a zero section count, then the runs.
func TestEncodeWithoutSections(t *testing.T) {
	d, err := NewSplit(uriLike(50), []string{`"a"`, `"b"@en`, typed("7", "int")}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	w.Uvarint(uint64(d.Len()))
	w.Uvarint(uint64(d.FirstRun()))
	w.Uvarint(4)
	w.Uvarint(0)
	for _, r := range d.runs {
		w.Bytes(r.samples)
		w.Bytes(r.sampleAt)
		w.Bytes(r.data)
		w.Bytes(r.offsets)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := encoded(t, d); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("encoding of %d bytes differs from the header and the runs (%d bytes)", len(got), buf.Len())
	}
}

// TestCheckSections crafts dictionaries that Decode accepts but whose
// sections the access paths could not trust, and requires Check to
// name the ID: values out of order, and a canonical numeric literal
// among the strings of either run, of a section's kind or another,
// which Locate would look for in a section only.
func TestCheckSections(t *testing.T) {
	build := func(first, second []string, nums ...int64) *Dict {
		b := newBuilder(4)
		for r, strs := range [2][]string{first, second} {
			for _, s := range strs {
				if err := add(b, r, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, v := range nums {
			if err := b.addNumeric(sectionKind(Integer, 0), v); err != nil {
				t.Fatal(err)
			}
		}
		return b.finish()
	}
	repeated := build(nil, []string{"<a>"}, 3, 5, 8)
	repeated.secs[0].Values = ef.New([]uint64{0, 2, 2})
	for _, tc := range []struct {
		name string
		d    *Dict
		want string
	}{
		{"repeated value", repeated, "dict ID 3: value 2"},
		{"integer among the strings", build(nil, []string{typed("5", "integer"), "<a>"}, 7), "dict ID 0: a string of xsd:integer at scale 0"},
		{"integer in the first run", build([]string{typed("7", "integer")}, []string{"<a>"}, 7), "dict ID 0: a string of xsd:integer at scale 0"},
		{"decimal without a section", build([]string{"<a>"}, []string{typed("1.5", "decimal"), "<b>"}, 7), "dict ID 1: a string of xsd:decimal at scale 1"},
	} {
		err := tc.d.Check()
		if !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want a corruption error with %q", tc.name, err, tc.want)
		}
	}
	// A non-canonical numeral among the strings is fine, and so is a
	// canonical one in a dictionary without sections.
	if err := build(nil, []string{typed("007", "integer")}, 7).Check(); err != nil {
		t.Errorf("Check of a non-canonical string: %v", err)
	}
	if err := build([]string{typed("7", "integer")}, nil).Check(); err != nil {
		t.Errorf("Check of a numeral without sections: %v", err)
	}
}

// TestDecodeSections refuses section headers that Decode can see are
// wrong: more sections than kinds, an unknown datatype, a scale on
// integers or past MaxScale, sections out of datatype and scale order
// or two of one kind, an empty one, and values past an int64.
func TestDecodeSections(t *testing.T) {
	type sec struct {
		dt, scale byte
		min       int64
		values    []uint64
	}
	one := []uint64{0, 3}
	var tooMany []sec
	for range sectionKinds + 1 {
		tooMany = append(tooMany, sec{0, 0, 0, one})
	}
	for _, tc := range []struct {
		name string
		secs []sec
		want string
	}{
		{"more sections than kinds", tooMany, "21 numeric sections"},
		{"unknown datatype", []sec{{2, 0, 0, one}}, "datatype(2)"},
		{"integer with a scale", []sec{{0, 1, 0, one}}, "xsd:integer at scale 1"},
		{"scale past MaxScale", []sec{{1, MaxScale + 1, 0, one}}, "scale 19"},
		{"decimal before integer", []sec{{1, 1, 0, one}, {0, 0, 0, one}}, "xsd:integer at scale 0 after one of xsd:decimal at scale 1"},
		{"scale 2 before scale 1", []sec{{1, 2, 0, one}, {1, 1, 0, one}}, "xsd:decimal at scale 1 after one of xsd:decimal at scale 2"},
		{"two of one scale", []sec{{0, 0, 0, one}, {1, 3, 0, one}, {1, 3, 9, one}}, "xsd:decimal at scale 3 after one of xsd:decimal at scale 3"},
		{"no values", []sec{{0, 0, 0, nil}}, "no values"},
		{"past an int64", []sec{{0, 0, math.MaxInt64 - 2, one}}, "passes an int64"},
	} {
		var buf bytes.Buffer
		w := codec.NewWriter(&buf)
		n := 0
		for _, s := range tc.secs {
			n += len(s.values)
		}
		w.Uvarint(uint64(n))
		w.Uvarint(0)
		w.Uvarint(4)
		w.Uvarint(uint64(len(tc.secs)))
		for range 2 {
			w.Bytes(nil)
			w.Bytes(nil)
			w.Bytes(nil)
			w.Bytes(binary4(0))
		}
		for _, s := range tc.secs {
			w.Byte(s.dt)
			w.Byte(s.scale)
			w.Uint64(uint64(s.min))
			ef.New(s.values).Encode(w)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(codec.NewBytesReader(buf.Bytes(), nil)); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode = %v, want a corruption error with %q", tc.name, err, tc.want)
		}
	}
}

// binary4 is one little-endian uint32.
func binary4(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }

// TestFoldNumeric folds overlays into a base with sections and
// requires the result to encode byte for byte as NewSplit over the
// same runs, the ID map to agree with Locate and to stay monotone
// within every section: new values join their sections, and decimals
// of a scale the base lacks open a section of their own, every base
// section staying as it was. A fold that would send a numeric literal
// to the first run — a base section term or a new one — is refused.
func TestFoldNumeric(t *testing.T) {
	second := numericTerms()
	base, err := NewSplit([]string{"<http://ex/s>"}, second, 4)
	if err != nil {
		t.Fatal(err)
	}
	inFirst := func(id int) bool { return id < base.FirstRun() }
	for _, tc := range []struct {
		name   string
		added  []string
		scales []int // the decimal sections' scales after the fold
	}{
		{"new values", []string{typed("1000000", "integer"), typed("-3.33", "decimal"), typed("7.5", "decimal"), typed("12", "integer"), "<http://ex/z>"}, []int{1, 2}},
		{"new scale", func() []string {
			var ts []string
			for i := 0; i < 80; i++ {
				ts = append(ts, typed(big.NewRat(int64(i*7+1000), 1000).FloatString(3), "decimal"))
			}
			return ts
		}(), []int{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOverlay(base)
			for _, s := range tc.added {
				o.Add(s)
			}
			d, mapping, err := o.Fold(4, inFirst)
			if err != nil {
				t.Fatal(err)
			}
			var runs [2][]string
			for id := 0; id < o.Len(); id++ {
				s, _ := o.Extract(id)
				if inFirst(id) {
					runs[0] = append(runs[0], s)
				} else {
					runs[1] = append(runs[1], s)
				}
			}
			ref, err := NewSplit(runs[0], runs[1], 4)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encoded(t, d), encoded(t, ref)) {
				t.Fatal("folded dictionary differs from NewSplit's")
			}
			var scales []int
			for _, s := range d.secs[1:] {
				scales = append(scales, s.Scale)
			}
			if fmt.Sprint(scales) != fmt.Sprint(tc.scales) {
				t.Fatalf("decimal scales %v, want %v", scales, tc.scales)
			}
			if err := d.Check(); err != nil {
				t.Fatal(err)
			}
			for oldID, newID := range mapping {
				s, _ := o.Extract(oldID)
				if got, ok := d.Locate(s); !ok || got != newID {
					t.Fatalf("old %d (%s): mapping says %d, Locate (%d, %v)", oldID, s, newID, got, ok)
				}
			}
			for _, sec := range base.secs {
				for id := sec.Base + 1; id < sec.Base+sec.Len(); id++ {
					if segmentOf(d, mapping[id]) != segmentOf(d, mapping[sec.Base]) || mapping[id] <= mapping[id-1] {
						t.Fatalf("old %d maps to %d, old %d to %d: not one section in order", id-1, mapping[id-1], id, mapping[id])
					}
				}
			}
		})
	}
	o := NewOverlay(base)
	added := o.Add(typed("424242", "integer"))
	for _, tc := range []struct {
		name  string
		first func(id int) bool
		want  string
	}{
		{"section term", func(id int) bool { return inFirst(id) || id == base.secs[0].Base+3 }, "section at scale 0 is a subject"},
		{"new term", func(id int) bool { return inFirst(id) || id == added }, "is a subject"},
		{"nil first", nil, "is a subject"},
	} {
		if _, _, err := o.Fold(4, tc.first); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Fold = %v, want a refusal with %q", tc.name, err, tc.want)
		}
	}
}

// TestNumericAllocs pins the numeric access paths at zero allocations:
// parsing a term held as bytes, locating numeric probes, present and
// absent, and extracting section IDs one-shot and through a cursor, in
// order and scattered, once the buffers have grown.
func TestNumericAllocs(t *testing.T) {
	d, err := NewSplit(nil, numericTerms(), 4)
	if err != nil {
		t.Fatal(err)
	}
	base := d.Sections()[0].Base
	probes := append(Arrange(numericTerms())[base:], typed("1000001", "integer"), typed("-9.99", "decimal"))
	term := []byte(probes[0])
	buf := make([]byte, 0, 128)
	e := NewExtractor(d)
	i := 0
	for name, f := range map[string]func(){
		"parseNumeric": func() { parseNumeric(term) },
		"Locate":       func() { d.Locate(probes[i%len(probes)]) },
		"ExtractAppend": func() {
			buf, _ = d.ExtractAppend(buf[:0], base+i%(d.Len()-base))
		},
		"Extractor":           func() { e.Extract(base + i%(d.Len()-base)) },
		"Extractor scattered": func() { e.Extract(base + i*7%(d.Len()-base)) },
	} {
		if a := testing.AllocsPerRun(500, func() { f(); i++ }); a != 0 {
			t.Errorf("%s: %v allocs, want 0", name, a)
		}
	}
}
