package dict

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/ef"
)

// Numeric sections (the paper's Section 3.1 range structure in the
// dictionary). The second run ends in one section per datatype and
// scale that its literals take, after its front-coded strings: the
// xsd:integer section, then the xsd:decimal sections by scale. A
// section is an ID interval ordered by value; it stores its datatype,
// its scale, its smallest value and the values minus that one as an
// Elias-Fano sequence, so a numeric term costs a few bits instead of a
// front-coded entry whose middle is the datatype IRI.
//
// A literal is numeric only in canonical form: formatting its parsed
// value reproduces it byte for byte ("7", "-7", "0", "12.50" at scale
// 2; not "007", "+7", "-0", "7." or "-0.0"), and the value fits an int64
// (a decimal's once scaled by 10^scale). Every numeric literal of a
// two-run dictionary is in the section of its datatype and scale, and
// none is a string of either run (subjects are never literals), so
// Locate finds it by value alone and Extract(Locate(t)) == t holds for
// every term. Every other term is a string.

// Datatype is the XSD datatype of a numeric section.
type Datatype uint8

// The two numeric section datatypes, in the order their sections
// follow the strings.
const (
	Integer Datatype = iota // xsd:integer
	Decimal                 // xsd:decimal, at its section's scale
)

// String names the datatype as a prefixed XSD name.
func (t Datatype) String() string {
	switch t {
	case Integer:
		return "xsd:integer"
	case Decimal:
		return "xsd:decimal"
	}
	return fmt.Sprintf("datatype(%d)", uint8(t))
}

// MaxScale is the most fraction digits a decimal section holds: 10^18
// is the largest power of ten in an int64.
const MaxScale = 18

// sectionKinds is the number of (datatype, scale) pairs a section can
// have: the integers, and the decimals of each scale up to MaxScale.
const sectionKinds = 2 + MaxScale

// sectionKind numbers the (datatype, scale) pairs in section order:
// integers 0, decimals of scale s 1+s.
//
//rdf:hotpath
func sectionKind(dt Datatype, scale int) int { return int(dt) + scale }

// kindOf is sectionKind's inverse.
func kindOf(kind int) (Datatype, int) {
	if kind == 0 {
		return Integer, 0
	}
	return Decimal, kind - 1
}

// The closing quote and datatype of a numeric term; both datatype
// names are seven bytes long, so both suffixes are numericSuffixLen.
const (
	xsdPrefix        = `"^^<http://www.w3.org/2001/XMLSchema#`
	integerSuffix    = xsdPrefix + "integer>"
	decimalSuffix    = xsdPrefix + "decimal>"
	numericSuffixLen = len(integerSuffix)
)

// parseNumeric reports whether the term s is a numeric literal in
// canonical form, and returns its datatype, its scale (the fraction
// digits of a decimal, 0 for an integer) and its value scaled by
// 10^scale.
//
//rdf:hotpath
func parseNumeric[T string | []byte](s T) (dt Datatype, scale int, v int64, ok bool) {
	if len(s) <= numericSuffixLen+1 || s[0] != '"' || s[len(s)-1] != '>' {
		return 0, 0, 0, false
	}
	lex, suffix := s[1:len(s)-numericSuffixLen], s[len(s)-numericSuffixLen:]
	//rdf:allow(a switch on string(bytes) compares the bytes in place, without a copy; pinned by TestNumericAllocs)
	switch string(suffix) {
	case integerSuffix:
		dt = Integer
	case decimalSuffix:
		dt = Decimal
	default:
		return 0, 0, 0, false
	}
	neg := lex[0] == '-'
	if neg {
		lex = lex[1:]
	}
	whole, frac := lex, lex[:0]
	if dt == Decimal {
		for i := 0; i < len(lex); i++ {
			if lex[i] == '.' {
				whole, frac = lex[:i], lex[i+1:]
				if len(frac) == 0 || len(frac) > MaxScale {
					return 0, 0, 0, false
				}
				break
			}
		}
	}
	if len(whole) == 0 || len(whole) > 1 && whole[0] == '0' {
		return 0, 0, 0, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var mag uint64
	for _, part := range [2]T{whole, frac} {
		for i := 0; i < len(part); i++ {
			d := uint64(part[i] - '0')
			if d > 9 || mag > (limit-d)/10 {
				return 0, 0, 0, false
			}
			mag = mag*10 + d
		}
	}
	if neg && mag == 0 {
		return 0, 0, 0, false
	}
	if neg {
		mag = -mag
	}
	return dt, len(frac), int64(mag), true
}

// appendNumeric appends the canonical term of value v, scaled by
// 10^scale, of datatype dt to buf: parseNumeric's inverse. One copy
// appends the room for the numeral and the suffix after it, and
// putNumeral fills the room.
//
//rdf:hotpath
func appendNumeric(buf []byte, dt Datatype, scale int, v int64) []byte {
	width := numeralWidth(scale, v)
	buf = append(buf, '"')
	start := len(buf)
	if dt == Integer {
		buf = append(buf, integerRoom[len(integerRoom)-numericSuffixLen-width:]...)
	} else {
		buf = append(buf, decimalRoom[len(decimalRoom)-numericSuffixLen-width:]...)
	}
	putNumeral(buf[start:start+width], scale, v)
	return buf
}

// numeralWidth returns the bytes of the numeral of v at scale: its
// sign, its digits, at least scale+1 so that a decimal below 1 keeps
// its 0, and at a scale the point.
//
//rdf:hotpath
func numeralWidth(scale int, v int64) int {
	mag, width := uint64(v), 0
	if v < 0 {
		mag, width = -mag, 1
	}
	width += max(digitCount(mag), scale+1)
	if scale > 0 {
		width++
	}
	return width
}

// digitCount returns the decimal digits of x, from its bit length; 0
// for 0.
//
//rdf:hotpath
func digitCount(x uint64) int {
	digits := bits.Len64(x|1) * 1233 >> 12
	if x >= pow10[digits] {
		digits++
	}
	return digits
}

// putNumeral writes the numeral of v at scale into b, numeralWidth
// bytes: the digits back to front, two at a time.
//
//rdf:hotpath
func putNumeral(b []byte, scale int, v int64) {
	mag := uint64(v)
	if v < 0 {
		mag = -mag
		b[0] = '-'
		b = b[1:]
	}
	if scale > 0 {
		mag = putDigits(b[len(b)-scale:], mag)
		b[len(b)-scale-1] = '.'
		b = b[:len(b)-scale-1]
	}
	putDigits(b, mag)
}

// numeralBand returns the values whose numerals at scale have the
// width and sign of v's.
func numeralBand(scale int, v int64) (lo, hi int64) {
	mag := uint64(v)
	if v < 0 {
		mag = -mag
	}
	digits := max(digitCount(mag), scale+1)
	low, high := uint64(0), uint64(math.MaxUint64)
	if digits > scale+1 {
		low = pow10[digits-1]
	}
	if digits < len(pow10) {
		high = pow10[digits] - 1
	}
	if v < 0 {
		return int64(-min(high, 1<<63)), int64(-max(low, 1))
	}
	return int64(low), int64(min(high, math.MaxInt64))
}

// putDigits writes the low len(b) digits of x into b, back to front and
// two at a time, and returns x without them.
//
//rdf:hotpath
func putDigits(b []byte, x uint64) uint64 {
	i := len(b)
	for ; i >= 2; i -= 2 {
		pair := x % 100 * 2
		x /= 100
		b[i-1], b[i-2] = digitPairs[pair+1], digitPairs[pair]
	}
	if i == 1 {
		b[0] = byte('0' + x%10)
		x /= 10
	}
	return x
}

// integerRoom and decimalRoom are the most bytes a numeral takes after
// its opening quote — a sign, 19 digits (10^19 passes an int64) and a
// point — then the suffix; pow10 the powers of ten a uint64 holds, and
// digitPairs the two digits of 0 to 99.
const (
	numeralRoom = "....................."
	integerRoom = numeralRoom + integerSuffix
	decimalRoom = numeralRoom + decimalSuffix
	digitPairs  = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
		"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
		"8081828384858687888990919293949596979899"
)

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// Section is one numeric section of a dictionary: IDs [Base,
// Base+Values.Len()) hold the canonical literals of one datatype and
// scale, in increasing value order; the value of ID
// Base+i, scaled by 10^Scale, is Min plus the i-th element of Values.
type Section struct {
	Datatype Datatype
	Scale    int // fraction digits of a decimal, 0 for an integer
	Base     int
	Min      int64
	Values   *ef.Sequence
}

// Len returns the number of terms in the section.
func (s *Section) Len() int { return s.Values.Len() }

// value returns the value of the term with the given ID, which must be
// in the section, scaled by 10^Scale.
func (s *Section) value(id int) int64 {
	return int64(uint64(s.Min) + s.Values.Access(id-s.Base))
}

// locate returns the ID of value v, or ok=false if the section does not
// hold it.
//
//rdf:hotpath
func (s *Section) locate(v int64) (int, bool) {
	if v < s.Min {
		return 0, false
	}
	x := uint64(v) - uint64(s.Min)
	i, got, ok := s.Values.NextGEQ(x)
	if !ok || got != x {
		return 0, false
	}
	return s.Base + i, true
}

// Bytes returns the section's footprint: its datatype, scale and
// minimum, and the Elias-Fano sequence's SizeBits, the bytes its Encode
// writes.
func (s *Section) Bytes() int { return 2 + 8 + int((s.Values.SizeBits()+7)/8) }

// encode writes the section: datatype, scale, minimum, the sequence.
func (s *Section) encode(w *codec.Writer) {
	w.Byte(byte(s.Datatype))
	w.Byte(byte(s.Scale))
	w.Uint64(uint64(s.Min))
	s.Values.Encode(w)
}

// decodeSection reads a section written by encode and checks its
// header in constant time: a known datatype, a scale within MaxScale
// (0 for integers), at least one value, and a declared universe whose
// largest value fits an int64. Check walks the values.
func decodeSection(r *codec.Reader) (Section, error) {
	s := Section{Datatype: Datatype(r.Byte()), Scale: int(r.Byte()), Min: int64(r.Uint64())}
	values, err := ef.Decode(r)
	if err != nil {
		return s, err
	}
	s.Values = values
	switch {
	case s.Datatype > Decimal || s.Datatype == Integer && s.Scale != 0 || s.Scale > MaxScale:
		return s, fmt.Errorf("%w: dict numeric section of %v at scale %d", codec.ErrCorrupt, s.Datatype, s.Scale)
	case values.Len() == 0:
		return s, fmt.Errorf("%w: dict numeric section of no values", codec.ErrCorrupt)
	case values.Universe() > uint64(math.MaxInt64)-uint64(s.Min):
		return s, fmt.Errorf("%w: dict numeric section of %d plus up to %d passes an int64", codec.ErrCorrupt, s.Min, values.Universe())
	}
	return s, nil
}

// section returns the section of the canonical numeric terms of
// datatype dt and scale, or nil.
//
//rdf:hotpath
func (d *Dict) section(dt Datatype, scale int) *Section {
	for i := range d.secs {
		if s := &d.secs[i]; s.Datatype == dt && s.Scale == scale {
			return s
		}
	}
	return nil
}

// sectionOf returns the section of a valid section ID, id >= d.m.
//
//rdf:hotpath
func (d *Dict) sectionOf(id int) *Section {
	i := len(d.secs) - 1
	for id < d.secs[i].Base {
		i--
	}
	return &d.secs[i]
}

// appendSection appends the term of a section ID, id >= d.m.
//
//rdf:hotpath
func (d *Dict) appendSection(buf []byte, id int) []byte {
	s := d.sectionOf(id)
	return appendNumeric(buf, s.Datatype, s.Scale, s.value(id))
}

// Sections returns the dictionary's numeric sections in ID order.
func (d *Dict) Sections() []Section { return slices.Clone(d.secs) }

// numTerm is a numeric term and its value.
type numTerm struct {
	v int64
	s string
}

// arrangement is a second run split as NewSplit numbers it.
type arrangement struct {
	strs []string                // the front-coded strings, sorted
	nums [sectionKinds][]numTerm // each section's terms by value, by sectionKind
}

// arrange splits the terms of a second run into its front-coded
// strings and its sections.
func arrange(terms []string) arrangement {
	var a arrangement
	for _, s := range terms {
		if dt, scale, v, ok := parseNumeric(s); ok {
			kind := sectionKind(dt, scale)
			a.nums[kind] = append(a.nums[kind], numTerm{v, s})
		} else {
			a.strs = append(a.strs, s)
		}
	}
	sort.Strings(a.strs)
	for _, ts := range a.nums {
		slices.SortFunc(ts, func(x, y numTerm) int { return cmp.Compare(x.v, y.v) })
	}
	return a
}

// Arrange returns the terms of a subject/object dictionary's second run
// in the order NewSplit numbers them: the front-coded strings, sorted,
// then the canonical xsd:integer literals by value, then the canonical
// xsd:decimal literals by scale and value.
func Arrange(terms []string) []string {
	a := arrange(terms)
	out := append(make([]string, 0, len(terms)), a.strs...)
	for _, ts := range a.nums {
		for _, t := range ts {
			out = append(out, t.s)
		}
	}
	return out
}
