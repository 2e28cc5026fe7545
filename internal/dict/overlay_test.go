package dict

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rdfindexes/internal/codec"
)

func mustDict(t testing.TB, strs []string) *Dict {
	t.Helper()
	d, err := FromUnsorted(strs, 4)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOverlayBasic(t *testing.T) {
	base := mustDict(t, []string{"<a>", "<b>", "<m>", "<z>"})
	o := NewOverlay(base)
	if o.Len() != 4 || o.AddedLen() != 0 {
		t.Fatalf("fresh overlay: len=%d added=%d", o.Len(), o.AddedLen())
	}
	// Adding a base string returns its base ID without growing.
	if id := o.Add("<m>"); id != 2 || o.AddedLen() != 0 {
		t.Fatalf("Add of base string: id=%d added=%d", id, o.AddedLen())
	}
	// New strings get dense IDs after the base, in arrival order.
	idQ := o.Add("<q>")
	idC := o.Add("<c>")
	if idQ != 4 || idC != 5 {
		t.Fatalf("overlay IDs = %d, %d; want 4, 5", idQ, idC)
	}
	if id := o.Add("<q>"); id != idQ {
		t.Fatalf("re-Add moved the ID: %d != %d", id, idQ)
	}
	if o.Len() != 6 || o.AddedLen() != 2 {
		t.Fatalf("after adds: len=%d added=%d", o.Len(), o.AddedLen())
	}
	for want, s := range map[int]string{0: "<a>", 2: "<m>", 4: "<q>", 5: "<c>"} {
		if id, ok := o.Locate(s); !ok || id != want {
			t.Fatalf("Locate(%q) = %d, %v; want %d", s, id, ok, want)
		}
		if got, ok := o.Extract(want); !ok || got != s {
			t.Fatalf("Extract(%d) = %q, %v; want %q", want, got, ok, s)
		}
	}
	if _, ok := o.Locate("<nope>"); ok {
		t.Fatal("Locate of absent string succeeded")
	}
	if _, ok := o.Extract(6); ok {
		t.Fatal("Extract beyond the overlay succeeded")
	}
	if o.SizeBits() <= base.SizeBits() {
		t.Fatal("overlay additions not charged in SizeBits")
	}
}

// TestOverlayViewIsolation pins the copy-on-write contract: a view taken
// before later Adds must not observe them.
func TestOverlayViewIsolation(t *testing.T) {
	base := mustDict(t, []string{"<a>", "<b>"})
	o := NewOverlay(base)
	o.Add("<x>")
	v := o.View()
	o.Add("<k>")
	o.Add("<y>")
	if v.Len() != 3 || v.AddedLen() != 1 {
		t.Fatalf("view grew after snapshot: len=%d added=%d", v.Len(), v.AddedLen())
	}
	if _, ok := v.Locate("<k>"); ok {
		t.Fatal("view sees a string added after the snapshot")
	}
	if id, ok := v.Locate("<x>"); !ok || id != 2 {
		t.Fatalf("view lost its own string: %d, %v", id, ok)
	}
	if id := o.Add("<k>"); id != 3 {
		t.Fatalf("writer ID drifted: %d", id)
	}
}

func TestOverlayFold(t *testing.T) {
	base := mustDict(t, []string{"<b>", "<d>", "<f>"})
	o := NewOverlay(base)
	o.Add("<e>") // id 3
	o.Add("<a>") // id 4
	d, mapping, err := o.Fold(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 5 {
		t.Fatalf("folded len = %d, want 5", d.Len())
	}
	if len(mapping) != 5 {
		t.Fatalf("mapping len = %d, want 5", len(mapping))
	}
	// Every old ID must map to the new rank of the same string.
	for oldID := 0; oldID < o.Len(); oldID++ {
		s, ok := o.Extract(oldID)
		if !ok {
			t.Fatalf("Extract(%d) failed", oldID)
		}
		newID, ok := d.Locate(s)
		if !ok || mapping[oldID] != newID {
			t.Fatalf("old %d (%q): mapping says %d, dict says %d (%v)", oldID, s, mapping[oldID], newID, ok)
		}
	}
	// The folded dict is sorted: "<a>" is now rank 0.
	if got, _ := d.Extract(0); got != "<a>" {
		t.Fatalf("folded rank 0 = %q, want <a>", got)
	}
}

// FuzzOverlayRoundTrip checks Locate∘Extract = id and Extract∘Locate =
// string over a dictionary split arbitrarily into a front-coded base of
// two runs and an overlay, driven by fuzzed string content, and that the
// linear Fold builds each run byte for byte like FromUnsorted over the
// strings sent to it and maps every old ID to the rebuilt dictionary's
// Locate of its string. Bit i%64 of mask sends the i-th smallest string
// to the overlay, so overlay terms land before, between, inside and
// after the base's buckets; bit i%64 of runs puts a base string in the
// base's first run, and bit (i+1)%64 sends the string to the folded
// dictionary's first run, so strings change run both ways.
func FuzzOverlayRoundTrip(f *testing.F) {
	f.Add("alpha beta gamma delta", uint64(2), uint64(0))
	f.Add("<http://ex/a> <http://ex/ab> \"lit with space\" _:b1", uint64(1), uint64(0b0110))
	f.Add("a aa aaa aaaa ab b", uint64(3), uint64(0b101010))
	f.Add("", uint64(0), uint64(0))
	// Overlay before the first and after the last base term.
	f.Add("a b c d e f g h", uint64(0b10000001), uint64(0b00111100))
	// Overlay inside one base bucket (bucket size 3: b c d | e f g).
	f.Add("b c cc d e f g", uint64(0b100), uint64(0b1111111))
	// Long shared prefixes with their neighbours.
	f.Add("http://example.org/resource/Entity_1 http://example.org/resource/Entity_10 "+
		"http://example.org/resource/Entity_100 http://example.org/resource/Entity_1000 "+
		"http://example.org/resource/Entity_1001 http://example.org/resource/Entity_101 "+
		"http://example.org/resource/Entity_11 http://example.org/resource/Entity_2", uint64(0b01011010), uint64(0b10010110))
	f.Add("0 42 -7 007 +7 -0 -0.0 1.50 2.25 3.5 12 9223372036854775807 99999999999999999999 1.", uint64(0b1001001), uint64(0b0110110))
	f.Fuzz(func(t *testing.T, words string, mask, runs uint64) {
		fields := withNumericForms(strings.Fields(words))
		sort.Strings(fields)
		uniq := fields[:0]
		for i, s := range fields {
			if i == 0 || s != fields[i-1] {
				uniq = append(uniq, s)
			}
		}
		if len(uniq) == 0 {
			return
		}
		// The base keeps each run sorted, as the build path produces;
		// the rest arrive through the overlay in scrambled order.
		var baseRuns [2][]string
		var rest []string
		rank := map[string]int{}
		for i, s := range uniq {
			rank[s] = i
			switch {
			case mask>>(i%64)&1 == 1:
				rest = append(rest, s)
			case runs>>(i%64)&1 == 1 && !numeral(s):
				baseRuns[0] = append(baseRuns[0], s)
			default:
				baseRuns[1] = append(baseRuns[1], s)
			}
		}
		base, err := NewSplit(baseRuns[0], baseRuns[1], 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := base.Check(); err != nil {
			t.Fatalf("Check of the base: %v", err)
		}
		o := NewOverlay(base)
		for i, j := 0, len(rest)-1; i < j; i, j = i+1, j-1 {
			rest[i], rest[j] = rest[j], rest[i]
		}
		ids := map[string]int{}
		for _, s := range rest {
			ids[s] = o.Add(s)
		}
		if o.Len() != len(uniq) {
			t.Fatalf("Len = %d, want %d", o.Len(), len(uniq))
		}
		for id := 0; id < o.Len(); id++ {
			s, ok := o.Extract(id)
			if !ok {
				t.Fatalf("Extract(%d) failed", id)
			}
			back, ok := o.Locate(s)
			if !ok || back != id {
				t.Fatalf("Locate(Extract(%d)) = %d, %v", id, back, ok)
			}
		}
		for _, s := range uniq {
			id, ok := o.Locate(s)
			if !ok {
				t.Fatalf("Locate(%q) failed", s)
			}
			back, ok := o.Extract(id)
			if !ok || back != s {
				t.Fatalf("Extract(Locate(%q)) = %q, %v", s, back, ok)
			}
			if want, tracked := ids[s]; tracked && id != want {
				t.Fatalf("%q: ID moved from %d to %d", s, want, id)
			}
		}
		// Folding preserves the string set under remapped IDs, and builds
		// each run exactly as a sort of the strings sent to it would.
		inFirst := func(s string) bool { return runs>>((rank[s]+1)%64)&1 == 1 && !numeral(s) }
		d, mapping, err := o.Fold(3, func(id int) bool {
			s, _ := o.Extract(id)
			return inFirst(s)
		})
		if err != nil {
			t.Fatal(err)
		}
		var want [2][]string
		for _, s := range uniq {
			if inFirst(s) {
				want[0] = append(want[0], s)
			} else {
				want[1] = append(want[1], s)
			}
		}
		checkRuns(t, d, want, 3)
		if err := d.Check(); err != nil {
			t.Fatalf("Check of the folded dictionary: %v", err)
		}
		if len(mapping) != o.Len() {
			t.Fatalf("mapping len = %d, want %d", len(mapping), o.Len())
		}
		for oldID, newID := range mapping {
			s, _ := o.Extract(oldID)
			if want, ok := d.Locate(s); !ok || newID != want || (newID < d.FirstRun()) != inFirst(s) {
				t.Fatalf("fold maps %d (%q) to %d, want %d (%v) of %d in the first run", oldID, s, newID, want, ok, d.FirstRun())
			}
		}
	})
}

// checkRuns requires d to be the dictionary NewSplit builds over want's
// two runs: each run byte for byte the one FromUnsorted builds over its
// front-coded strings, and after them the second run's numeric terms
// in Arrange's order.
func checkRuns(t *testing.T, d *Dict, want [2][]string, bucket int) {
	t.Helper()
	a := arrange(want[1])
	if d.Len() != len(want[0])+len(want[1]) || d.FirstRun() != len(want[0]) {
		t.Fatalf("%d strings, %d in the first run; want %d and %d", d.Len(), d.FirstRun(), len(want[0])+len(want[1]), len(want[0]))
	}
	for i, strs := range [2][]string{want[0], a.strs} {
		ref, err := FromUnsorted(strs, bucket)
		if err != nil {
			t.Fatal(err)
		}
		got, exp := &d.runs[i], &ref.runs[0]
		if got.n != exp.n || !bytes.Equal(got.samples, exp.samples) || !bytes.Equal(got.sampleAt, exp.sampleAt) ||
			!bytes.Equal(got.data, exp.data) || !bytes.Equal(got.offsets, exp.offsets) {
			t.Fatalf("run %d of %d strings differs from FromUnsorted's", i, len(strs))
		}
	}
	id := d.FirstRun() + len(a.strs)
	for _, ts := range a.nums {
		for _, nt := range ts {
			if got, ok := d.Extract(id); !ok || got != nt.s {
				t.Fatalf("numeric ID %d = (%q, %v), want %q", id, got, ok, nt.s)
			}
			id++
		}
	}
}

// TestFoldSplit folds a two-run base and an overlay with a first-run
// predicate that moves strings between the runs both ways: each run
// must match FromUnsorted over its strings, the ID map must agree with
// Locate, and the map must be monotone within each run.
func TestFoldSplit(t *testing.T) {
	strs := mixedTerms(2000)
	var first, second []string
	for i, s := range strs {
		if i%3 == 0 && !numeral(s) {
			first = append(first, s)
		} else {
			second = append(second, s)
		}
	}
	base, err := NewSplit(first, second, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOverlay(base)
	for i := 0; i < 50; i++ {
		o.Add(fmt.Sprintf("%s~%d", strs[i*37], i))
	}
	// Every fifth old ID is in the first run afterwards: some base
	// subjects leave it, some other base strings and overlay strings
	// join it.
	inFirst := func(id int) bool {
		s, _ := o.Extract(id)
		return id%5 == 0 && !numeral(s)
	}
	d, mapping, err := o.Fold(4, inFirst)
	if err != nil {
		t.Fatal(err)
	}
	var want [2][]string
	for id := 0; id < o.Len(); id++ {
		s, _ := o.Extract(id)
		if inFirst(id) {
			want[0] = append(want[0], s)
		} else {
			want[1] = append(want[1], s)
		}
	}
	sort.Strings(want[0])
	sort.Strings(want[1])
	checkRuns(t, d, want, 4)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	for oldID, newID := range mapping {
		s, _ := o.Extract(oldID)
		if got, ok := d.Locate(s); !ok || got != newID {
			t.Fatalf("old %d (%q): mapping says %d, Locate (%d, %v)", oldID, s, newID, got, ok)
		}
	}
	// Monotone within a run and a section: two old IDs of one base run
	// or section that stay in one new run or section keep their order.
	for _, span := range segments(base) {
		last := map[int]int{}
		for id := span[0]; id < span[1]; id++ {
			seg := segmentOf(d, mapping[id])
			if prev, ok := last[seg]; ok && mapping[id] <= prev {
				t.Fatalf("old %d maps to %d, after %d", id, mapping[id], prev)
			}
			last[seg] = mapping[id]
		}
	}
}

// segments returns the ID intervals of d's runs and sections.
func segments(d *Dict) [][2]int {
	segs := [][2]int{{0, d.k}, {d.k, d.m}}
	for _, s := range d.secs {
		segs = append(segs, [2]int{s.Base, s.Base + s.Len()})
	}
	return segs
}

// segmentOf returns the index in segments(d) of the one holding id.
func segmentOf(d *Dict, id int) int {
	for i, s := range segments(d) {
		if id >= s[0] && id < s[1] {
			return i
		}
	}
	return -1
}

func encoded(t *testing.T, d *Dict) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	d.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withNumericForms returns strs and each of them as the lexical form
// of an xsd:integer, an xsd:decimal and an xsd:int literal, so that
// fuzzed content reaches the numeric sections in every form: canonical
// or not, negative, -0, decimals of several scales, values past 64
// bits, and a datatype without a section.
func withNumericForms(strs []string) []string {
	out := append([]string(nil), strs...)
	for _, s := range strs {
		out = append(out, typed(s, "integer"), typed(s, "decimal"), typed(s, "int"))
	}
	return out
}

// FuzzDictRoundTrip fuzzes the plain front-coded dictionary the same
// way, including multi-byte content and numeric literals, as one run
// and split into two: the strings of even length that are not numeric
// literals first, the rest, numeric literals in their sections, second.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add([]byte("one\ntwo\nthree\nthree3"))
	f.Add([]byte("<http://a>\n<http://a/b>\n\"x\"@en"))
	f.Add([]byte{0xff, 0xfe, '\n', 0x00, 0x01})
	f.Add([]byte(strings.Join(mixedTerms(64), "\n")))
	f.Add([]byte(strings.Join(suffixOfHead, "\n")))
	f.Add([]byte("0\n42\n-7\n007\n+7\n-0\n-0.0\n1.50\n2.25\n3.5\n12\n9223372036854775807\n99999999999999999999\n1."))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := withNumericForms(strings.Split(string(data), "\n"))
		one, err := FromUnsorted(lines, 5)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		var runs [2][]string
		for _, s := range lines {
			if r := len(s) % 2; !seen[s] {
				if numeral(s) {
					r = 1
				}
				runs[r] = append(runs[r], s)
			}
			seen[s] = true
		}
		sort.Strings(runs[0])
		sort.Strings(runs[1])
		split, err := NewSplit(runs[0], runs[1], 5)
		if err != nil {
			t.Fatal(err)
		}
		checkRuns(t, split, runs, 5)
		for _, d := range []*Dict{one, split} {
			roundTrip(t, d, seen)
		}
	})
}

// roundTrip checks Check, Extract∘Locate and Locate∘Extract over d,
// which holds the strings of seen.
func roundTrip(t *testing.T, d *Dict, seen map[string]bool) {
	t.Helper()
	if err := d.Check(); err != nil {
		t.Fatalf("Check of a built dictionary: %v", err)
	}
	if d.Len() != len(seen) {
		t.Fatalf("Len = %d, want %d distinct", d.Len(), len(seen))
	}
	for id := 0; id < d.Len(); id++ {
		s, ok := d.Extract(id)
		if !ok {
			t.Fatalf("Extract(%d) failed", id)
		}
		back, ok := d.Locate(s)
		if !ok || back != id {
			t.Fatalf("Locate(Extract(%d)) = %d, %v", id, back, ok)
		}
	}
	for s := range seen {
		id, ok := d.Locate(s)
		if !ok {
			t.Fatalf("Locate(%q) failed", s)
		}
		if back, ok := d.Extract(id); !ok || back != s {
			t.Fatalf("Extract(Locate(%q)) = %q", s, back)
		}
	}
	if _, ok := d.Locate(fmt.Sprintf("\x00absent-%d\xff", d.Len())); ok {
		// The probe string contains bytes the split can produce, so
		// only fail when it is genuinely absent.
		if !seen[fmt.Sprintf("\x00absent-%d\xff", d.Len())] {
			t.Fatal("Locate of absent string succeeded")
		}
	}
}
