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
	d, mapping, err := o.Fold(4)
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
// string over a dictionary split arbitrarily into a front-coded base and
// an overlay, driven by fuzzed string content, and that the linear Fold
// encodes byte for byte like FromUnsorted over the union and maps every
// old ID to the rebuilt dictionary's Locate of its string. Bit i%64 of
// mask sends the i-th smallest string to the overlay, so overlay terms
// land before, between, inside and after the base's buckets.
func FuzzOverlayRoundTrip(f *testing.F) {
	f.Add("alpha beta gamma delta", uint64(2))
	f.Add("<http://ex/a> <http://ex/ab> \"lit with space\" _:b1", uint64(1))
	f.Add("a aa aaa aaaa ab b", uint64(3))
	f.Add("", uint64(0))
	// Overlay before the first and after the last base term.
	f.Add("a b c d e f g h", uint64(0b10000001))
	// Overlay inside one base bucket (bucket size 3: b c d | e f g).
	f.Add("b c cc d e f g", uint64(0b100))
	// Long shared prefixes with their neighbours.
	f.Add("http://example.org/resource/Entity_1 http://example.org/resource/Entity_10 "+
		"http://example.org/resource/Entity_100 http://example.org/resource/Entity_1000 "+
		"http://example.org/resource/Entity_1001 http://example.org/resource/Entity_101 "+
		"http://example.org/resource/Entity_11 http://example.org/resource/Entity_2", uint64(0b01011010))
	f.Fuzz(func(t *testing.T, words string, mask uint64) {
		fields := strings.Fields(words)
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
		// The base keeps its strings sorted, as the build path produces;
		// the rest arrive through the overlay in scrambled order.
		var baseStrs, rest []string
		for i, s := range uniq {
			if mask>>(i%64)&1 == 1 {
				rest = append(rest, s)
			} else {
				baseStrs = append(baseStrs, s)
			}
		}
		base, err := New(baseStrs, 3)
		if err != nil {
			t.Fatal(err)
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
		// exactly the dictionary a sort of the union would.
		d, mapping, err := o.Fold(3)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := FromUnsorted(uniq, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encoded(t, d), encoded(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("Fold encodes %x, FromUnsorted %x", got, want)
		}
		if err := d.Check(); err != nil {
			t.Fatalf("Check of the folded dictionary: %v", err)
		}
		if len(mapping) != o.Len() {
			t.Fatalf("mapping len = %d, want %d", len(mapping), o.Len())
		}
		for oldID, newID := range mapping {
			s, _ := o.Extract(oldID)
			if want, ok := ref.Locate(s); !ok || newID != want {
				t.Fatalf("fold maps %d (%q) to %d, want %d (%v)", oldID, s, newID, want, ok)
			}
		}
	})
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

// FuzzDictRoundTrip fuzzes the plain front-coded dictionary the same
// way, including multi-byte content.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add([]byte("one\ntwo\nthree\nthree3"))
	f.Add([]byte("<http://a>\n<http://a/b>\n\"x\"@en"))
	f.Add([]byte{0xff, 0xfe, '\n', 0x00, 0x01})
	f.Add([]byte(strings.Join(mixedTerms(64), "\n")))
	f.Add([]byte(strings.Join(suffixOfHead, "\n")))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := strings.Split(string(data), "\n")
		d, err := FromUnsorted(lines, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Check(); err != nil {
			t.Fatalf("Check of a built dictionary: %v", err)
		}
		seen := map[string]bool{}
		for _, s := range lines {
			seen[s] = true
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
	})
}
