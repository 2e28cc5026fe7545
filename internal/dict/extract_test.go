package dict

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

var (
	_ Reader = (*Dict)(nil)
	_ Reader = (*Overlay)(nil)
)

// prefixChain returns sorted strings whose bucket entries extend one
// another for n steps — every LCP longer than the last, so a decode
// grows the term at every entry — and then branch back down.
func prefixChain(n int) []string {
	var strs []string
	for i := 1; i <= n; i++ {
		strs = append(strs, strings.Repeat("ab", i), strings.Repeat("ab", i)+"z")
	}
	sort.Strings(strs)
	return strs
}

func TestExtractAppend(t *testing.T) {
	for _, tc := range []struct {
		strs    []string
		buckets []int
	}{
		{uriLike(400), []int{1, 2, 7, 16, 64}},
		{prefixChain(90), []int{15, 16, 17, 33, 64, 200}},
	} {
		for _, bucket := range tc.buckets {
			testExtractAppend(t, tc.strs, bucket)
		}
	}
}

func testExtractAppend(t *testing.T, strs []string, bucket int) {
	d := buildSorted(t, strs, bucket)
	buf := []byte("prefix|")
	for id, want := range strs {
		got, ok := d.ExtractAppend(buf, id)
		if !ok {
			t.Fatalf("bucket %d: ExtractAppend(%d) failed", bucket, id)
		}
		if string(got) != "prefix|"+want {
			t.Fatalf("bucket %d: ExtractAppend(%d) = %q, want prefix|%q", bucket, id, got, want)
		}
	}
	if got, ok := d.ExtractAppend(buf, len(strs)); ok || string(got) != "prefix|" {
		t.Fatalf("out-of-range ExtractAppend = (%q, %v), want untouched buf", got, ok)
	}
	if got, ok := d.ExtractAppend(nil, -1); ok || got != nil {
		t.Fatalf("negative ExtractAppend = (%q, %v)", got, ok)
	}
}

// TestExtractorAgainstExtract drives a cursor through sequential,
// reverse, random, and repeated ID orders, checking every result against
// the strings the dictionary was built from.
func TestExtractorAgainstExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		strs    []string
		buckets []int
	}{
		{uriLike(300), []int{1, 3, 16}},
		{prefixChain(90), []int{16, 64}},
	} {
		for _, bucket := range tc.buckets {
			d := buildSorted(t, tc.strs, bucket)
			ov := NewOverlay(d)
			all := append([]string(nil), tc.strs...)
			for i := 0; i < 40; i++ {
				s := fmt.Sprintf("zzz://overlay/%03d", i)
				ov.Add(s)
				all = append(all, s)
			}
			for name, r := range map[string]Reader{"dict": d, "overlay": ov.View()} {
				n := r.Len()
				e := NewExtractor(r)
				var ids []int
				for i := 0; i < n; i++ {
					ids = append(ids, i) // sequential
				}
				for i := 0; i < n; i += 7 {
					ids = append(ids, i, i, i) // repeats
				}
				for i := n - 1; i >= 0; i -= 3 {
					ids = append(ids, i) // reverse
				}
				for i := 0; i < 200; i++ {
					ids = append(ids, rng.Intn(n)) // random
				}
				for _, id := range ids {
					got, ok := e.Extract(id)
					if !ok || string(got) != all[id] {
						t.Fatalf("%s bucket %d: cursor Extract(%d) = (%q, %v), want %q", name, bucket, id, got, ok, all[id])
					}
				}
				if _, ok := e.Extract(n); ok {
					t.Fatalf("%s: cursor Extract(%d) succeeded past the end", name, n)
				}
				if _, ok := e.Extract(-1); ok {
					t.Fatalf("%s: cursor Extract(-1) succeeded", name)
				}
			}
		}
	}
}

// TestLocateOracle checks Locate against sort.SearchStrings over the
// source strings, for every stored string and for near misses around
// them: prefixes, extensions, single-byte flips, the extremes of the
// byte order, and probes before the first and after the last header.
func TestLocateOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sets := map[string][]string{
		"empty": nil,
		"one":   {"http://example.org/only"},
		"uri":   uriLike(600),
		// Long shared prefixes and strings that are prefixes of others.
		"nested": {"a", "aa", "aaa", "aaaa", "aaaab", "aab", "ab", "abc", "abcd", "b", "ba", "bab", "babc", "c"},
	}
	for name, strs := range sets {
		for _, bucket := range []int{1, 2, 3, 16, 64} {
			d := buildSorted(t, strs, bucket)
			probes := append([]string{"", "\x00", "\xff\xff", "!", "~~~~"}, strs...)
			for i := 0; i < 300 && len(strs) > 0; i++ {
				s := strs[rng.Intn(len(strs))]
				switch rng.Intn(3) {
				case 0:
					probes = append(probes, s[:rng.Intn(len(s)+1)])
				case 1:
					probes = append(probes, s+string(rune('\x00'+rng.Intn(3)*0x3f)))
				default:
					b := []byte(s)
					b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
					probes = append(probes, string(b))
				}
			}
			if len(strs) > 0 {
				first, last := strs[0], strs[len(strs)-1]
				probes = append(probes, first[:len(first)-1], first+"\x00", last+"\x00", last+"\xff")
			}
			for _, p := range probes {
				i := sort.SearchStrings(strs, p)
				wantOK := i < len(strs) && strs[i] == p
				id, ok := d.Locate(p)
				if ok != wantOK || (ok && id != i) {
					t.Fatalf("%s bucket %d: Locate(%q) = (%d, %v), want (%d, %v)", name, bucket, p, id, ok, i, wantOK)
				}
			}
		}
	}
}

func TestExtractorForeignReader(t *testing.T) {
	d := buildSorted(t, uriLike(50), 8)
	e := NewExtractor(wrapReader{d})
	for id := 0; id < d.Len(); id++ {
		want, _ := d.Extract(id)
		got, ok := e.Extract(id)
		if !ok || string(got) != want {
			t.Fatalf("foreign Extract(%d) = (%q, %v), want %q", id, got, ok, want)
		}
	}
	if _, ok := e.Extract(d.Len()); ok {
		t.Fatal("foreign cursor succeeded past the end")
	}
	e.Bind(nil)
	if _, ok := e.Extract(0); ok {
		t.Fatal("unbound cursor answered")
	}
}

// wrapReader hides the concrete type so the cursor takes its generic
// fallback path.
type wrapReader struct{ r Reader }

func (w wrapReader) Len() int                      { return w.r.Len() }
func (w wrapReader) Locate(s string) (int, bool)   { return w.r.Locate(s) }
func (w wrapReader) Extract(id int) (string, bool) { return w.r.Extract(id) }
func (w wrapReader) ExtractAppend(buf []byte, id int) ([]byte, bool) {
	return w.r.ExtractAppend(buf, id)
}
func (w wrapReader) SizeBits() uint64 { return w.r.SizeBits() }

// FuzzExtractorOracle cross-checks the cursor and one-shot access paths
// against the one-shot Extract on a dictionary derived from fuzz input:
// the data bytes generate the term set, the bucket size, and the ID
// access sequence.
func FuzzExtractorOracle(f *testing.F) {
	f.Add([]byte("http://a\x00http://ab\x00zzz"), uint8(3), []byte{0, 1, 2, 2, 1, 0})
	f.Add([]byte("a\x00b\x00c\x00d\x00e"), uint8(1), []byte{4, 0, 4, 3})
	f.Add([]byte(""), uint8(16), []byte{0})
	f.Fuzz(func(t *testing.T, raw []byte, bucket uint8, seq []byte) {
		parts := strings.Split(string(raw), "\x00")
		set := map[string]bool{}
		for _, p := range parts {
			if len(p) > 0 {
				set[p] = true
			}
		}
		strs := make([]string, 0, len(set))
		for s := range set {
			strs = append(strs, s)
		}
		sort.Strings(strs)
		bs := int(bucket%64) + 1
		d, err := New(strs, bs)
		if err != nil {
			t.Fatalf("New rejected sorted distinct input: %v", err)
		}
		ov := NewOverlay(d)
		for i := 0; i < len(strs)/2+1; i++ {
			ov.Add(fmt.Sprintf("\xffov%d", i))
		}
		for name, r := range map[string]Reader{"dict": d, "overlay": ov.View()} {
			n := r.Len()
			e := NewExtractor(r)
			ids := make([]int, 0, len(seq))
			for _, b := range seq {
				ids = append(ids, int(b)%(n+2)-1) // includes -1 and n, out of range
			}
			var buf []byte
			for _, id := range ids {
				want, wantOK := r.Extract(id)
				got, ok := e.Extract(id)
				if ok != wantOK || (ok && string(got) != want) {
					t.Fatalf("%s: cursor Extract(%d) = (%q, %v), want (%q, %v)", name, id, got, ok, want, wantOK)
				}
				var aok bool
				buf, aok = r.ExtractAppend(buf[:0], id)
				if aok != wantOK || (aok && string(buf) != want) {
					t.Fatalf("%s: ExtractAppend(%d) = (%q, %v), want (%q, %v)", name, id, buf, aok, want, wantOK)
				}
				// Locate inverts Extract.
				if wantOK {
					if lid, lok := r.Locate(want); !lok || lid != id {
						t.Fatalf("%s: Locate(%q) = (%d, %v), want %d", name, want, lid, lok, id)
					}
				}
			}
		}
	})
}

// TestExtractCorruptEntry feeds both access paths a bucket whose stored
// lengths point outside the dictionary (the kind a crafted section with
// a valid checksum can carry) and requires a panic — errEntry for an
// LCP longer than the term before it, a bounds panic for a header or
// suffix past the data — not an allocation sized by the bad length or a
// term spliced from stale bytes.
func TestExtractCorruptEntry(t *testing.T) {
	// bucket builds one bucket: a header "abc" stored with length hl,
	// then one entry (lcp, suffix length sl, suffix "xy").
	bucket := func(hl, lcp, sl uint64) *Dict {
		data := appendUvarint(nil, hl)
		data = append(data, "abc"...)
		data = appendUvarint(data, lcp)
		data = appendUvarint(data, sl)
		data = append(data, "xy"...)
		return &Dict{n: 2, bucketSize: 4, data: data, offsets: []uint64{0, uint64(len(data))}}
	}
	for _, tc := range []struct {
		name string
		d    *Dict
		id   int
		want any // the panic value; nil accepts any
	}{
		{"header past data", bucket(1<<40, 1, 2), 0, nil},
		{"header length wraps", bucket(1<<63, 1, 2), 0, nil},
		{"suffix past data", bucket(3, 1, 1<<40), 1, nil},
		{"suffix length wraps", bucket(3, 1, 1<<63), 1, nil},
		{"lcp past previous term", bucket(3, 4, 2), 1, errEntry},
		{"lcp wraps", bucket(3, 1<<63, 2), 1, errEntry},
	} {
		paths := map[string]func(){
			"ExtractAppend": func() { tc.d.ExtractAppend(nil, tc.id) },
			"Extractor":     func() { NewExtractor(tc.d).Extract(tc.id) },
			"Extractor step": func() {
				e := NewExtractor(tc.d)
				e.Extract(0)
				e.Extract(1)
			},
		}
		for name, f := range paths {
			func() {
				defer func() {
					r := recover()
					if r == nil || tc.want != nil && r != tc.want {
						t.Errorf("%s: %s panicked with %v, want %v", tc.name, name, r, tc.want)
					}
				}()
				f()
			}()
		}
	}
	// The well-formed bucket decodes.
	d := bucket(3, 1, 2)
	if got, ok := d.Extract(1); !ok || got != "axy" {
		t.Fatalf("Extract(1) = (%q, %v), want axy", got, ok)
	}
}

func TestExtractorAllocs(t *testing.T) {
	strs := uriLike(512)
	d := buildSorted(t, strs, 16)
	ov := NewOverlay(d)
	for i := 0; i < 64; i++ {
		ov.Add(fmt.Sprintf("zzz://overlay/%03d", i))
	}
	view := ov.View()

	t.Run("ExtractAppend", func(t *testing.T) {
		buf := make([]byte, 0, 256)
		id := 0
		if n := testing.AllocsPerRun(500, func() {
			buf, _ = d.ExtractAppend(buf[:0], id)
			id = (id + 1) % d.Len()
		}); n != 0 {
			t.Errorf("ExtractAppend allocs/term = %v, want 0", n)
		}
	})
	t.Run("Extractor", func(t *testing.T) {
		for name, r := range map[string]Reader{"dict": d, "overlay": view} {
			e := NewExtractor(r)
			n := r.Len()
			// Warm the cursor buffer to the longest term.
			for i := 0; i < n; i++ {
				e.Extract(i)
			}
			id := 0
			if a := testing.AllocsPerRun(500, func() {
				e.Extract(id)
				id = (id + 3) % n
			}); a != 0 {
				t.Errorf("%s cursor allocs/term = %v, want 0", name, a)
			}
		}
	})
	t.Run("Locate", func(t *testing.T) {
		// Present base terms, present overlay terms (Overlay only), and
		// absent probes on both.
		probes := append([]string{"", "zzz://overlay/999", strs[0] + "x"}, strs...)
		for i := 0; i < 64; i++ {
			probes = append(probes, fmt.Sprintf("zzz://overlay/%03d", i))
		}
		for name, r := range map[string]Reader{"dict": d, "overlay": view} {
			i := 0
			if a := testing.AllocsPerRun(500, func() {
				r.Locate(probes[i])
				i = (i + 1) % len(probes)
			}); a != 0 {
				t.Errorf("%s Locate allocs = %v, want 0", name, a)
			}
		}
	})
}
