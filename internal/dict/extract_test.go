package dict

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rdfindexes/internal/codec"
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

// TestLocateSplit checks Locate on dictionaries of two runs, whose
// strings interleave in sort order: every string locates to its ID in
// its run, and probes that sort before all of them, between two
// neighbours of either run, and after all of them are absent.
func TestLocateSplit(t *testing.T) {
	for _, strs := range [][]string{uriLike(700), mixedTerms(900), suffixOfHead} {
		for _, every := range []int{2, 3, 7} {
			for _, bucket := range []int{1, 3, 16} {
				first, second := splitEvery(strs, every)
				d, err := NewSplit(first, second, bucket)
				if err != nil {
					t.Fatal(err)
				}
				ids := map[string]int{}
				for i, s := range first {
					ids[s] = i
				}
				for i, s := range Arrange(second) {
					ids[s] = len(first) + i
				}
				probes := []string{"", "\x00", strs[0][:len(strs[0])-1], strs[len(strs)-1] + "\x00", "\xff"}
				for _, s := range strs {
					// The string, one sorting just after it, and its
					// prefix one byte short, which sorts between it and
					// the string before.
					probes = append(probes, s, s+"\x00", s[:len(s)-1])
				}
				for _, p := range probes {
					want, wantOK := ids[p]
					if got, ok := d.Locate(p); ok != wantOK || ok && got != want {
						t.Fatalf("every %d bucket %d: Locate(%q) = (%d, %v), want (%d, %v)", every, bucket, p, got, ok, want, wantOK)
					}
				}
			}
		}
	}
}

// suffixOfHead is a term set whose bucket entries are suffixes of the
// head, in whole (no middle at all) or after a middle, and tails that
// cover the whole head.
var suffixOfHead = []string{"^^<t>", "abc>", "bc>", "c>", "xy^^<t>", "y^^<t>", "z^^<t>", "zz^^<t>"}

// entryTails returns the stored tail length of every string, 0 for
// samples.
func entryTails(d *Dict) []int {
	var tails []int
	for i := range d.runs {
		r := &d.runs[i]
		pos := 0
		for id := 0; id < r.n; id++ {
			tails = append(tails, 0)
			if k, j := r.bucket(id); j == 0 && k%groupBuckets == 0 {
				continue
			}
			_, mid, tail, p := entry(r.data, pos)
			if tail == escape {
				_, mid, tail, p = escaped(r.data, p)
			}
			tails[len(tails)-1], pos = int(tail), p+int(mid)
		}
	}
	return tails
}

// TestLocateTails checks Locate against sort.SearchStrings on probes
// aimed at the shared tails: a term without its tail or without the
// tail's last byte, a term whose tail goes on by one byte, and probes
// that sort between two neighbouring entries that both have a tail.
func TestLocateTails(t *testing.T) {
	sets := map[string][]string{
		"mixed":        mixedTerms(3000),
		"suffixOfHead": suffixOfHead,
		"datatypes": func() []string {
			var strs []string
			for i := 0; i < 400; i++ {
				strs = append(strs, fmt.Sprintf(`"%d"^^<http://www.w3.org/2001/XMLSchema#integer>`, i*7),
					fmt.Sprintf(`"v%d"@en`, i), fmt.Sprintf(`"v%d"@en-GB`, i))
			}
			sort.Strings(strs)
			return strs
		}(),
	}
	probes := []struct {
		name string
		gen  func(term string, tail int) []string
	}{
		{"without tail", func(s string, tail int) []string {
			return []string{s[:len(s)-tail], s[:len(s)-1]}
		}},
		{"tail extended by one byte", func(s string, tail int) []string {
			return []string{s + "\x00", s + "\xff", s + s[len(s)-1:], s + ">"}
		}},
		{"between tailed entries", func(s string, tail int) []string {
			body, end := s[:len(s)-tail], s[len(s)-tail:]
			last := func(d byte) string { return s[:len(s)-1] + string([]byte{s[len(s)-1] + d}) }
			ps := []string{last(1), last(0xff), body + "\xff" + end, body + "\x00" + end}
			if body != "" {
				ps = append(ps, body[:len(body)-1]+end) // a middle one byte short
			}
			return ps
		}},
	}
	for name, strs := range sets {
		for _, bucket := range []int{3, 4, 16} {
			d := buildSorted(t, strs, bucket)
			tails := entryTails(d)
			for _, pc := range probes {
				tailed, between := 0, 0
				for id, s := range strs {
					if tails[id] == 0 || len(s) < 2 {
						continue
					}
					tailed++
					for _, p := range pc.gen(s, tails[id]) {
						i := sort.SearchStrings(strs, p)
						wantOK := i < len(strs) && strs[i] == p
						if got, ok := d.Locate(p); ok != wantOK || ok && got != i {
							t.Fatalf("%s bucket %d %s: Locate(%q) = (%d, %v), want (%d, %v)", name, bucket, pc.name, p, got, ok, i, wantOK)
						}
						if !wantOK && i > 0 && i < len(strs) && i%bucket != 0 && tails[i-1] > 0 && tails[i] > 0 {
							between++
						}
					}
				}
				if tailed == 0 || pc.name == "between tailed entries" && between == 0 {
					t.Fatalf("%s bucket %d %s: %d tailed entries, %d probes between two", name, bucket, pc.name, tailed, between)
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
	f.Add([]byte(strings.Join(mixedTerms(64), "\x00")), uint8(15), []byte{63, 0, 17, 18, 19, 40, 2, 63})
	f.Add([]byte(strings.Join(suffixOfHead, "\x00")), uint8(7), []byte{7, 1, 2, 3, 6, 4, 0})
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

// TestExtractCorruptEntry feeds every access path a bucket whose stored
// lengths point outside the dictionary (the kind a crafted section with
// a valid checksum can carry) and requires a panic — errEntry for a drop
// past the length of the string before it or a tail longer than the
// sample, a bounds panic for a sample, middle or escape past the data —
// not an allocation sized by the bad length or a term spliced from stale
// bytes. Check must reject every case without panicking.
func TestExtractCorruptEntry(t *testing.T) {
	// coded returns one coded string: the header for (drop, middle
	// length, tail length), escaped when a length does not fit its
	// field, then the middle "xy".
	coded := func(e [3]uint64) []byte {
		var b []byte
		if e[0] < 8 && e[1] < 8 && e[2] < escape {
			b = append(b, byte(e[0]<<5|e[1]<<2|e[2]))
		} else {
			b = append(b, escape)
			for _, v := range e {
				b = appendUvarint(b, v)
			}
		}
		return append(b, "xy"...)
	}
	// group builds one group: the sample "abc" stored with length sl,
	// then one bucket per element of buckets, each a run of coded
	// strings (the first bucket's sample comes first).
	group := func(bucketSize int, sl uint64, buckets ...[][]byte) *Dict {
		samples := appendUvarint(nil, sl)
		samples = append(samples, "abc"...)
		r := run{bucketSize: bucketSize, n: 1, samples: samples, sampleAt: binary.LittleEndian.AppendUint32(nil, 0)}
		var data []byte
		for _, b := range buckets {
			r.offsets = binary.LittleEndian.AppendUint32(r.offsets, uint32(len(data)))
			for _, e := range b {
				data = append(data, e...)
				r.n++
			}
		}
		r.data = data[:len(data):len(data)]
		r.offsets = binary.LittleEndian.AppendUint32(r.offsets, uint32(len(data)))
		empty := run{bucketSize: bucketSize, offsets: make([]byte, 4)}
		return &Dict{n: r.n, k: r.n, m: r.n, runs: [2]run{r, empty}}
	}
	bucket := func(sl uint64, entries ...[3]uint64) *Dict {
		var b [][]byte
		for _, e := range entries {
			b = append(b, coded(e))
		}
		return group(4, sl, b)
	}
	// Well formed: "abc", "a"+"xy"+"c", "axyc"+"xy"; the second string
	// keeps all of the first, whose tail is still pending.
	good := [][3]uint64{{2, 2, 1}, {0, 2, 0}}
	for _, tc := range []struct {
		name string
		d    *Dict
		want any // the panic value; nil accepts any
	}{
		{"sample past data", bucket(1<<40, good[0]), nil},
		{"sample length wraps", bucket(1<<63, good[0]), nil},
		{"middle past data", bucket(3, [3]uint64{2, 1 << 40, 1}), nil},
		{"middle length wraps", bucket(3, [3]uint64{2, 1 << 63, 1}), nil},
		{"middle plus tail wraps to zero", bucket(3, [3]uint64{2, math.MaxUint64, 1}), nil},
		{"middle plus tail overflows", bucket(3, [3]uint64{2, 1 << 63, 1 << 63}), errEntry},
		{"tail longer than sample", bucket(3, [3]uint64{2, 2, 4}), errEntry},
		{"tail length wraps", bucket(3, [3]uint64{2, 2, 1 << 63}), errEntry},
		{"drop past previous length", bucket(3, [3]uint64{4, 2, 1}), errEntry},
		{"drop wraps", bucket(3, [3]uint64{1 << 63, 2, 1}), errEntry},
		{"drop past pending tail", bucket(3, good[0], [3]uint64{5, 2, 0}), errEntry},
		{"escape with truncated uvarints", group(4, 3, [][]byte{{escape, 2, 0x82}}), nil},
		{"coded head past data", group(1, 3, nil, [][]byte{coded([3]uint64{2, 1 << 40, 1})}), nil},
		{"coded head drops past sample", group(1, 3, nil, [][]byte{coded([3]uint64{4, 2, 1})}), errEntry},
	} {
		id := tc.d.n - 1
		paths := map[string]func(){
			"ExtractAppend": func() { tc.d.ExtractAppend(nil, id) },
			"Extractor":     func() { NewExtractor(tc.d).Extract(id) },
			"Extractor step": func() {
				e := NewExtractor(tc.d)
				e.Extract(0)
				e.Extract(id)
			},
			// The probe is the term the last string would hold if well
			// formed, so the scans compare that string's bytes.
			"Locate": func() {
				if _, ok := tc.d.Locate([]string{"abc", "axyc", "axycxy"}[id]); ok {
					t.Errorf("%s: Locate found a corrupt entry", tc.name)
				}
			},
		}
		for name, f := range paths {
			func() {
				defer func() {
					if r := recover(); r == nil || tc.want != nil && r != tc.want {
						t.Errorf("%s: %s panicked with %v, want %v", tc.name, name, r, tc.want)
					}
				}()
				f()
			}()
		}
		bad := id // the first bad ID: the sample's own, or the last string's
		if strings.HasPrefix(tc.name, "sample") {
			bad = 0
		}
		if err := tc.d.Check(); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("dict ID %d:", bad)) {
			t.Errorf("%s: Check = %v, want a corruption error naming ID %d", tc.name, err, bad)
		}
	}
	// The same strings as one bucket and as a sample and a coded head.
	for _, d := range []*Dict{bucket(3, good...), group(1, 3, nil, [][]byte{coded(good[0])})} {
		if err := d.Check(); err != nil {
			t.Fatalf("Check of a well-formed dictionary: %v", err)
		}
		for id, want := range []string{"abc", "axyc", "axycxy"}[:d.n] {
			if got, ok := d.Extract(id); !ok || got != want {
				t.Fatalf("Extract(%d) = (%q, %v), want %s", id, got, ok, want)
			}
			if got, ok := NewExtractor(d).Extract(id); !ok || string(got) != want {
				t.Fatalf("cursor Extract(%d) = (%q, %v), want %s", id, got, ok, want)
			}
			if got, ok := d.Locate(want); !ok || got != id {
				t.Fatalf("Locate(%q) = (%d, %v), want %d", want, got, ok, id)
			}
		}
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
