package vbyte

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rdfindexes/internal/codec"
)

func TestPutGetRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 129, 16383, 16384, 1 << 21, 1<<35 + 7, ^uint64(0)}
	var buf []byte
	for _, v := range cases {
		buf = Put(buf, v)
	}
	pos := 0
	for _, want := range cases {
		var got uint64
		got, pos = Get(buf, pos)
		if got != want {
			t.Fatalf("Get = %d, want %d", got, want)
		}
	}
	if pos != len(buf) {
		t.Fatalf("decoded %d bytes, buffer has %d", pos, len(buf))
	}
}

func TestPutGetQuick(t *testing.T) {
	f := func(vals []uint64) bool {
		var buf []byte
		for _, v := range vals {
			buf = Put(buf, v)
		}
		pos := 0
		for _, want := range vals {
			var got uint64
			got, pos = Get(buf, pos)
			if got != want {
				return false
			}
		}
		return pos == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randomMonotone(rng *rand.Rand, n int, maxGap uint64) []uint64 {
	vals := make([]uint64, n)
	var cur uint64
	for i := range vals {
		cur += rng.Uint64() % (maxGap + 1)
		vals[i] = cur
	}
	return vals
}

func TestBlockedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name string
		vals []uint64
	}{
		{"empty", nil},
		{"single", []uint64{9}},
		{"one-block", randomMonotone(rng, 100, 37)},
		{"exact-block", randomMonotone(rng, 128, 37)},
		{"block-plus-one", randomMonotone(rng, 129, 37)},
		{"many", randomMonotone(rng, 5000, 1000)},
		{"duplicates", randomMonotone(rng, 2000, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBlocked(tc.vals)
			if b.Len() != len(tc.vals) {
				t.Fatalf("Len() = %d, want %d", b.Len(), len(tc.vals))
			}
			for i, v := range tc.vals {
				if got := b.Access(i); got != v {
					t.Fatalf("Access(%d) = %d, want %d", i, got, v)
				}
			}
			probe := func(x uint64) {
				wantPos := sort.Search(len(tc.vals), func(i int) bool { return tc.vals[i] >= x })
				pos, val, ok := b.NextGEQ(x)
				if wantPos == len(tc.vals) {
					if ok {
						t.Fatalf("NextGEQ(%d) = (%d, %d, true), want not found", x, pos, val)
					}
					return
				}
				if !ok || pos != wantPos || val != tc.vals[wantPos] {
					t.Fatalf("NextGEQ(%d) = (%d, %d, %v), want (%d, %d, true)",
						x, pos, val, ok, wantPos, tc.vals[wantPos])
				}
			}
			probe(0)
			for i := 0; i < len(tc.vals); i += 1 + len(tc.vals)/97 {
				v := tc.vals[i]
				probe(v)
				if v > 0 {
					probe(v - 1)
				}
				probe(v + 1)
			}
			for _, from := range []int{0, 1, len(tc.vals) / 2, len(tc.vals)} {
				it := b.MakeIterator(from)
				for i := from; i < len(tc.vals); i++ {
					v, ok := it.Next()
					if !ok || v != tc.vals[i] {
						t.Fatalf("MakeIterator(from=%d) at %d = (%d, %v), want %d", from, i, v, ok, tc.vals[i])
					}
				}
				if _, ok := it.Next(); ok {
					t.Fatalf("MakeIterator(from=%d) did not stop", from)
				}
			}
		})
	}
}

func TestBlockedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	vals := randomMonotone(rng, 3000, 512)
	b := NewBlocked(vals)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	b.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlocked(codec.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got.Access(i) != v {
			t.Fatalf("decoded Access(%d) = %d, want %d", i, got.Access(i), v)
		}
	}
}

func TestBlockedNonMonotonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBlocked did not panic on non-monotone input")
		}
	}()
	NewBlocked([]uint64{5, 3})
}

func BenchmarkBlockedScan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewBlocked(randomMonotone(rng, 1<<20, 64))
	b.ResetTimer()
	it := s.MakeIterator(0)
	for i := 0; i < b.N; i++ {
		if _, ok := it.Next(); !ok {
			it = s.MakeIterator(0)
		}
	}
}

func BenchmarkBlockedAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewBlocked(randomMonotone(rng, 1<<20, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access((i * 2654435761) & (1<<20 - 1))
	}
}
