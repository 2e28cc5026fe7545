package wavelet

import (
	"bytes"
	"math/rand"
	"testing"

	"rdfindexes/internal/codec"
)

func checkTree(t *testing.T, data []uint64, sigma uint64) {
	t.Helper()
	tree := New(data, sigma)
	if tree.Len() != len(data) {
		t.Fatalf("Len() = %d, want %d", tree.Len(), len(data))
	}
	// Access oracle.
	for i, v := range data {
		if got := tree.Access(i); got != v {
			t.Fatalf("Access(%d) = %d, want %d (sigma=%d)", i, got, v, sigma)
		}
	}
	// Select oracle.
	occ := make(map[uint64][]int)
	for i, v := range data {
		occ[v] = append(occ[v], i)
	}
	for sym := uint64(0); sym < sigma; sym++ {
		positions := occ[sym]
		if got := tree.Count(sym); got != len(positions) {
			t.Fatalf("Count(%d) = %d, want %d", sym, got, len(positions))
		}
		for k, want := range positions {
			if got := tree.Select(sym, k); got != want {
				t.Fatalf("Select(%d, %d) = %d, want %d", sym, k, got, want)
			}
		}
		if got := tree.Select(sym, len(positions)); got != -1 {
			t.Fatalf("Select(%d, %d) = %d, want -1", sym, len(positions), got)
		}
	}
}

func TestTreeOracleSmall(t *testing.T) {
	cases := []struct {
		data  []uint64
		sigma uint64
	}{
		{nil, 4},
		{[]uint64{0}, 1},
		{[]uint64{0, 0, 0}, 1},
		{[]uint64{1, 0, 1, 1, 0}, 2},
		{[]uint64{3, 1, 4, 1, 5, 2, 6, 5, 3, 5}, 7},
		{[]uint64{7, 7, 7, 7}, 8},
		{[]uint64{0, 6}, 7}, // non-power-of-two alphabet
	}
	for _, c := range cases {
		checkTree(t, c.data, c.sigma)
	}
}

func TestTreeOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for _, sigma := range []uint64{2, 3, 5, 16, 27, 100} {
		data := make([]uint64, 600)
		for i := range data {
			data[i] = rng.Uint64() % sigma
		}
		checkTree(t, data, sigma)
	}
}

func TestTreeSkewed(t *testing.T) {
	// Zipf-like skew, the typical shape of RDF predicate sequences.
	rng := rand.New(rand.NewSource(127))
	zipf := rand.NewZipf(rng, 1.2, 2, 63)
	data := make([]uint64, 2000)
	for i := range data {
		data[i] = zipf.Uint64()
	}
	checkTree(t, data, 64)
}

func TestTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	data := make([]uint64, 1000)
	for i := range data {
		data[i] = rng.Uint64() % 37
	}
	tree := New(data, 37)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	tree.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(codec.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if got.Access(i) != v {
			t.Fatalf("decoded Access(%d) = %d, want %d", i, got.Access(i), v)
		}
	}
	for sym := uint64(0); sym < 37; sym++ {
		if got.Count(sym) != tree.Count(sym) {
			t.Fatalf("decoded Count(%d) mismatch", sym)
		}
	}
}

func TestTreeOutOfAlphabetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted out-of-alphabet value")
		}
	}()
	New([]uint64{9}, 4)
}

func BenchmarkWaveletAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]uint64, 1<<18)
	for i := range data {
		data[i] = rng.Uint64() % 1000
	}
	tree := New(data, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Access((i * 2654435761) & (1<<18 - 1))
	}
}

func BenchmarkWaveletSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]uint64, 1<<18)
	for i := range data {
		data[i] = rng.Uint64() % 1000
	}
	tree := New(data, 1000)
	counts := make([]int, 1000)
	for _, v := range data {
		counts[v]++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sym := uint64(i % 1000)
		if counts[sym] > 0 {
			tree.Select(sym, i%counts[sym])
		}
	}
}
