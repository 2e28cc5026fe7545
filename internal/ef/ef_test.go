package ef

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rdfindexes/internal/codec"
)

// monotone is the kind of sequence both encoders accept.
type monotone []uint64

func randomMonotone(rng *rand.Rand, n int, maxGap uint64) monotone {
	vals := make([]uint64, n)
	var cur uint64
	for i := range vals {
		cur += rng.Uint64() % (maxGap + 1) // gaps of 0 allowed: duplicates
		vals[i] = cur
	}
	return vals
}

func clusteredMonotone(rng *rand.Rand, n int) monotone {
	// Long dense runs separated by large jumps: exercises the allOnes and
	// bitmap partition kinds of PEF.
	vals := make([]uint64, 0, n)
	var cur uint64
	for len(vals) < n {
		runLen := 1 + rng.Intn(600)
		if runLen > n-len(vals) {
			runLen = n - len(vals)
		}
		if rng.Intn(3) == 0 {
			cur += uint64(rng.Intn(1 << 20))
		}
		// Alternate perfectly consecutive runs (allOnes partitions) with
		// dense-but-gappy runs (bitmap partitions).
		gappy := rng.Intn(2) == 0
		for i := 0; i < runLen; i++ {
			if gappy {
				cur += uint64(1 + rng.Intn(2))
			} else {
				cur++
			}
			vals = append(vals, cur)
		}
	}
	return vals
}

type intSeq interface {
	Len() int
	Universe() uint64
	Access(i int) uint64
	NextGEQ(x uint64) (int, uint64, bool)
}

func checkAgainstOracle(t *testing.T, name string, s intSeq, vals []uint64) {
	t.Helper()
	if s.Len() != len(vals) {
		t.Fatalf("%s: Len() = %d, want %d", name, s.Len(), len(vals))
	}
	for i, v := range vals {
		if got := s.Access(i); got != v {
			t.Fatalf("%s: Access(%d) = %d, want %d", name, i, got, v)
		}
	}
	// NextGEQ oracle at exact values, off-by-one probes, and extremes.
	probe := func(x uint64) {
		wantPos := sort.Search(len(vals), func(i int) bool { return vals[i] >= x })
		pos, val, ok := s.NextGEQ(x)
		if wantPos == len(vals) {
			if ok {
				t.Fatalf("%s: NextGEQ(%d) = (%d, %d, true), want not found", name, x, pos, val)
			}
			return
		}
		if !ok || pos != wantPos || val != vals[wantPos] {
			t.Fatalf("%s: NextGEQ(%d) = (%d, %d, %v), want (%d, %d, true)",
				name, x, pos, val, ok, wantPos, vals[wantPos])
		}
	}
	probe(0)
	for i := 0; i < len(vals); i += 1 + len(vals)/211 {
		v := vals[i]
		probe(v)
		if v > 0 {
			probe(v - 1)
		}
		probe(v + 1)
	}
	if len(vals) > 0 {
		probe(vals[len(vals)-1] + 100)
	}
}

func checkIterator(t *testing.T, name string, vals []uint64, iter func(from int) func() (uint64, bool)) {
	t.Helper()
	for _, from := range []int{0, 1, len(vals) / 3, len(vals) - 1, len(vals)} {
		if from < 0 {
			continue
		}
		next := iter(from)
		for i := from; i < len(vals); i++ {
			v, ok := next()
			if !ok || v != vals[i] {
				t.Fatalf("%s: iterator(from=%d) at %d = (%d, %v), want %d", name, from, i, v, ok, vals[i])
			}
		}
		if v, ok := next(); ok {
			t.Fatalf("%s: iterator(from=%d) yielded %d past the end", name, from, v)
		}
	}
}

func TestSequenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name string
		vals monotone
	}{
		{"empty", nil},
		{"single", monotone{42}},
		{"zeros", monotone{0, 0, 0, 0}},
		{"dense", randomMonotone(rng, 2000, 2)},
		{"sparse", randomMonotone(rng, 2000, 1<<22)},
		{"duplicates", randomMonotone(rng, 3000, 1)},
		{"clustered", clusteredMonotone(rng, 5000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.vals)
			checkAgainstOracle(t, "ef", s, tc.vals)
			checkIterator(t, "ef", tc.vals, func(from int) func() (uint64, bool) {
				it := s.MakeIterator(from)
				return it.Next
			})
		})
	}
}

func TestPartitionedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name string
		vals monotone
	}{
		{"empty", nil},
		{"single", monotone{42}},
		{"zeros", monotone{0, 0, 0, 0}},
		{"one-partition", randomMonotone(rng, 100, 50)},
		{"exact-partition", randomMonotone(rng, 256, 9)},
		{"dense", randomMonotone(rng, 3000, 2)},
		{"sparse", randomMonotone(rng, 3000, 1<<22)},
		{"duplicates", randomMonotone(rng, 3000, 1)},
		{"clustered", clusteredMonotone(rng, 6000)},
		{"consecutive", func() monotone {
			v := make(monotone, 1000)
			for i := range v {
				v[i] = uint64(i) + 7
			}
			return v
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPartitioned(tc.vals)
			checkAgainstOracle(t, "pef", p, tc.vals)
			checkIterator(t, "pef", tc.vals, func(from int) func() (uint64, bool) {
				it := p.MakeIterator(from)
				return it.Next
			})
		})
	}
}

func TestPartitionedKindsExercised(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vals := clusteredMonotone(rng, 20000)
	p := NewPartitioned(vals)
	var have [3]bool
	for k := range p.dir {
		have[p.dir[k].kind()] = true
	}
	for k, ok := range have {
		if !ok {
			t.Errorf("partition kind %d never produced by clustered input", k)
		}
	}
}

func TestPartitionedSmallerOnClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	vals := clusteredMonotone(rng, 50000)
	plain := New(vals)
	part := NewPartitioned(vals)
	if part.SizeBits() >= plain.SizeBits() {
		t.Errorf("PEF (%d bits) not smaller than EF (%d bits) on clustered data",
			part.SizeBits(), plain.SizeBits())
	}
}

func TestSequenceQuick(t *testing.T) {
	f := func(gaps []uint16, seed int64) bool {
		vals := make([]uint64, len(gaps))
		var cur uint64
		for i, g := range gaps {
			cur += uint64(g)
			vals[i] = cur
		}
		s := New(vals)
		p := NewPartitionedLog(vals, 4) // tiny partitions stress boundaries
		for i, v := range vals {
			if s.Access(i) != v || p.Access(i) != v {
				return false
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20 && len(vals) > 0; trial++ {
			x := rng.Uint64() % (vals[len(vals)-1] + 2)
			wantPos := sort.Search(len(vals), func(i int) bool { return vals[i] >= x })
			p1, v1, ok1 := s.NextGEQ(x)
			p2, v2, ok2 := p.NextGEQ(x)
			if wantPos == len(vals) {
				if ok1 || ok2 {
					return false
				}
				continue
			}
			if !ok1 || !ok2 || p1 != wantPos || p2 != wantPos || v1 != vals[wantPos] || v2 != vals[wantPos] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vals := randomMonotone(rng, 5000, 1000)
	s := New(vals)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	s.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(codec.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "ef-decoded", got, vals)
}

func TestPartitionedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vals := clusteredMonotone(rng, 5000)
	p := NewPartitioned(vals)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	p.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePartitioned(codec.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "pef-decoded", got, vals)
}

func TestDecodeCorrupt(t *testing.T) {
	t.Run("pef-directory", testDecodeCorruptDirectory)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	w.Uvarint(10)  // n
	w.Uvarint(100) // universe
	w.Byte(70)     // invalid l > 64
	w.Uvarint(0)   // low bits len
	w.Uint64s(nil) // low words
	w.Uvarint(0)   // high bits len
	w.Uint64s(nil) // high words
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(codec.NewReader(&buf)); err == nil {
		t.Fatal("Decode accepted invalid low-bit width")
	}
}

func TestNonMonotonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New did not panic on non-monotone input")
		}
	}()
	New([]uint64{5, 3})
}

func BenchmarkEFAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := New(randomMonotone(rng, 1<<20, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access((i * 2654435761) & (1<<20 - 1))
	}
}

func BenchmarkPEFAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewPartitioned(randomMonotone(rng, 1<<20, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access((i * 2654435761) & (1<<20 - 1))
	}
}

func BenchmarkEFScan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := New(randomMonotone(rng, 1<<20, 64))
	b.ResetTimer()
	it := s.MakeIterator(0)
	for i := 0; i < b.N; i++ {
		if _, ok := it.Next(); !ok {
			it = s.MakeIterator(0)
		}
	}
}

func BenchmarkPEFScan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewPartitioned(randomMonotone(rng, 1<<20, 64))
	b.ResetTimer()
	it := s.MakeIterator(0)
	for i := 0; i < b.N; i++ {
		if _, ok := it.Next(); !ok {
			it = s.MakeIterator(0)
		}
	}
}
