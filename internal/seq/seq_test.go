package seq

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"rdfindexes/internal/bits"
	"rdfindexes/internal/codec"
	"rdfindexes/internal/ef"
)

// rangedData is a test fixture mimicking a trie level: values sorted
// strictly within ranges, arbitrary across ranges.
type rangedData struct {
	values []uint64
	ranges []int // numRanges+1 delimiters
}

func randomRanged(rng *rand.Rand, numRanges, maxRangeLen int, maxVal uint64) rangedData {
	var d rangedData
	d.ranges = append(d.ranges, 0)
	for r := 0; r < numRanges; r++ {
		n := 1 + rng.Intn(maxRangeLen)
		seen := map[uint64]bool{}
		vals := make([]uint64, 0, n)
		for len(vals) < n {
			v := rng.Uint64() % (maxVal + 1)
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		// strictly increasing within the range
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		d.values = append(d.values, vals...)
		d.ranges = append(d.ranges, len(d.values))
	}
	return d
}

var allKinds = []Kind{KindCompact, KindEF, KindPEF, KindVByte}

func TestSequenceOracleAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fixtures := map[string]rangedData{
		"small-dense":  randomRanged(rng, 50, 8, 30),
		"wide":         randomRanged(rng, 40, 12, 1<<30),
		"tiny-ranges":  randomRanged(rng, 400, 2, 1000),
		"single-range": randomRanged(rng, 1, 500, 100000),
		"zero-heavy":   randomRanged(rng, 100, 3, 2),
	}
	for name, d := range fixtures {
		for _, kind := range allKinds {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				s := Build(kind, d.values, d.ranges)
				checkSequence(t, s, d, rng)
			})
		}
	}
}

func checkSequence(t *testing.T, s Sequence, d rangedData, rng *rand.Rand) {
	t.Helper()
	if s.Len() != len(d.values) {
		t.Fatalf("Len() = %d, want %d", s.Len(), len(d.values))
	}
	for k := 0; k+1 < len(d.ranges); k++ {
		begin, end := d.ranges[k], d.ranges[k+1]
		// At
		for i := begin; i < end; i++ {
			if got := s.At(begin, i); got != d.values[i] {
				t.Fatalf("At(%d, %d) = %d, want %d", begin, i, got, d.values[i])
			}
		}
		// At2 agrees with two At calls.
		for i := begin; i+1 < end; i++ {
			v1, v2 := s.At2(begin, i)
			if v1 != d.values[i] || v2 != d.values[i+1] {
				t.Fatalf("At2(%d, %d) = (%d, %d), want (%d, %d)",
					begin, i, v1, v2, d.values[i], d.values[i+1])
			}
		}
		// Find: every present value, plus absent probes
		for i := begin; i < end; i++ {
			if got := s.Find(begin, end, d.values[i]); got != i {
				t.Fatalf("Find(%d, %d, %d) = %d, want %d", begin, end, d.values[i], got, i)
			}
		}
		for trial := 0; trial < 4; trial++ {
			x := rng.Uint64() % (1 << 31)
			present := -1
			for i := begin; i < end; i++ {
				if d.values[i] == x {
					present = i
					break
				}
			}
			if got := s.Find(begin, end, x); got != present {
				t.Fatalf("Find(%d, %d, %d) = %d, want %d", begin, end, x, got, present)
			}
		}
		// The range's Base: a cursor over the stored values, read as one
		// range from 0, gives its values once Base is taken off.
		base := s.Base(begin)
		stored := s.IterFrom(0, begin, end)
		for i := begin; i < end; i++ {
			if v, ok := stored.Next(); !ok || v-base != d.values[i] {
				t.Fatalf("IterFrom(0, %d, %d) at %d = %d - base %d, want %d", begin, end, i, v, base, d.values[i])
			}
		}
		// FindGEQ oracle
		for trial := 0; trial < 6; trial++ {
			x := rng.Uint64() % (1 << 31)
			if trial < 3 && end > begin {
				x = d.values[begin+rng.Intn(end-begin)] // exact hits too
			}
			wantPos, wantVal, wantOK := end, uint64(0), false
			for i := begin; i < end; i++ {
				if d.values[i] >= x {
					wantPos, wantVal, wantOK = i, d.values[i], true
					break
				}
			}
			pos, val, ok := s.FindGEQ(begin, end, x)
			if ok != wantOK || (ok && (pos != wantPos || val != wantVal)) {
				t.Fatalf("FindGEQ(%d, %d, %d) = (%d, %d, %v), want (%d, %d, %v)",
					begin, end, x, pos, val, ok, wantPos, wantVal, wantOK)
			}
		}
		// Iter
		it := s.Iter(begin, end)
		for i := begin; i < end; i++ {
			v, ok := it.Next()
			if !ok || v != d.values[i] {
				t.Fatalf("Iter(%d, %d) at %d = (%d, %v), want %d", begin, end, i, v, ok, d.values[i])
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("Iter(%d, %d) did not stop", begin, end)
		}
		// IterFrom starting mid-range must agree with the values oracle.
		if end > begin {
			from := begin + rng.Intn(end-begin)
			fit := s.IterFrom(begin, from, end)
			for i := from; i < end; i++ {
				v, ok := fit.Next()
				if !ok || v != d.values[i] {
					t.Fatalf("IterFrom(%d, %d, %d) at %d = (%d, %v), want %d",
						begin, from, end, i, v, ok, d.values[i])
				}
			}
			if _, ok := fit.Next(); ok {
				t.Fatalf("IterFrom(%d, %d, %d) did not stop", begin, from, end)
			}
		}
	}
	// Find on an empty range.
	if got := s.Find(0, 0, 0); got != -1 {
		t.Fatalf("Find on empty range = %d, want -1", got)
	}
}

func TestSequenceFindDuplicateBases(t *testing.T) {
	// Ranges starting with value 0 make the stored value equal the
	// previous range's last stored value: the duplicate-skipping logic in
	// monoFind must still resolve positions inside the right range.
	values := []uint64{0, 1, 2, 0, 5, 0, 0, 3}
	ranges := []int{0, 3, 5, 6, 8}
	for _, kind := range allKinds {
		s := Build(kind, values, ranges)
		for k := 0; k+1 < len(ranges); k++ {
			begin, end := ranges[k], ranges[k+1]
			for i := begin; i < end; i++ {
				if got := s.Find(begin, end, values[i]); got != i {
					t.Errorf("%v: Find(%d, %d, %d) = %d, want %d",
						kind, begin, end, values[i], got, i)
				}
				if got := s.At(begin, i); got != values[i] {
					t.Errorf("%v: At(%d, %d) = %d, want %d", kind, begin, i, got, values[i])
				}
			}
			// 4 never occurs in any range.
			if got := s.Find(begin, end, 4); got != -1 {
				t.Errorf("%v: Find(%d, %d, 4) = %d, want -1", kind, begin, end, got)
			}
		}
	}
}

func TestBuildMono(t *testing.T) {
	values := []uint64{0, 3, 3, 9, 120, 121}
	for _, kind := range []Kind{KindEF, KindPEF, KindVByte} {
		s := BuildMono(kind, values)
		for i, v := range values {
			if got := s.At(0, i); got != v {
				t.Errorf("%v: At(0, %d) = %d, want %d", kind, i, got, v)
			}
		}
	}
}

func TestSequenceRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := randomRanged(rng, 60, 10, 1<<24)
	for _, kind := range allKinds {
		s := Build(kind, d.values, d.ranges)
		var buf bytes.Buffer
		w := codec.NewWriter(&buf)
		Write(w, s)
		if err := w.Flush(); err != nil {
			t.Fatalf("%v: flush: %v", kind, err)
		}
		got, err := Read(codec.NewReader(&buf))
		if err != nil {
			t.Fatalf("%v: read: %v", kind, err)
		}
		if got.Kind() != kind {
			t.Fatalf("decoded kind = %v, want %v", got.Kind(), kind)
		}
		for k := 0; k+1 < len(d.ranges); k++ {
			begin, end := d.ranges[k], d.ranges[k+1]
			for i := begin; i < end; i++ {
				if got.At(begin, i) != d.values[i] {
					t.Fatalf("%v: decoded At(%d, %d) mismatch", kind, begin, i)
				}
			}
		}
	}
}

// TestFirstIsAt: every kind's First reads the first value of each range
// as At does.
func TestFirstIsAt(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for name, d := range map[string]rangedData{
		"small-dense": randomRanged(rng, 50, 8, 30),
		"wide":        randomRanged(rng, 40, 12, 1<<30),
		"zero-heavy":  randomRanged(rng, 300, 3, 2),
	} {
		for _, kind := range allKinds {
			s := Build(kind, d.values, d.ranges)
			for _, begin := range d.ranges[:len(d.ranges)-1] {
				if got, want := s.First(begin), s.At(begin, begin); got != want {
					t.Fatalf("%s/%v: First(%d) = %d, At = %d", name, kind, begin, got, want)
				}
			}
		}
	}
}

// TestSizeBitsIsWrittenBytes: every kind's SizeBits is 8 times the bytes
// Write stores, so bits/triple moves with the file; a directory decode
// rebuilds is not written and not counted.
func TestSizeBitsIsWrittenBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fixtures := map[string]rangedData{
		"empty":       {ranges: []int{0, 0}},
		"small-dense": randomRanged(rng, 50, 8, 30),
		"wide":        randomRanged(rng, 40, 12, 1<<30),
		"long":        randomRanged(rng, 300, 40, 1<<20),
	}
	for name, d := range fixtures {
		for _, kind := range allKinds {
			s := Build(kind, d.values, d.ranges)
			var buf bytes.Buffer
			w := codec.NewWriter(&buf)
			Write(w, s)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, want := s.SizeBits(), 8*uint64(buf.Len()); got != want {
				t.Errorf("%s/%v: SizeBits %d, Write stores %d bits", name, kind, got, want)
			}
		}
	}
}

func TestReadUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	w.Byte(99)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(codec.NewReader(&buf)); err == nil {
		t.Fatal("Read accepted unknown kind tag")
	}
}

// TestReadRetiredKind feeds Read kind byte 4, the retired cost-optimized
// PEF, followed by what was a valid empty sequence of that kind: Read must
// refuse the kind as corrupt rather than decode it.
func TestReadRetiredKind(t *testing.T) {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	w.Byte(4)
	w.Uvarint(0)          // n
	w.Uvarint(0)          // universe
	ef.New(nil).Encode(w) // partition ends
	ef.New(nil).Encode(w) // upper bounds
	w.Bytes(nil)          // kinds
	bits.NewCompact([]uint64{0}).Encode(w)
	(&bits.Vector{}).Encode(w) // payload
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(codec.NewReader(&buf)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("Read of kind 4: error %v, want ErrCorrupt", err)
	}
}

func TestKindString(t *testing.T) {
	if Kind(77).String() != "Kind(77)" {
		t.Errorf("unexpected String for unknown kind: %s", Kind(77))
	}
}

func TestPEFSmallerThanCompactOnSkewedRanges(t *testing.T) {
	// Long, highly compressible ranges (the POS second level shape of the
	// paper): PEF should beat Compact by a wide margin.
	var values []uint64
	ranges := []int{0}
	for r := 0; r < 20; r++ {
		for i := 0; i < 5000; i++ {
			values = append(values, uint64(i*2))
		}
		ranges = append(ranges, len(values))
	}
	pef := Build(KindPEF, values, ranges)
	compact := Build(KindCompact, values, ranges)
	if pef.SizeBits() >= compact.SizeBits()/2 {
		t.Errorf("PEF = %d bits, Compact = %d bits: expected PEF < half",
			pef.SizeBits(), compact.SizeBits())
	}
}

// sliceFind is the Find oracle: a linear search of the original values.
func sliceFind(values []uint64, begin, end int, x uint64) int {
	for i := begin; i < end; i++ {
		if values[i] == x {
			return i
		}
	}
	return -1
}

// TestFindShortRangesExhaustive checks every seek of a sorted range
// against the slice oracle, for all kinds: Find (both sides of its
// shortRange switch), FindGEQ, NextGEQ on fresh iterators and on one
// walking iterator, and IterFrom. Range lengths run over 1..32 and on to
// 600, past two PEF partitions, so ranges start, end and cross inside
// partitions; values are consecutive, dense or sparse, so PEF partitions
// of all three kinds occur. Each length comes first in the sequence (no
// predecessor), after a neighbour, and starting with 0 (its stored value
// then repeats the base). Probes are every value of the range (hit), the
// values around it (miss), 0 and past the last.
func TestFindShortRangesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	maxGaps := []int{1, 2, 4, 2000}
	lengths := []int{}
	for n := 1; n <= 2*shortRange; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 63, 64, 65, 100, 255, 256, 257, 300, 511, 513, 600)
	build := func(firstLen int) rangedData {
		d := rangedData{ranges: []int{0}}
		add := func(n int, first uint64, maxGap int) {
			v := first
			for i := 0; i < n; i++ {
				d.values = append(d.values, v)
				v += 1 + uint64(rng.Intn(maxGap))
			}
			d.ranges = append(d.ranges, len(d.values))
		}
		add(firstLen, uint64(rng.Intn(3)), 4)
		for i, n := range lengths {
			add(n, uint64(rng.Intn(3)), maxGaps[i%len(maxGaps)])
			add(n, 0, maxGaps[(i+1)%len(maxGaps)])
			add(n, 1+uint64(rng.Intn(1000)), maxGaps[(i+2)%len(maxGaps)])
			add(n, 1, 1) // consecutive runs chain into all-ones partitions
		}
		return d
	}
	for _, d := range []rangedData{build(5), build(600)} {
		for _, kind := range allKinds {
			s := Build(kind, d.values, d.ranges)
			for k := 0; k+1 < len(d.ranges); k++ {
				checkRangeSeeks(t, rng, kind, s, d.values, d.ranges[k], d.ranges[k+1])
			}
		}
	}
}

// checkRangeSeeks checks the seeks of the range [begin, end) of s against
// values.
func checkRangeSeeks(t *testing.T, rng *rand.Rand, kind Kind, s Sequence, values []uint64, begin, end int) {
	t.Helper()
	r := values[begin:end]
	// geq is the oracle: the position of the first value >= x, or end.
	geq := func(x uint64) int {
		return begin + sort.Search(len(r), func(i int) bool { return r[i] >= x })
	}
	probes := []uint64{0, r[len(r)-1] + 1, r[len(r)-1] + 2}
	for _, v := range r {
		probes = append(probes, v, v+1)
		if v > 0 {
			probes = append(probes, v-1)
		}
	}
	for _, x := range probes {
		want := geq(x)
		if got, wantFind := s.Find(begin, end, x), sliceFind(values, begin, end, x); got != wantFind {
			t.Fatalf("%v: Find(%d, %d, %d) = %d, want %d", kind, begin, end, x, got, wantFind)
		}
		pos, val, ok := s.FindGEQ(begin, end, x)
		if ok != (want < end) || ok && (pos != want || val != values[want]) {
			t.Fatalf("%v: FindGEQ(%d, %d, %d) = (%d, %d, %v), want position %d", kind, begin, end, x, pos, val, ok, want)
		}
		v, ok := s.Iter(begin, end).NextGEQ(x)
		if ok != (want < end) || ok && v != values[want] {
			t.Fatalf("%v: Iter(%d, %d).NextGEQ(%d) = (%d, %v), want position %d", kind, begin, end, x, v, ok, want)
		}
	}
	// One iterator skipping forward, as a merge-intersection drives it.
	it := s.Iter(begin, end)
	for x, at := r[0], begin; ; {
		want := max(geq(x), at)
		v, ok := it.NextGEQ(x)
		if ok != (want < end) || ok && v != values[want] {
			t.Fatalf("%v: walking NextGEQ(%d) on [%d, %d) = (%d, %v), want position %d", kind, x, begin, end, v, ok, want)
		}
		if !ok {
			break
		}
		at = want + 1
		x = v + uint64(rng.Intn(3*int(r[len(r)-1]-r[0])/len(r)+2))
	}
	for _, from := range []int{begin, begin + 1, (begin + end) / 2, end - 1} {
		if from >= end {
			continue
		}
		it := s.IterFrom(begin, from, end)
		for i := from; i < end; i++ {
			if v, ok := it.Next(); !ok || v != values[i] {
				t.Fatalf("%v: IterFrom(%d, %d, %d) at %d = (%d, %v), want %d", kind, begin, from, end, i, v, ok, values[i])
			}
		}
		if v, ok := it.Next(); ok {
			t.Fatalf("%v: IterFrom(%d, %d, %d) yielded %d past the end", kind, begin, from, end, v)
		}
	}
}

// BenchmarkFindShortRange times Find over sibling ranges shaped like an
// SPO trie's second level: a few predicates per subject out of ~100.
func BenchmarkFindShortRange(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	d := randomRanged(rng, 20000, 8, 100)
	for _, kind := range allKinds {
		s := Build(kind, d.values, d.ranges)
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := (i * 7919) % (len(d.ranges) - 1)
				begin, end := d.ranges[k], d.ranges[k+1]
				findSink += s.Find(begin, end, d.values[begin+i%(end-begin)])
			}
		})
	}
}

var findSink int
