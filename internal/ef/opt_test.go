package ef

import (
	"bytes"
	"math/rand"
	"testing"

	"rdfindexes/internal/codec"
)

func TestOptPartitionedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	for _, tc := range []struct {
		name string
		vals monotone
	}{
		{"empty", nil},
		{"single", monotone{42}},
		{"zeros", monotone{0, 0, 0, 0}},
		{"small", randomMonotone(rng, 50, 100)},
		{"grain-boundary", randomMonotone(rng, optGrain, 10)},
		{"grain-plus-one", randomMonotone(rng, optGrain+1, 10)},
		{"dense", randomMonotone(rng, 3000, 2)},
		{"sparse", randomMonotone(rng, 3000, 1<<22)},
		{"duplicates", randomMonotone(rng, 3000, 1)},
		{"clustered", clusteredMonotone(rng, 6000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewOptPartitioned(tc.vals)
			checkAgainstOracle(t, "opt-pef", p, tc.vals)
			checkIterator(t, "opt-pef", tc.vals, func(from int) func() (uint64, bool) {
				it := p.Iterator(from)
				return it.Next
			})
		})
	}
}

func TestOptPartitionedNotLargerThanUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(257))
	for _, vals := range []monotone{
		clusteredMonotone(rng, 60000),
		randomMonotone(rng, 60000, 1000),
	} {
		uni := NewPartitioned(vals)
		opt := NewOptPartitioned(vals)
		// The DP optimizes an estimate, so allow a small slack, but the
		// optimized layout must not be meaningfully worse and is usually
		// better on clustered data.
		if float64(opt.SizeBits()) > 1.05*float64(uni.SizeBits()) {
			t.Errorf("opt-PEF %d bits > 1.05x uniform PEF %d bits",
				opt.SizeBits(), uni.SizeBits())
		}
	}
}

func TestOptPartitionedVariableBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(263))
	// Clustered data should provoke partitions of different sizes.
	vals := clusteredMonotone(rng, 50000)
	p := NewOptPartitioned(vals)
	if p.NumPartitions() < 2 {
		t.Skip("degenerate partitioning")
	}
	sizes := map[int]bool{}
	for _, pt := range p.parts {
		sizes[pt.end-pt.start] = true
	}
	if len(sizes) < 2 {
		t.Errorf("DP produced uniform partitions only: %v", sizes)
	}
}

func TestOptPartitionedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(269))
	vals := clusteredMonotone(rng, 5000)
	p := NewOptPartitioned(vals)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	p.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOptPartitioned(codec.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "opt-pef-decoded", got, vals)
}

func BenchmarkOptPEFAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewOptPartitioned(randomMonotone(rng, 1<<20, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access((i * 2654435761) & (1<<20 - 1))
	}
}
