package bits

import (
	"math/rand"
	"testing"
)

// refRankSelect is a brute-force oracle.
type refRankSelect struct {
	bits []bool
}

func (r refRankSelect) rank1(i int) int {
	c := 0
	for j := 0; j < i; j++ {
		if r.bits[j] {
			c++
		}
	}
	return c
}

func (r refRankSelect) select1(k int) int {
	for j, b := range r.bits {
		if b {
			if k == 0 {
				return j
			}
			k--
		}
	}
	return -1
}

func (r refRankSelect) select0(k int) int {
	for j, b := range r.bits {
		if !b {
			if k == 0 {
				return j
			}
			k--
		}
	}
	return -1
}

func buildRandom(n int, density float64, seed int64) (*Vector, refRankSelect) {
	rng := rand.New(rand.NewSource(seed))
	v := NewVector(n)
	ref := refRankSelect{bits: make([]bool, n)}
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.SetBit(i)
			ref.bits[i] = true
		}
	}
	return v, ref
}

func TestRankSelectAgainstOracle(t *testing.T) {
	for _, tc := range []struct {
		n       int
		density float64
	}{
		{1, 1}, {1, 0}, {63, 0.5}, {64, 0.5}, {65, 0.5},
		{511, 0.3}, {512, 0.3}, {513, 0.3},
		{5000, 0.01}, {5000, 0.99}, {5000, 0.5}, {4096, 0.5},
		// Full blocks (512 ones: the packed counters reach 448) and
		// partial tail blocks of every word count, for the broadword
		// word pick in Select1.
		{2048, 1}, {1024 + 64, 1}, {1024 + 200, 1}, {512 + 448, 1},
		{1536 + 100, 0.97}, {512 + 1, 1}, {3 * 512, 0.999},
	} {
		v, ref := buildRandom(tc.n, tc.density, int64(tc.n)*7+int64(tc.density*100))
		rs := NewRankSelect(v)

		wantOnes := ref.rank1(tc.n)
		if rs.Ones() != wantOnes {
			t.Fatalf("n=%d d=%v: Ones() = %d, want %d", tc.n, tc.density, rs.Ones(), wantOnes)
		}
		if rs.Zeros() != tc.n-wantOnes {
			t.Fatalf("n=%d d=%v: Zeros() = %d, want %d", tc.n, tc.density, rs.Zeros(), tc.n-wantOnes)
		}
		for i := 0; i <= tc.n; i++ {
			if got, want := rs.Rank1(i), ref.rank1(i); got != want {
				t.Fatalf("n=%d d=%v: Rank1(%d) = %d, want %d", tc.n, tc.density, i, got, want)
			}
		}
		for k := 0; k < rs.Ones(); k++ {
			if got, want := rs.Select1(k), ref.select1(k); got != want {
				t.Fatalf("n=%d d=%v: Select1(%d) = %d, want %d", tc.n, tc.density, k, got, want)
			}
		}
		for k := 0; k < rs.Zeros(); k++ {
			if got, want := rs.Select0(k), ref.select0(k); got != want {
				t.Fatalf("n=%d d=%v: Select0(%d) = %d, want %d", tc.n, tc.density, k, got, want)
			}
		}
	}
}

func TestRankSelectLarge(t *testing.T) {
	// Exercise the sampled select hints (> 2^selSampleLog ones and zeros).
	n := 300000
	v, _ := buildRandom(n, 0.5, 42)
	rs := NewRankSelect(v)
	// Spot-check with rank/select inverse properties instead of the O(n^2)
	// oracle.
	for k := 0; k < rs.Ones(); k += 997 {
		p := rs.Select1(k)
		if !v.Bit(p) {
			t.Fatalf("Select1(%d) = %d: bit not set", k, p)
		}
		if got := rs.Rank1(p); got != k {
			t.Fatalf("Rank1(Select1(%d)) = %d", k, got)
		}
	}
	for k := 0; k < rs.Zeros(); k += 997 {
		p := rs.Select0(k)
		if v.Bit(p) {
			t.Fatalf("Select0(%d) = %d: bit set", k, p)
		}
		if got := rs.Rank0(p); got != k {
			t.Fatalf("Rank0(Select0(%d)) = %d", k, got)
		}
	}
}

func TestRankSelectRunStructured(t *testing.T) {
	// Alternating runs stress block/word boundary logic.
	n := 10000
	v := NewVector(n)
	ref := refRankSelect{bits: make([]bool, n)}
	for i := 0; i < n; i++ {
		if (i/37)%2 == 0 {
			v.SetBit(i)
			ref.bits[i] = true
		}
	}
	rs := NewRankSelect(v)
	for i := 0; i <= n; i += 13 {
		if got, want := rs.Rank1(i), ref.rank1(i); got != want {
			t.Fatalf("Rank1(%d) = %d, want %d", i, got, want)
		}
	}
	for k := 0; k < rs.Ones(); k += 11 {
		if got, want := rs.Select1(k), ref.select1(k); got != want {
			t.Fatalf("Select1(%d) = %d, want %d", k, got, want)
		}
	}
	for k := 0; k < rs.Zeros(); k += 11 {
		if got, want := rs.Select0(k), ref.select0(k); got != want {
			t.Fatalf("Select0(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestSelectInWord(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 1000; trial++ {
		w := rng.Uint64()
		k := 0
		for i := 0; i < 64; i++ {
			if w&(1<<uint(i)) != 0 {
				if got := selectInWord(w, k); got != i {
					t.Fatalf("selectInWord(%#x, %d) = %d, want %d", w, k, got, i)
				}
				k++
			}
		}
	}
}

func BenchmarkRank1(b *testing.B) {
	v, _ := buildRandom(1<<20, 0.5, 1)
	rs := NewRankSelect(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Rank1((i * 2654435761) & (1<<20 - 1))
	}
}

func BenchmarkSelect1(b *testing.B) {
	v, _ := buildRandom(1<<20, 0.5, 1)
	rs := NewRankSelect(v)
	ones := rs.Ones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Select1((i * 2654435761) % ones)
	}
}
