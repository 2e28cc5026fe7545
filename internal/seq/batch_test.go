package seq

import (
	"math/rand"
	"testing"
)

// randRanged builds a random ranged-sorted input: values strictly
// increasing within each range, with the range layout randomized.
func randRanged(rng *rand.Rand, n, maxRanges int, universe uint64) (values []uint64, ranges []int) {
	ranges = []int{0}
	for len(values) < n {
		left := n - len(values)
		sz := 1 + rng.Intn(maxInt(1, minInt(left, n/maxRanges+1)))
		if sz > left {
			sz = left
		}
		// strictly increasing values within the range
		used := map[uint64]bool{}
		vals := make([]uint64, 0, sz)
		for len(vals) < sz {
			v := uint64(rng.Int63n(int64(universe)))
			if !used[v] {
				used[v] = true
				vals = append(vals, v)
			}
		}
		sortU64(vals)
		values = append(values, vals...)
		ranges = append(ranges, len(values))
	}
	return values, ranges
}

func sortU64(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestNextBatchMatchesNext cross-checks the block decoder against the
// scalar path on randomized ranges and batch sizes.
func TestNextBatchMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, kind := range allKinds {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(3000)
			values, ranges := randRanged(rng, n, 1+rng.Intn(50), 1+uint64(rng.Int63n(1<<20)))
			s := Build(kind, values, ranges)
			for k := 0; k+1 < len(ranges); k++ {
				lo, hi := ranges[k], ranges[k+1]
				want := make([]uint64, 0, hi-lo)
				it := s.Iter(lo, hi)
				for {
					v, ok := it.Next()
					if !ok {
						break
					}
					want = append(want, v)
				}
				if len(want) != hi-lo {
					t.Fatalf("%v: range %d scalar decoded %d of %d", kind, k, len(want), hi-lo)
				}
				// batch decode with a randomized buffer size
				bufSize := 1 + rng.Intn(40)
				buf := make([]uint64, bufSize)
				got := make([]uint64, 0, hi-lo)
				bit := s.Iter(lo, hi)
				for {
					m := bit.NextBatch(buf)
					if m == 0 {
						break
					}
					got = append(got, buf[:m]...)
				}
				if len(got) != len(want) {
					t.Fatalf("%v: range %d batch decoded %d, want %d", kind, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v: range %d pos %d: batch %d, scalar %d", kind, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNextGEQMatchesFindGEQ cross-checks the iterator skip against the
// sequence-level search, including skips that land between and beyond
// elements.
func TestNextGEQMatchesFindGEQ(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, kind := range allKinds {
		for trial := 0; trial < 15; trial++ {
			n := 1 + rng.Intn(2000)
			universe := 1 + uint64(rng.Int63n(1<<18))
			values, ranges := randRanged(rng, n, 1+rng.Intn(20), universe)
			s := Build(kind, values, ranges)
			for k := 0; k+1 < len(ranges); k++ {
				lo, hi := ranges[k], ranges[k+1]
				it := s.Iter(lo, hi)
				var prev uint64
				first := true
				for probe := 0; probe < 30; probe++ {
					// strictly increasing targets, as in a gallop join
					x := prev + uint64(rng.Int63n(int64(universe/8+2)))
					if !first {
						x = prev + 1 + uint64(rng.Int63n(int64(universe/8+2)))
					}
					pos, val, ok := s.FindGEQ(lo, hi, x)
					got, gok := it.NextGEQ(x)
					if gok != ok {
						t.Fatalf("%v: range %d NextGEQ(%d) ok=%v, FindGEQ ok=%v", kind, k, x, gok, ok)
					}
					if !ok {
						break
					}
					_ = pos
					if got != val {
						t.Fatalf("%v: range %d NextGEQ(%d) = %d, FindGEQ = %d", kind, k, x, got, val)
					}
					prev = val
					first = false
				}
			}
		}
	}
}

// TestResetReuseMatchesFresh drives one reused iterator through every
// range (the pattern of the core selection algorithms, including the
// contiguous-range base carry-over) and compares with fresh iterators.
// After the in-order walk it resets to every range start in reverse and
// in strides of two, where no reset is contiguous and each positions the
// cursor on the range's base (in reverse through an empty range at the
// same start first, as a trie level has under a childless root, so the
// next reset carries that base over), then to random mid-range positions.
func TestResetReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kind := range allKinds {
		for trial := 0; trial < 15; trial++ {
			n := 1 + rng.Intn(2000)
			values, ranges := randRanged(rng, n, 1+rng.Intn(30), 1+uint64(rng.Int63n(1<<19)))
			s := Build(kind, values, ranges)
			var reused Iterator
			buf := make([]uint64, 7)
			type visit struct{ lo, from, hi int }
			numRanges := len(ranges) - 1
			var visits []visit
			for k := 0; k < numRanges; k++ {
				visits = append(visits, visit{ranges[k], ranges[k], ranges[k+1]})
			}
			for k := numRanges - 1; k >= 0; k-- {
				visits = append(visits, visit{ranges[k], ranges[k], ranges[k]}, visit{ranges[k], ranges[k], ranges[k+1]})
			}
			for k := 0; k < numRanges; k += 2 {
				visits = append(visits, visit{ranges[k], ranges[k], ranges[k+1]})
			}
			for i := 0; i < 5; i++ {
				k := rng.Intn(numRanges)
				visits = append(visits, visit{ranges[k], ranges[k] + rng.Intn(ranges[k+1]-ranges[k]), ranges[k+1]})
			}
			for _, v := range visits {
				lo, hi := v.lo, v.hi
				if reused == nil {
					reused = s.IterFrom(lo, v.from, hi)
				} else {
					reused.Reset(lo, v.from, hi)
				}
				fresh := s.IterFrom(lo, v.from, hi)
				for {
					m := reused.NextBatch(buf)
					want := make([]uint64, len(buf))
					wm := 0
					for wm < m {
						v, ok := fresh.Next()
						if !ok {
							break
						}
						want[wm] = v
						wm++
					}
					if wm != m {
						t.Fatalf("%v: %+v reused yielded %d, fresh %d", kind, v, m, wm)
					}
					for i := 0; i < m; i++ {
						if buf[i] != want[i] {
							t.Fatalf("%v: %+v: reused %d, fresh %d", kind, v, buf[i], want[i])
						}
					}
					if m == 0 {
						if _, ok := fresh.Next(); ok {
							t.Fatalf("%v: %+v reused exhausted early", kind, v)
						}
						break
					}
				}
			}
		}
	}
}

// TestIterFromMatchesSuffix checks mid-range iteration (IterFrom) for
// every kind.
func TestIterFromMatchesSuffix(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, kind := range allKinds {
		values, ranges := randRanged(rng, 1200, 12, 1<<16)
		s := Build(kind, values, ranges)
		for k := 0; k+1 < len(ranges); k++ {
			lo, hi := ranges[k], ranges[k+1]
			from := lo + rng.Intn(hi-lo)
			it := s.IterFrom(lo, from, hi)
			for i := from; i < hi; i++ {
				v, ok := it.Next()
				if !ok {
					t.Fatalf("%v: IterFrom ended at %d of [%d,%d)", kind, i, from, hi)
				}
				if want := s.At(lo, i); v != want {
					t.Fatalf("%v: IterFrom pos %d = %d, At = %d", kind, i, v, want)
				}
			}
			if _, ok := it.Next(); ok {
				t.Fatalf("%v: IterFrom overruns range end", kind)
			}
		}
	}
}
