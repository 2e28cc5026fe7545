package core

import (
	"math/rand"
	"testing"
)

// numericFixture builds a dataset whose object IDs [base, base+len) are
// numeric literals with sorted values, as required by the ID-assignment
// scheme of Section 3.1.
type numericFixture struct {
	d      *Dataset
	r      *R
	values []uint64 // values[k] belongs to object ID base+k
	base   ID
}

// newNumericFixture returns n triples over 150 subjects and 8
// predicates; with ranked set, over 80 predicates, each used by a tenth
// of the subjects, on which 2Tp ranks POS's subjects in PS.
func newNumericFixture(rng *rand.Rand, n int, ranked bool) numericFixture {
	base := ID(50) // object IDs below base are non-numeric URIs
	numNumeric := 200
	values := make([]uint64, numNumeric)
	var cur uint64
	for i := range values {
		cur += uint64(rng.Intn(5)) // duplicates allowed
		values[i] = cur
	}
	ts := make([]Triple, 0, n)
	for len(ts) < n {
		s := ID(rng.Intn(150))
		p := ID(rng.Intn(8))
		if ranked {
			p += 8 * (s % 10)
		}
		var o ID
		if rng.Intn(2) == 0 {
			o = base + ID(rng.Intn(numNumeric))
		} else {
			o = ID(rng.Intn(int(base)))
		}
		ts = append(ts, Triple{s, p, o})
	}
	d := NewDataset(ts)
	return numericFixture{d: d, r: NewR(base, values), values: values, base: base}
}

func TestRIDRangeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	fx := newNumericFixture(rng, 3000, false)
	maxV := fx.values[len(fx.values)-1]
	for trial := 0; trial < 500; trial++ {
		lo := rng.Uint64() % (maxV + 3)
		hi := rng.Uint64() % (maxV + 3)
		idLo, idHi, ok := fx.r.IDRange(lo, hi)
		// Oracle: scan values.
		wantLo, wantHi := -1, -1
		for k, v := range fx.values {
			if v >= lo && v <= hi {
				if wantLo < 0 {
					wantLo = k
				}
				wantHi = k
			}
		}
		if wantLo < 0 {
			if ok {
				t.Fatalf("IDRange(%d, %d) = (%d, %d, true), want empty", lo, hi, idLo, idHi)
			}
			continue
		}
		if !ok || idLo != fx.base+ID(wantLo) || idHi != fx.base+ID(wantHi) {
			t.Fatalf("IDRange(%d, %d) = (%d, %d, %v), want (%d, %d, true)",
				lo, hi, idLo, idHi, ok, fx.base+ID(wantLo), fx.base+ID(wantHi))
		}
	}
}

func TestSelectValueRangeAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, ranked := range []bool{false, true} {
		fx := newNumericFixture(rng, 4000, ranked)
		maxV := fx.values[len(fx.values)-1]

		// Every static layout serves range queries: on POS where it is
		// stored, by filtering the ?P? route on 2To.
		selecters := map[string]RangeSelecter{}
		for name, x := range allLayouts(t, fx.d) {
			selecters[name] = x.(RangeSelecter)
		}

		inRange := func(o ID, lo, hi uint64) bool {
			if o < fx.base || int(o-fx.base) >= len(fx.values) {
				return false
			}
			v := fx.values[o-fx.base]
			return v >= lo && v <= hi
		}

		for trial := 0; trial < 60; trial++ {
			p := ID(rng.Intn(fx.d.NP))
			a := rng.Uint64() % (maxV + 2)
			b := rng.Uint64() % (maxV + 2)
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			var want []Triple
			for _, tr := range fx.d.Triples {
				if tr.P == p && inRange(tr.O, lo, hi) {
					want = append(want, tr)
				}
			}
			for name, x := range selecters {
				got := SelectValueRange(x, fx.r, p, lo, hi).Collect(-1)
				if !sameTripleSet(got, want) {
					t.Fatalf("%s: SelectValueRange(p=%d, [%d, %d]) = %d matches, want %d",
						name, p, lo, hi, len(got), len(want))
				}
				// POS order where the layout stores POS; 2To filters its ?P?
				// route, which emits in PSO order.
				perm := PermPOS
				if x.Layout() == Layout2To {
					perm = PermPSO
				}
				if i := firstMismatch(got, sortedByPermCopy(want, perm)); i >= 0 {
					t.Fatalf("%s: SelectValueRange(p=%d, [%d, %d]): triple %d = %v out of %v order",
						name, p, lo, hi, i, got[i], perm)
				}
			}
		}
	}
}

func TestRSmallSpace(t *testing.T) {
	// The paper reports < 0.1 bits/triple of extra space on WatDiv; with
	// sorted, dense numeric values the EF representation must stay tiny
	// relative to a realistic triple count.
	values := make([]uint64, 10000)
	for i := range values {
		values[i] = uint64(i * 3)
	}
	r := NewR(0, values)
	perValue := float64(r.SizeBits()) / float64(len(values))
	if perValue > 8 {
		t.Errorf("R takes %.2f bits per numeric value; expected well under a byte", perValue)
	}
}

func TestREmptyAndDegenerate(t *testing.T) {
	r := NewR(10, nil)
	if _, _, ok := r.IDRange(0, 100); ok {
		t.Error("empty R returned a non-empty range")
	}
	one := NewR(3, []uint64{42})
	if lo, hi, ok := one.IDRange(42, 42); !ok || lo != 3 || hi != 3 {
		t.Errorf("IDRange(42, 42) = (%d, %d, %v), want (3, 3, true)", lo, hi, ok)
	}
	if _, _, ok := one.IDRange(43, 41); ok {
		t.Error("inverted bounds returned a range")
	}
}
