package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPatternShape(t *testing.T) {
	w := -1
	cases := []struct {
		s, p, o int
		want    Shape
	}{
		{1, 2, 3, ShapeSPO},
		{1, 2, w, ShapeSPx},
		{1, w, 3, ShapeSxO},
		{1, w, w, ShapeSxx},
		{w, 2, 3, ShapexPO},
		{w, 2, w, ShapexPx},
		{w, w, 3, ShapexxO},
		{w, w, w, Shapexxx},
	}
	for _, c := range cases {
		if got := NewPattern(c.s, c.p, c.o).Shape(); got != c.want {
			t.Errorf("Shape(%d,%d,%d) = %v, want %v", c.s, c.p, c.o, got, c.want)
		}
	}
}

func TestShapeString(t *testing.T) {
	want := []string{"SPO", "SP?", "S?O", "S??", "?PO", "?P?", "??O", "???"}
	for i, s := range AllShapes() {
		if s.String() != want[i] {
			t.Errorf("Shape(%d).String() = %q, want %q", i, s.String(), want[i])
		}
	}
	if got := Shape(NumShapes).String(); got != "Shape(8)" {
		t.Errorf("Shape(8).String() = %q", got)
	}
}

func TestWithWildcardsMatchesSource(t *testing.T) {
	tr := Triple{3, 5, 7}
	for _, s := range AllShapes() {
		p := WithWildcards(tr, s)
		if p.Shape() != s {
			t.Errorf("WithWildcards(%v, %v).Shape() = %v", tr, s, p.Shape())
		}
		if !p.Matches(tr) {
			t.Errorf("WithWildcards(%v, %v) does not match its source", tr, s)
		}
	}
}

func TestPermApplyRestore(t *testing.T) {
	f := func(s, p, o uint32) bool {
		tr := Triple{ID(s), ID(p), ID(o)}
		for perm := Perm(0); perm < NumPerms; perm++ {
			a, b, c := perm.Apply(tr)
			if perm.Restore(a, b, c) != tr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermDistinct(t *testing.T) {
	// The six permutations must produce six distinct component orders.
	tr := Triple{1, 2, 3}
	seen := map[[3]ID]Perm{}
	for perm := Perm(0); perm < NumPerms; perm++ {
		a, b, c := perm.Apply(tr)
		key := [3]ID{a, b, c}
		if prev, dup := seen[key]; dup {
			t.Fatalf("permutations %v and %v coincide", prev, perm)
		}
		seen[key] = perm
	}
}

func sortOracle(ts []Triple, p Perm) {
	sort.SliceStable(ts, func(i, j int) bool {
		ai, bi, ci := p.Apply(ts[i])
		aj, bj, cj := p.Apply(ts[j])
		if ai != aj {
			return ai < aj
		}
		if bi != bj {
			return bi < bj
		}
		return ci < cj
	})
}

func TestSortPermMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	spaces := []struct{ ns, np, no int }{
		{100, 10, 200},              // radix path, small
		{1 << 20, 1 << 11, 1 << 21}, // radix path, wide
		{1 << 30, 1 << 20, 1 << 30}, // 80 bits: comparison fallback
	}
	for _, sp := range spaces {
		for perm := Perm(0); perm < NumPerms; perm++ {
			n := 3000
			ts := make([]Triple, n)
			for i := range ts {
				ts[i] = Triple{
					ID(rng.Intn(sp.ns)), ID(rng.Intn(sp.np)), ID(rng.Intn(sp.no)),
				}
			}
			want := make([]Triple, n)
			copy(want, ts)
			sortOracle(want, perm)
			SortPerm(ts, perm, sp.ns, sp.np, sp.no)
			for i := range ts {
				if ts[i] != want[i] {
					t.Fatalf("spaces %+v perm %v: position %d = %v, want %v",
						sp, perm, i, ts[i], want[i])
				}
			}
		}
	}
}

func TestSortPermEmptyAndSingle(t *testing.T) {
	SortPerm(nil, PermPOS, 1, 1, 1)
	one := []Triple{{1, 2, 3}}
	SortPerm(one, PermOSP, 10, 10, 10)
	if one[0] != (Triple{1, 2, 3}) {
		t.Fatal("single-element sort corrupted data")
	}
}

func TestTripleLess(t *testing.T) {
	cases := []struct {
		a, b Triple
		want bool
	}{
		{Triple{0, 0, 0}, Triple{0, 0, 1}, true},
		{Triple{0, 1, 0}, Triple{0, 0, 9}, false},
		{Triple{1, 0, 0}, Triple{0, 9, 9}, false},
		{Triple{2, 3, 4}, Triple{2, 3, 4}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
