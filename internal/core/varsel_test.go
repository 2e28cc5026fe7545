package core

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSelectVarSortedRoutes pins which (layout, shape) pairs serve a
// sorted binding stream — exactly the routes that select one range of a
// plain third level — and checks each stream's Next and NextGEQ against
// the sorted distinct wildcard bindings of Select.
func TestSelectVarSortedRoutes(t *testing.T) {
	served := map[string][]Shape{
		"3T":     {ShapeSPx, ShapexPO, ShapeSxO},
		"2Tp":    {ShapeSPx, ShapexPO},
		"2Tp-PS": {ShapeSPx, ShapexPO},
		"2To":    {ShapeSPx, ShapexPO},
		"CC":     {ShapeSPx, ShapeSxO},
		"CC-all": nil,
	}
	rng := rand.New(rand.NewSource(241))
	for _, d := range testDatasets(rng, 3000) {
		// Probes: patterns of stored triples, plus perturbed ones that are
		// mostly absent.
		probes := append([]Triple(nil), d.Triples[:60]...)
		for i := 0; i < 20; i++ {
			tr := d.Triples[rng.Intn(d.Len())]
			tr.O = ID(rng.Intn(d.NO))
			probes = append(probes, tr)
		}
		for name, x := range allLayouts(t, d) {
			vs := x.(VarSelecter)
			for _, s := range AllShapes() {
				wantOK := false
				for _, w := range served[name] {
					wantOK = wantOK || w == s
				}
				for _, tr := range probes {
					pat := WithWildcards(tr, s)
					if _, ok := vs.SelectVarSorted(pat); ok != wantOK {
						t.Fatalf("%s: SelectVarSorted(%v) ok = %v, want %v", name, s, ok, wantOK)
					}
					if wantOK {
						checkVarStream(t, name, vs, pat, wildcardBindings(x, pat))
					}
				}
			}
		}
	}
}

// wildcardBindings returns the sorted distinct values that the single
// wildcard of pat takes over x.Select(pat).
func wildcardBindings(x Index, pat Pattern) []ID {
	seen := map[ID]bool{}
	for _, tr := range x.Select(pat).Collect(-1) {
		switch {
		case pat.S == Wildcard:
			seen[tr.S] = true
		case pat.P == Wildcard:
			seen[tr.P] = true
		default:
			seen[tr.O] = true
		}
	}
	out := make([]ID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkVarStream drains one stream with Next and a second with NextGEQ
// probes that skip every other binding, each time aiming just past the
// skipped one.
func checkVarStream(t *testing.T, name string, vs VarSelecter, pat Pattern, want []ID) {
	t.Helper()
	it, _ := vs.SelectVarSorted(pat)
	for i, w := range want {
		if got, ok := it.Next(); !ok || got != w {
			t.Fatalf("%s %v: Next #%d = %d, %v; want %d", name, pat, i, got, ok, w)
		}
	}
	if got, ok := it.Next(); ok {
		t.Fatalf("%s %v: Next past the end = %d", name, pat, got)
	}
	it, _ = vs.SelectVarSorted(pat)
	for j := 0; j < len(want); j += 2 {
		target := ID(0)
		if j > 0 {
			target = want[j-1] + 1
		}
		if got, ok := it.NextGEQ(target); !ok || got != want[j] {
			t.Fatalf("%s %v: NextGEQ(%d) = %d, %v; want %d", name, pat, target, got, ok, want[j])
		}
	}
	if len(want) > 0 {
		if got, ok := it.NextGEQ(want[len(want)-1] + 1); ok {
			t.Fatalf("%s %v: NextGEQ past the last binding = %d", name, pat, got)
		}
	}
}

// TestSelectVarSortedRanks seeks the sorted object stream of 2Tp's SP?,
// whose SPO level holds ranks among the predicate's objects in POS, with
// NextGEQ targets inside, between and past those objects: at each object
// of s under p, one above it, one below it, below p's first object,
// between two objects of p that s lacks, and past p's last object. Each
// answer must be the oracle's first object of (s, p) at or above the
// target, from a fresh stream and from one already advanced.
func TestSelectVarSortedRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	d := skewedDataset(rng, 4000)
	x, err := Build(d, Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	if x.(*staticIndex).xref[PermSPO] == nil {
		t.Fatal("2Tp's SPO is not cross-compressed")
	}
	vs := x.(VarSelecter)
	objectsOf := map[ID][]ID{} // p -> its distinct objects, ascending
	for _, tr := range sortedByPermCopy(d.Triples, PermPOS) {
		objs := objectsOf[tr.P]
		if len(objs) == 0 || objs[len(objs)-1] != tr.O {
			objectsOf[tr.P] = append(objs, tr.O)
		}
	}
	for i := 0; i < 200; i++ {
		tr := d.Triples[rng.Intn(d.Len())]
		pat := Pattern{tr.S, tr.P, Wildcard}
		want := wildcardBindings(x, pat)
		ofP := objectsOf[tr.P]
		targets := []ID{0, ofP[len(ofP)-1] + 1, ofP[len(ofP)-1] + 1000}
		if ofP[0] > 0 {
			targets = append(targets, ofP[0]-1)
		}
		for _, o := range want {
			targets = append(targets, o, o+1)
			if o > 0 {
				targets = append(targets, o-1)
			}
		}
		for k := 0; k < 3; k++ {
			targets = append(targets, ofP[rng.Intn(len(ofP))]+ID(rng.Intn(2)))
		}
		firstGEQ := func(target ID) (ID, bool) {
			j := sort.Search(len(want), func(j int) bool { return want[j] >= target })
			if j == len(want) {
				return 0, false
			}
			return want[j], true
		}
		for _, target := range targets {
			it, ok := vs.SelectVarSorted(pat)
			if !ok {
				t.Fatalf("SelectVarSorted(%v) declined", pat)
			}
			wantID, wantOK := firstGEQ(target)
			if got, ok := it.NextGEQ(target); ok != wantOK || got != wantID {
				t.Fatalf("%v: NextGEQ(%d) = %d, %v; want %d, %v", pat, target, got, ok, wantID, wantOK)
			}
			if !wantOK {
				if got, ok := it.Next(); ok {
					t.Fatalf("%v: Next after a NextGEQ past the end = %d", pat, got)
				}
				continue
			}
			// Advanced past wantID, the stream seeks on from there.
			wantNext, wantNextOK := firstGEQ(wantID + 1)
			if got, ok := it.NextGEQ(target); ok != wantNextOK || got != wantNext {
				t.Fatalf("%v: second NextGEQ(%d) = %d, %v; want %d, %v", pat, target, got, ok, wantNext, wantNextOK)
			}
		}
	}
}
