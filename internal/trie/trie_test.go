package trie

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/seq"
)

// fig1Triples is the worked example of Fig. 1 of the paper.
var fig1Triples = [][3]uint32{
	{0, 0, 2}, {0, 0, 3}, {0, 1, 0},
	{1, 0, 4}, {1, 2, 0}, {1, 2, 1},
	{2, 0, 2}, {2, 1, 0},
	{3, 2, 1}, {3, 2, 2},
	{4, 2, 4},
}

func buildFrom(t *testing.T, triples [][3]uint32, numRoots int, cfg Config) *Trie {
	t.Helper()
	tr, err := Build(len(triples), numRoots, func(i int) (uint32, uint32, uint32) {
		return triples[i][0], triples[i][1], triples[i][2]
	}, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr
}

func allConfigs() []Config {
	var cfgs []Config
	kinds := []seq.Kind{seq.KindCompact, seq.KindEF, seq.KindPEF, seq.KindVByte}
	for _, k := range kinds {
		cfgs = append(cfgs, Config{Nodes1: k, Nodes2: k, Ptr0: seq.KindEF, Ptr1: seq.KindEF})
	}
	return cfgs
}

// pefConfig stores nodes with PEF and pointers with EF, the paper's
// choice for most trie levels.
var pefConfig = Config{Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF}

func TestFig1Example(t *testing.T) {
	for _, cfg := range allConfigs() {
		tr := buildFrom(t, fig1Triples, 5, cfg)

		if tr.NumTriples() != 11 || tr.NumRoots() != 5 || tr.NumInternal() != 8 {
			t.Fatalf("cfg %+v: sizes = (%d, %d, %d), want (11, 5, 8)",
				cfg, tr.NumTriples(), tr.NumRoots(), tr.NumInternal())
		}

		// The paper resolves (1, 2, ?): pointers (2, 4), find 2 at position
		// 3, pointers (4, 6), completions {0, 1}.
		begin, end := tr.RootRange(1)
		if begin != 2 || end != 4 {
			t.Fatalf("RootRange(1) = (%d, %d), want (2, 4)", begin, end)
		}
		j := tr.FindChild1(begin, end, 2)
		if j != 3 {
			t.Fatalf("FindChild1(2, 4, 2) = %d, want 3", j)
		}
		b2, e2 := tr.ChildRange(j)
		if b2 != 4 || e2 != 6 {
			t.Fatalf("ChildRange(3) = (%d, %d), want (4, 6)", b2, e2)
		}
		it := tr.Iter2(b2, e2)
		var got []uint32
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, uint32(v))
		}
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("completions of (1, 2) = %v, want [0 1]", got)
		}

		// Expected level contents from the figure.
		wantNodes1 := []uint32{0, 1, 0, 2, 0, 1, 2, 2}
		wantPtr0 := []int{0, 2, 4, 6, 7, 8}
		wantPtr1 := []int{0, 2, 3, 4, 6, 7, 8, 10, 11}
		wantNodes2 := []uint32{2, 3, 0, 4, 0, 1, 2, 0, 1, 2, 4}
		for a := 0; a < 5; a++ {
			b, e := tr.RootRange(uint32(a))
			if b != wantPtr0[a] || e != wantPtr0[a+1] {
				t.Fatalf("RootRange(%d) = (%d, %d), want (%d, %d)", a, b, e, wantPtr0[a], wantPtr0[a+1])
			}
			for i := b; i < e; i++ {
				if got := tr.Node1At(b, i); got != wantNodes1[i] {
					t.Fatalf("Node1At(%d, %d) = %d, want %d", b, i, got, wantNodes1[i])
				}
			}
		}
		for i := 0; i < 8; i++ {
			b, e := tr.ChildRange(i)
			if b != wantPtr1[i] || e != wantPtr1[i+1] {
				t.Fatalf("ChildRange(%d) = (%d, %d), want (%d, %d)", i, b, e, wantPtr1[i], wantPtr1[i+1])
			}
			it := tr.Iter2(b, e)
			for k := b; k < e; k++ {
				if got, _ := it.Next(); got != uint64(wantNodes2[k]) {
					t.Fatalf("Iter2(%d, %d) value %d = %d, want %d", b, e, k, got, wantNodes2[k])
				}
			}
		}

		// FindChild2: (0, 0) has children {2, 3}.
		b0, e0 := tr.ChildRange(0)
		if p := tr.FindChild2(b0, e0, 3); p != 1 {
			t.Fatalf("FindChild2 for object 3 = %d, want 1", p)
		}
		if p := tr.FindChild2(b0, e0, 4); p != -1 {
			t.Fatalf("FindChild2 for absent object = %d, want -1", p)
		}
	}
}

func TestChildStatsFig1(t *testing.T) {
	tr := buildFrom(t, fig1Triples, 5, pefConfig)
	avg1, max1 := tr.ChildStats(1)
	if avg1 != 8.0/5.0 || max1 != 2 {
		t.Fatalf("ChildStats(1) = (%v, %d), want (1.6, 2)", avg1, max1)
	}
	avg2, max2 := tr.ChildStats(2)
	if avg2 != 11.0/8.0 || max2 != 2 {
		t.Fatalf("ChildStats(2) = (%v, %d), want (1.375, 2)", avg2, max2)
	}
}

func TestRootGaps(t *testing.T) {
	// Roots 1 and 3 have no triples: their ranges must be empty and the
	// others unaffected.
	triples := [][3]uint32{{0, 1, 1}, {2, 5, 7}, {4, 0, 0}}
	tr := buildFrom(t, triples, 6, pefConfig)
	for a, wantLen := range []int{1, 0, 1, 0, 1, 0} {
		b, e := tr.RootRange(uint32(a))
		if e-b != wantLen {
			t.Errorf("RootRange(%d) has %d children, want %d", a, e-b, wantLen)
		}
	}
	// Out-of-space root yields an empty range.
	if b, e := tr.RootRange(100); b != 0 || e != 0 {
		t.Errorf("RootRange(100) = (%d, %d), want (0, 0)", b, e)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := map[string][][3]uint32{
		"unsorted-roots": {{1, 0, 0}, {0, 0, 0}},
		"unsorted-mid":   {{0, 2, 0}, {0, 1, 0}},
		"unsorted-last":  {{0, 0, 5}, {0, 0, 1}},
		"duplicate":      {{0, 0, 1}, {0, 0, 1}},
	}
	for name, triples := range cases {
		_, err := Build(len(triples), 10, func(i int) (uint32, uint32, uint32) {
			return triples[i][0], triples[i][1], triples[i][2]
		}, pefConfig)
		if err == nil {
			t.Errorf("%s: Build accepted invalid input", name)
		}
	}
	_, err := Build(1, 1, func(int) (uint32, uint32, uint32) { return 5, 0, 0 }, pefConfig)
	if err == nil {
		t.Error("Build accepted out-of-range root")
	}
}

// randomTriples returns n distinct sorted triples over the given ID spaces.
func randomTriples(rng *rand.Rand, n, na, nb, nc int) [][3]uint32 {
	seen := map[[3]uint32]bool{}
	for len(seen) < n {
		t := [3]uint32{uint32(rng.Intn(na)), uint32(rng.Intn(nb)), uint32(rng.Intn(nc))}
		seen[t] = true
	}
	out := make([][3]uint32, 0, n)
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return out
}

func TestRandomTrieFullEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	triples := randomTriples(rng, 5000, 300, 20, 400)
	for _, cfg := range allConfigs() {
		tr := buildFrom(t, triples, 300, cfg)
		// Walk the whole trie and compare against the input.
		var got [][3]uint32
		for a := 0; a < 300; a++ {
			b1, e1 := tr.RootRange(uint32(a))
			it1 := tr.Iter1(b1, e1)
			for i := b1; i < e1; i++ {
				bv, ok := it1.Next()
				if !ok {
					t.Fatalf("Iter1 exhausted early at %d", i)
				}
				b2, e2 := tr.ChildRange(i)
				it2 := tr.Iter2(b2, e2)
				for k := b2; k < e2; k++ {
					cv, ok := it2.Next()
					if !ok {
						t.Fatalf("Iter2 exhausted early at %d", k)
					}
					got = append(got, [3]uint32{uint32(a), uint32(bv), uint32(cv)})
				}
			}
		}
		if len(got) != len(triples) {
			t.Fatalf("cfg %+v: enumerated %d triples, want %d", cfg, len(got), len(triples))
		}
		for i := range got {
			if got[i] != triples[i] {
				t.Fatalf("cfg %+v: triple %d = %v, want %v", cfg, i, got[i], triples[i])
			}
		}
	}
}

func TestTrieRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	triples := randomTriples(rng, 2000, 100, 10, 200)
	tr := buildFrom(t, triples, 100, pefConfig)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	tr.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(codec.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTriples() != tr.NumTriples() || got.NumRoots() != tr.NumRoots() {
		t.Fatal("decoded trie header mismatch")
	}
	for _, tri := range triples {
		b1, e1 := got.RootRange(tri[0])
		j := got.FindChild1(b1, e1, tri[1])
		if j < 0 {
			t.Fatalf("decoded trie lost pair (%d, %d)", tri[0], tri[1])
		}
		b2, e2 := got.ChildRange(j)
		if got.FindChild2(b2, e2, tri[2]) < 0 {
			t.Fatalf("decoded trie lost triple %v", tri)
		}
	}
}

func TestDecodeCorruptTrie(t *testing.T) {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	w.Uvarint(5)                                            // n
	w.Uvarint(3)                                            // numRoots
	seq.Write(w, seq.BuildMono(seq.KindEF, []uint64{0, 1})) // wrong ptr0 length
	seq.Write(w, seq.BuildMono(seq.KindEF, []uint64{0}))
	seq.Write(w, seq.BuildMono(seq.KindEF, []uint64{0, 1}))
	seq.Write(w, seq.BuildMono(seq.KindEF, []uint64{0}))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(codec.NewReader(&buf)); err == nil {
		t.Fatal("Decode accepted inconsistent trie")
	}
}
