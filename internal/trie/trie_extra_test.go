package trie

import (
	"bytes"
	"math/rand"
	"testing"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/seq"
)

// TestAllKindCombinations builds the Fig. 1 trie with every node/pointer
// representation combination and verifies a full structural walk.
func TestAllKindCombinations(t *testing.T) {
	nodeKinds := []seq.Kind{seq.KindCompact, seq.KindEF, seq.KindPEF, seq.KindVByte}
	ptrKinds := []seq.Kind{seq.KindEF, seq.KindPEF, seq.KindVByte}
	for _, nk := range nodeKinds {
		for _, pk := range ptrKinds {
			cfg := Config{Nodes1: nk, Nodes2: nk, Ptr0: pk, Ptr1: pk}
			tr := buildFrom(t, fig1Triples, 5, cfg)
			for _, want := range fig1Triples {
				b1, e1 := tr.RootRange(want[0])
				j := tr.FindChild1(b1, e1, want[1])
				if j < 0 {
					t.Fatalf("nodes=%v ptrs=%v: lost pair (%d, %d)", nk, pk, want[0], want[1])
				}
				b2, e2 := tr.ChildRange(j)
				if tr.FindChild2(b2, e2, want[2]) < 0 {
					t.Fatalf("nodes=%v ptrs=%v: lost triple %v", nk, pk, want)
				}
			}
		}
	}
}

// TestPtr1IterMatchesChildRange verifies the sequential pointer iterator
// used by the enumerate algorithm agrees with random-access ChildRange.
func TestPtr1IterMatchesChildRange(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	triples := randomTriples(rng, 3000, 200, 15, 300)
	tr := buildFrom(t, triples, 200, pefConfig)
	for root := 0; root < 200; root++ {
		b1, e1 := tr.RootRange(uint32(root))
		if b1 >= e1 {
			continue
		}
		it := tr.Ptr1Iter(b1, e1+1)
		first, ok := it.Next()
		if !ok {
			t.Fatalf("root %d: pointer iterator empty", root)
		}
		prev := int(first)
		for i := b1; i < e1; i++ {
			endv, ok := it.Next()
			if !ok {
				t.Fatalf("root %d: pointer iterator exhausted at %d", root, i)
			}
			wb, we := tr.ChildRange(i)
			if prev != wb || int(endv) != we {
				t.Fatalf("root %d pos %d: iter gives (%d, %d), ChildRange gives (%d, %d)",
					root, i, prev, endv, wb, we)
			}
			prev = int(endv)
		}
	}
}

// TestNodesPointersAccessors pins the level accessor panics and sizes.
func TestNodesPointersAccessors(t *testing.T) {
	tr := buildFrom(t, fig1Triples, 5, pefConfig)
	if tr.Nodes(1).Len() != 8 || tr.Nodes(2).Len() != 11 {
		t.Fatalf("node level sizes: %d, %d", tr.Nodes(1).Len(), tr.Nodes(2).Len())
	}
	if tr.Pointers(0).Len() != 6 || tr.Pointers(1).Len() != 9 {
		t.Fatalf("pointer level sizes: %d, %d", tr.Pointers(0).Len(), tr.Pointers(1).Len())
	}
	for _, fn := range []func(){
		func() { tr.Nodes(0) },
		func() { tr.Nodes(3) },
		func() { tr.Pointers(2) },
		func() { tr.ChildStats(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("accessor did not panic on invalid level")
				}
			}()
			fn()
		}()
	}
}

// TestTrieSizeBitsConsistent ensures the reported size is what Encode
// writes (the space accounting behind every bits/triple figure), and
// that its four sequences account for all of it but the two counts and
// the pads before word arrays, which depend on where a sequence starts.
func TestTrieSizeBitsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(277))
	triples := randomTriples(rng, 2000, 100, 10, 200)
	tr := buildFrom(t, triples, 100, pefConfig)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	tr.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.SizeBits(), 8*uint64(buf.Len()); got != want {
		t.Fatalf("SizeBits() = %d, Encode writes %d bits", got, want)
	}
	sum := tr.Nodes(1).SizeBits() + tr.Nodes(2).SizeBits() + tr.Pointers(0).SizeBits() + tr.Pointers(1).SizeBits()
	const slack = 4 * 3 * 7 * 8 // up to 7 pad bytes before each of a sequence's word arrays
	if d := int64(tr.SizeBits()) - int64(sum); d < 0 || d > 2*64+slack {
		t.Fatalf("SizeBits() = %d, parts sum to %d", tr.SizeBits(), sum)
	}
}
