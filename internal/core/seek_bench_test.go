package core

import (
	"math/rand"
	"testing"

	"rdfindexes/internal/trie"
)

// seekProbe is a (first, second) component pair of one permutation.
type seekProbe struct{ a, b uint32 }

// seekProbes samples n pairs that occur in the permutation perm of d and
// n pairs whose first component occurs but whose second does not occur
// under it.
func seekProbes(rng *rand.Rand, d *Dataset, perm Perm, n int) (present, absent []seekProbe) {
	pairs := map[seekProbe]bool{}
	var maxB ID
	for _, t := range d.Triples {
		a, b, _ := perm.Apply(t)
		pairs[seekProbe{uint32(a), uint32(b)}] = true
		if b > maxB {
			maxB = b
		}
	}
	for len(present) < n {
		a, b, _ := perm.Apply(d.Triples[rng.Intn(len(d.Triples))])
		present = append(present, seekProbe{uint32(a), uint32(b)})
	}
	for len(absent) < n {
		a, _, _ := perm.Apply(d.Triples[rng.Intn(len(d.Triples))])
		q := seekProbe{uint32(a), uint32(rng.Intn(int(maxB) + 1))}
		if !pairs[q] {
			absent = append(absent, q)
		}
	}
	return present, absent
}

// BenchmarkSeek times one trie seek as the pattern selects perform it:
// RootRange, FindChild1 among the root's children, ChildRange and a
// batch drain of the children through one reused iterator. SPO serves
// SP? (a subject's few predicates: the short-range scan) and POS serves
// ?PO (a predicate's many objects: the partition search), each with
// probes that are present and absent.
func BenchmarkSeek(b *testing.B) {
	rng := rand.New(rand.NewSource(401))
	d := skewedDataset(rng, 200000)
	x, err := Build(d, Layout2Tp)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		perm Perm
	}{{"SPO", PermSPO}, {"POS", PermPOS}} {
		t := x.Trie(tc.perm)
		present, absent := seekProbes(rng, d, tc.perm, 4096)
		for _, pc := range []struct {
			name   string
			probes []seekProbe
		}{{"present", present}, {"absent", absent}} {
			b.Run(tc.name+"/"+pc.name, func(b *testing.B) {
				benchSeek(b, t, pc.probes)
			})
		}
	}
}

func benchSeek(b *testing.B, t *trie.Trie, probes []seekProbe) {
	var buf [256]uint64
	it := t.Iter2(0, 0)
	drained := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := probes[i%len(probes)]
		b1, e1 := t.RootRange(q.a)
		j := t.FindChild1(b1, e1, q.b)
		if j < 0 {
			continue
		}
		b2, e2 := t.ChildRange(j)
		it.Reset(b2, b2, e2)
		for {
			k := it.NextBatch(buf[:])
			if k == 0 {
				break
			}
			drained += k
		}
	}
	seekSink = drained
}

var seekSink int
