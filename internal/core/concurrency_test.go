package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentReaders exercises the immutability claim with the pools
// in play: 16 goroutines select at once on one index and on a
// DynamicSnapshot with a non-empty log over the same base, so selection
// states cross goroutines through the base's pools. Every stream is
// drained to its end, through Next or through NextBatch at a buffer size
// per goroutine, and must equal the oracle's stream in the layout's
// emission order. Run with -race.
func TestConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	d := skewedDataset(rng, 3000)
	for name, x := range allLayouts(t, d) {
		t.Run(name, func(t *testing.T) {
			dyn := NewDynamicFromIndex(x, -1)
			for i := 0; i < 40; i++ {
				tr := d.Triples[rng.Intn(len(d.Triples))]
				if _, err := dyn.Delete(tr); err != nil {
					t.Fatal(err)
				}
				if _, err := dyn.Insert(Triple{tr.S, tr.P, ID(rng.Intn(d.NO))}); err != nil {
					t.Fatal(err)
				}
			}
			snap := dyn.Snapshot()
			if snap.LogSize() == 0 {
				t.Fatal("the snapshot's log is empty")
			}
			live := dyn.LiveTriples()

			type probe struct {
				p             Pattern
				static, dynam []Triple // the oracle's streams
			}
			probes := make([]probe, 120)
			for i := range probes {
				tr := d.Triples[rng.Intn(len(d.Triples))]
				p := WithWildcards(tr, Shape(i%int(NumShapes)))
				perm := emitPerm(x.Layout(), p.Shape())
				probes[i] = probe{p, sortedByPermCopy(refSelect(d.Triples, p), perm), sortedByPermCopy(refSelect(live, p), perm)}
			}

			var wg sync.WaitGroup
			errs := make(chan string, 16)
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					local := rand.New(rand.NewSource(int64(g)))
					buf := make([]Triple, 1+g*17)
					var got []Triple
					for i := 0; i < 200; i++ {
						pr := probes[local.Intn(len(probes))]
						var src Index = x
						want := pr.static
						if i%2 == 1 {
							src, want = snap, pr.dynam
						}
						got = got[:0]
						it := src.Select(pr.p)
						if g%2 == 0 {
							for tr, ok := it.Next(); ok; tr, ok = it.Next() {
								got = append(got, tr)
							}
						} else {
							for k := it.NextBatch(buf); k > 0; k = it.NextBatch(buf) {
								got = append(got, buf[:k]...)
							}
						}
						if len(got) != len(want) {
							errs <- fmt.Sprintf("%T %v: %d triples, oracle %d", src, pr.p, len(got), len(want))
							return
						}
						if j := firstMismatch(got, want); j >= 0 {
							errs <- fmt.Sprintf("%T %v: triple %d = %v, oracle %v", src, pr.p, j, got[j], want[j])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}

// TestSelectPartialDrainAbandonment checks that a partly drained
// iterator keeps its state: selections issued while it is still live,
// and drained to their end, take other states, and it then yields the
// rest of its stream.
func TestSelectPartialDrainAbandonment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := skewedDataset(rng, 2000)
	x, err := Build(d, Layout3T)
	if err != nil {
		t.Fatal(err)
	}
	pat := WithWildcards(d.Triples[0], ShapeSxx)
	want := x.Select(pat).Collect(-1)
	if len(want) < 2 {
		t.Fatalf("pattern %v has %d matches, want at least 2", pat, len(want))
	}

	it := x.Select(pat)
	first, ok := it.Next() // partly drained
	if !ok || first != want[0] {
		t.Fatalf("first triple %v, %v; want %v", first, ok, want[0])
	}
	for i := 0; i < 3; i++ {
		if got := x.Select(pat).Collect(-1); len(got) != len(want) || firstMismatch(got, want) >= 0 {
			t.Fatalf("selection %d beside a live iterator returned %v, want %v", i, got, want)
		}
	}
	if rest := it.Collect(-1); len(rest) != len(want)-1 || firstMismatch(rest, want[1:]) >= 0 {
		t.Fatalf("the partly drained iterator went on with %v, want %v", rest, want[1:])
	}
}
