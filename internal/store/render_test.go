package store

import (
	"fmt"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
)

// buildOverlaySample wraps the sample store's dictionaries in overlays
// with a few added terms, mimicking a mutable serving view.
func buildOverlaySample(t *testing.T, layout core.Layout) *Store {
	t.Helper()
	st := buildSample(t, layout)
	so := dict.NewOverlay(st.Dicts.SO.(*dict.Dict))
	p := dict.NewOverlay(st.Dicts.P.(*dict.Dict))
	for i := 0; i < 8; i++ {
		so.Add(fmt.Sprintf("<http://zz/new%d>", i))
		p.Add(fmt.Sprintf("<http://zz/pred%d>", i))
	}
	return &Store{Index: st.Index, Dicts: &rdf.Dicts{SO: so.View(), P: p.View()}}
}

func TestRendererMatchesRender(t *testing.T) {
	stores := map[string]*Store{
		"dict":    buildSample(t, core.Layout2Tp),
		"overlay": buildOverlaySample(t, core.Layout2Tp),
	}
	for name, st := range stores {
		rend := AcquireRenderer(st)
		var buf []byte
		// Past the end of each dictionary, IDs render as <id>.
		for id := 0; id < st.Dicts.SO.Len()+2; id++ {
			buf = rend.AppendTerm(buf[:0], core.ID(id))
			if got, want := string(buf), st.Render(core.ID(id)); got != want {
				t.Fatalf("%s: AppendTerm(%d) = %q, want %q", name, id, got, want)
			}
			buf = rend.AppendPredicate(buf[:0], core.ID(id))
			if got, want := string(buf), st.RenderPredicate(core.ID(id)); got != want {
				t.Fatalf("%s: AppendPredicate(%d) = %q, want %q", name, id, got, want)
			}
		}
		rend.Release()
	}
}

func TestRendererFallbackSharedPool(t *testing.T) {
	// A renderer released after serving one store must rebind cleanly to
	// another (pool reuse across stores and generations).
	a := buildSample(t, core.Layout2Tp)
	b := buildOverlaySample(t, core.Layout3T)
	for i := 0; i < 4; i++ {
		for _, st := range []*Store{a, b} {
			r := AcquireRenderer(st)
			got := string(r.AppendTerm(nil, 0))
			if want := st.Render(0); got != want {
				t.Fatalf("rebind: got %q want %q", got, want)
			}
			r.Release()
		}
	}
}
