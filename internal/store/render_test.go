package store

import (
	"encoding/json"
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

// jsonLines is a keyed layout for tests: one JSON object per row and
// line, unbound cells omitted.
var jsonLines = RowLayout{Open: "{", Sep: ",", Close: "}\n", Keyed: true}

// jsonCell encodes a raw term as a JSON string.
type jsonCell struct{}

func (jsonCell) EncodeTerm(dst, raw []byte) []byte { return AppendJSONString(dst, raw) }

// bindRows readies r to render jsonLines rows over st with the given
// columns.
func bindRows(r *Rows, st *Store, vars []string, roles []core.Role) *Renderer {
	rend := AcquireRenderer(st)
	r.Bind(&jsonLines, jsonCell{}, rend)
	r.SetColumns(len(vars), roles)
	for _, v := range vars {
		r.AddKey(append(AppendJSONString(nil, []byte(v)), ':'))
	}
	return rend
}

// TestAppendJSONString runs terms with every escape-worthy byte class
// through AppendJSONString and checks each decodes back to the exact
// bytes.
func TestAppendJSONString(t *testing.T) {
	for _, term := range []string{
		"\"plain literal\"",
		"\"tab\tand\nnewline\r\"",
		"\"back\\\\slash\"",
		"\"ctrl\x01byte\x1f\"",
		"\"unicode é世\"",
		"<http://ex/iri>",
		"",
	} {
		enc := AppendJSONString([]byte("x"), []byte(term))
		var got string
		if err := json.Unmarshal(enc[1:], &got); err != nil {
			t.Fatalf("%q encoded to invalid JSON %s: %v", term, enc[1:], err)
		}
		if got != term {
			t.Fatalf("%q round-tripped to %q", term, got)
		}
	}
}

// TestRowsAllocs pins the zero-alloc steady state of the row renderer
// across plain-dictionary and overlay stores.
func TestRowsAllocs(t *testing.T) {
	for name, st := range map[string]*Store{
		"dict":    buildSample(t, core.Layout2Tp),
		"overlay": buildOverlaySample(t, core.Layout2Tp),
	} {
		t.Run(name, func(t *testing.T) {
			var rows []core.ID
			it := st.Index.Select(core.NewPattern(-1, -1, -1))
			for {
				tr, ok := it.Next()
				if !ok {
					break
				}
				rows = append(rows, tr.S, tr.P, tr.O)
			}
			var r Rows
			rend := bindRows(&r, st, []string{"x", "p", "y"}, []core.Role{core.RoleSO, core.RoleP, core.RoleSO})
			defer rend.Release()
			defer r.Release()
			// Warm: the first pass fills the term table and grows the
			// buffer.
			buf := r.Write(nil, rows, len(rows)/3)
			n := len(rows) / 3
			i := 0
			if a := testing.AllocsPerRun(500, func() {
				buf = r.Write(buf[:0], rows[3*(i%n):], 1)
				i++
			}); a != 0 {
				t.Errorf("Write allocs/row = %v, want 0", a)
			}
		})
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
