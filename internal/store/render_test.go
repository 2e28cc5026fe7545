package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
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
		"ints":    {Index: buildSample(t, core.Layout2Tp).Index},
	}
	for name, st := range stores {
		rend := AcquireRenderer(st)
		n := 8
		if st.Dicts != nil {
			n = st.Dicts.SO.Len() + 2
		}
		var buf []byte
		for id := 0; id < n; id++ {
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

// decodeNDJSON parses every line the writer produced.
func decodeNDJSON(t *testing.T, body []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		m := map[string]any{}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

func TestNDJSONWriterRows(t *testing.T) {
	for name, st := range map[string]*Store{
		"dict":    buildSample(t, core.Layout2Tp),
		"overlay": buildOverlaySample(t, core.Layout2Tp),
	} {
		var out bytes.Buffer
		nw := AcquireNDJSON(st, &out)
		it := st.Index.Select(core.NewPattern(-1, -1, -1))
		var triples []core.Triple
		for {
			tr, ok := it.Next()
			if !ok {
				break
			}
			triples = append(triples, tr)
			nw.WriteTriple(tr)
			nw.WriteTriple(tr) // repeats exercise the term cache
		}
		if err := nw.Flush(); err != nil {
			t.Fatal(err)
		}
		nw.Release()
		lines := decodeNDJSON(t, out.Bytes())
		if len(lines) != 2*len(triples) {
			t.Fatalf("%s: %d lines, want %d", name, len(lines), 2*len(triples))
		}
		for i, tr := range triples {
			for _, m := range []map[string]any{lines[2*i], lines[2*i+1]} {
				if m["s"] != st.Render(tr.S) || m["p"] != st.RenderPredicate(tr.P) || m["o"] != st.Render(tr.O) {
					t.Fatalf("%s: row %v, want triple %v", name, m, tr)
				}
			}
		}
	}
}

func TestNDJSONWriterIntsAndSolutions(t *testing.T) {
	ints := &Store{Index: buildSample(t, core.Layout2Tp).Index}
	var out bytes.Buffer
	nw := AcquireNDJSON(ints, &out)
	nw.WriteTriple(core.Triple{S: 1, P: 2, O: 3})
	nw.SetVars([]string{"x", "y", "z", "p"}, []core.Role{core.RoleSO, core.RoleSO, core.RoleSO, core.RoleP})
	nw.WriteRow([]core.ID{1, core.Wildcard, 2, 7})
	nw.WriteError(`boom "quoted\"`)
	nw.AppendRaw([]byte("{\"matches\":1}\n"))
	if err := nw.Flush(); err != nil {
		t.Fatal(err)
	}
	nw.Release()
	lines := decodeNDJSON(t, out.Bytes())
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4", len(lines))
	}
	if lines[0]["s"] != float64(1) || lines[0]["o"] != float64(3) {
		t.Fatalf("ints row = %v, want numeric IDs", lines[0])
	}
	if lines[1]["x"] != "<1>" || lines[1]["z"] != "<2>" || lines[1]["p"] != "<7>" {
		t.Fatalf("solution row = %v", lines[1])
	}
	if _, hasY := lines[1]["y"]; hasY {
		t.Fatalf("unbound var emitted: %v", lines[1])
	}
	if lines[2]["error"] != `boom "quoted\"` {
		t.Fatalf("error line = %v", lines[2])
	}
	if lines[3]["matches"] != float64(1) {
		t.Fatalf("raw line = %v", lines[3])
	}
}

// TestNDJSONEscaping runs terms with every escape-worthy byte class
// through a real dictionary and checks the writer emits decodable JSON
// that round-trips the exact term.
func TestNDJSONEscaping(t *testing.T) {
	terms := []string{
		"\"plain literal\"",
		"\"tab\tand\nnewline\r\"",
		"\"back\\\\slash\"",
		"\"ctrl\x01byte\"",
		"\"unicode é世\"",
		"<http://ex/iri>",
	}
	sort.Strings(terms)
	so, err := dict.New(terms, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dict.New([]string{"<http://ex/p>"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A store with no triples still renders: the writer only needs dicts.
	d := core.NewDataset([]core.Triple{{S: 0, P: 0, O: 1}})
	d.NS, d.NO = so.Len(), so.Len()
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	st := &Store{Index: x, Dicts: &rdf.Dicts{SO: so, P: p}}
	var out bytes.Buffer
	nw := AcquireNDJSON(st, &out)
	// Column p reads the same IDs through the predicate dictionary.
	nw.SetVars([]string{"v", "p"}, []core.Role{core.RoleSO, core.RoleP})
	for id := range terms {
		nw.WriteRow([]core.ID{core.ID(id), core.ID(id % p.Len())})
	}
	if err := nw.Flush(); err != nil {
		t.Fatal(err)
	}
	nw.Release()
	lines := decodeNDJSON(t, out.Bytes())
	for i, want := range terms {
		if lines[i]["v"] != want {
			t.Fatalf("term %d round-tripped to %q, want %q", i, lines[i]["v"], want)
		}
		if wantP, _ := p.Extract(i % p.Len()); lines[i]["p"] != wantP {
			t.Fatalf("row %d: predicate column %q, want %q", i, lines[i]["p"], wantP)
		}
	}
}

// TestNDJSONWriterAllocs pins the zero-alloc steady state of the server
// row path across plain-dictionary, overlay and integer-only stores.
func TestNDJSONWriterAllocs(t *testing.T) {
	for name, st := range map[string]*Store{
		"dict":    buildSample(t, core.Layout2Tp),
		"overlay": buildOverlaySample(t, core.Layout2Tp),
		"ints":    {Index: buildSample(t, core.Layout2Tp).Index},
	} {
		t.Run(name, func(t *testing.T) {
			var triples []core.Triple
			it := st.Index.Select(core.NewPattern(-1, -1, -1))
			for {
				tr, ok := it.Next()
				if !ok {
					break
				}
				triples = append(triples, tr)
			}
			nw := AcquireNDJSON(st, io.Discard)
			defer nw.Release()
			nw.SetVars([]string{"x", "p", "y"}, []core.Role{core.RoleSO, core.RoleP, core.RoleSO})
			// Warm: first pass fills the term cache and grows the buffers.
			for _, tr := range triples {
				nw.WriteTriple(tr)
				nw.WriteRow([]core.ID{tr.S, tr.P, tr.O})
			}
			nw.Flush()
			i := 0
			if a := testing.AllocsPerRun(500, func() {
				tr := triples[i%len(triples)]
				nw.WriteTriple(tr)
				i++
			}); a != 0 {
				t.Errorf("WriteTriple allocs/row = %v, want 0", a)
			}
			row := make([]core.ID, 3)
			if a := testing.AllocsPerRun(500, func() {
				tr := triples[i%len(triples)]
				row[0], row[1], row[2] = tr.S, tr.P, tr.O
				nw.WriteRow(row)
				i++
			}); a != 0 {
				t.Errorf("WriteRow allocs/row = %v, want 0", a)
			}
			nw.Flush()
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
