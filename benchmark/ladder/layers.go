package main

// layers.go holds every call the ladder makes into the repository's
// packages, one thin wrapper per call. A refactor of those packages (the
// ROADMAP plans to merge the sparql.Execute*/Stream* entry points, fold
// Select/SelectCtx and replace Bindings) is repaired here and nowhere
// else; until it is, the driver reports the ladder as unavailable and
// still prints every end-to-end metric.

import (
	"io"
	"net/http"
	"os"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/seq"
	"rdfindexes/internal/server"
	"rdfindexes/internal/server/results"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/store"
	"rdfindexes/internal/trie"
)

// system is the store opened in process, as `rdfstore serve` opens it.
type system struct {
	fixed *store.Store   // read-only serving
	mut   *store.Mutable // mutable serving (mixed-rw)
	h     *server.Server
}

// openSystem loads the store (store.Read, or OpenMutable with its WAL
// replay) and builds the HTTP handler over it.
func openSystem(path string, mutable bool, threshold int) (*system, error) {
	s := &system{}
	var err error
	if mutable {
		s.mut, err = store.OpenMutable(path, threshold)
	} else {
		s.fixed, err = store.Read(path)
	}
	if err != nil {
		return nil, err
	}
	s.resetHandler()
	return s, nil
}

// resetHandler replaces the handler, and with it the result and plan
// caches, so that each pass starts from the same cache state.
func (s *system) resetHandler() {
	if s.mut != nil {
		s.h = server.NewMutable(s.mut, server.Options{})
	} else {
		s.h = server.New(s.fixed, server.Options{})
	}
}

func (s *system) close() error {
	if s.mut != nil {
		return s.mut.Close()
	}
	return nil
}

// view is the store snapshot a request arriving now would be served from.
func (s *system) view() *store.Store {
	if s.mut != nil {
		return s.mut.View()
	}
	return s.fixed
}

func (s *system) serve(w http.ResponseWriter, r *http.Request) { s.h.ServeHTTP(w, r) }

func (s *system) bitsPerTriple() float64 { return core.BitsPerTriple(s.view().Index) }

// prepared carries one query through the stages the handler runs.
type prepared struct {
	st         *store.Store
	translated string
	q          sparql.Query
	order      []int
}

func (s *system) translate(text string) (*prepared, error) {
	st := s.view()
	translated, err := st.TranslateQuery(text)
	return &prepared{st: st, translated: translated}, err
}

func (p *prepared) parse() (err error) {
	p.q, err = sparql.Parse(p.translated)
	return err
}

func (p *prepared) plan() { p.order = sparql.Plan(p.q) }

// constants counts the bound terms of the query: one dictionary Locate
// each in TranslateQuery.
func (p *prepared) constants() int {
	n := 0
	for _, tp := range p.q.Patterns {
		for _, t := range []sparql.Term{tp.S, tp.P, tp.O} {
			if !t.IsVar() {
				n++
			}
		}
	}
	return n
}

// ctxStore routes the executor's selects through a query context, as the
// server's adapter of the same name does.
type ctxStore struct {
	x  core.Index
	qc *core.QueryCtx
}

func (s ctxStore) Select(p core.Pattern) *core.Iterator { return core.SelectWithCtx(s.x, p, s.qc) }
func (s ctxStore) NumTriples() int                      { return s.x.NumTriples() }
func (s ctxStore) SelectVarSorted(p core.Pattern) (*core.VarIter, bool) {
	if vs, ok := s.x.(core.VarSelecter); ok {
		return vs.SelectVarSorted(p)
	}
	return nil, false
}

// execStats is what one execution examined and returned.
type execStats struct{ patterns, matched, rows int }

// exec streams the query's solutions into emit (nil: a no-op).
func (p *prepared) exec(emit func(sparql.Bindings)) (execStats, error) {
	if emit == nil {
		emit = func(sparql.Bindings) {}
	}
	qc := core.AcquireQueryCtx()
	defer qc.Release()
	st, err := sparql.StreamWithOrder(nil, p.q, ctxStore{x: p.st.Index, qc: qc}, p.order, emit)
	return execStats{st.PatternsIssued, st.TriplesMatched, st.Results}, err
}

// formats lists the result serializations by name, the served one
// (SPARQL JSON) first.
func formats() []string {
	var names []string
	for _, f := range results.Formats() {
		names = append(names, f.String())
	}
	return names
}

// execRender executes the query into the pooled results writer of the
// named format, as the handler does on a cache miss.
func (p *prepared) execRender(format string, w io.Writer) (rows int, err error) {
	f := results.JSON
	for _, g := range results.Formats() {
		if g.String() == format {
			f = g
		}
	}
	wr := results.Acquire(f, p.st, w)
	defer wr.Release()
	wr.Begin(p.q.Vars)
	if _, err := p.exec(func(b sparql.Bindings) { wr.WriteSolution(b) }); err != nil {
		return 0, err
	}
	wr.End()
	return wr.Rows(), wr.Flush()
}

// resultIDs returns the distinct term IDs of the answer in first-seen
// order: the sequence the results writer extracts from the dictionary
// (it caches an encoded term per ID within a request).
func (p *prepared) resultIDs() ([]int, error) {
	seen := map[core.ID]bool{}
	var ids []int
	_, err := p.exec(func(b sparql.Bindings) {
		for _, v := range p.q.Vars {
			if id, ok := b[v]; ok && !seen[id] {
				seen[id] = true
				ids = append(ids, int(id))
			}
		}
	})
	return ids, err
}

// extractor is a dictionary cursor over the subject/object dictionary.
type extractor struct{ e *dict.Extractor }

func (p *prepared) extractor() extractor { return extractor{dict.NewExtractor(p.st.Dicts.SO)} }

// extract decodes the terms and returns their total length in bytes.
func (x extractor) extract(ids []int) (bytes int) {
	for _, id := range ids {
		term, _ := x.e.Extract(id)
		bytes += len(term)
	}
	return bytes
}

// term returns one term as a string.
func (x extractor) term(id int) string {
	t, _ := x.e.Extract(id)
	return string(t)
}

// locate looks the terms up in the subject/object dictionary and returns
// how many were found.
func (s *system) locate(terms []string) (found int) {
	d := s.view().Dicts.SO
	for _, t := range terms {
		if _, ok := d.Locate(t); ok {
			found++
		}
	}
	return found
}

// selection is the atomic pattern sequence a query decomposes into (the
// paper's Table 6 methodology).
type selection struct {
	x    core.Index
	pats []core.Pattern
}

func (p *prepared) decompose() (selection, error) {
	pats, err := sparql.Decompose(p.q, p.st.Index)
	return selection{p.st.Index, pats}, err
}

// replay resolves every pattern with Select and drains it batch-wise.
func (sel selection) replay() (triples int) {
	qc := core.AcquireQueryCtx()
	defer qc.Release()
	buf := qc.Batch()
	for _, p := range sel.pats {
		it := core.SelectWithCtx(sel.x, p, qc)
		for {
			k := it.NextBatch(buf)
			if k == 0 {
				break
			}
			triples += k
		}
	}
	return triples
}

// sampleTriples scans the index and keeps every stride-th triple.
func (s *system) sampleTriples(stride int) [][3]uint32 {
	var out [][3]uint32
	qc := core.AcquireQueryCtx()
	defer qc.Release()
	buf := qc.Batch()
	it := core.SelectWithCtx(s.view().Index, core.Pattern{S: core.Wildcard, P: core.Wildcard, O: core.Wildcard}, qc)
	for n := 0; ; {
		k := it.NextBatch(buf)
		if k == 0 {
			return out
		}
		for _, t := range buf[:k] {
			if n%stride == 0 {
				out = append(out, [3]uint32{uint32(t.S), uint32(t.P), uint32(t.O)})
			}
			n++
		}
	}
}

// spoTrie is the SPO permutation: level 2 holds predicates, level 3
// objects. nil when the serving index keeps no tries (a dynamic snapshot).
type spoTrie struct{ t *trie.Trie }

func (s *system) spoTrie() spoTrie { return spoTrie{s.view().Index.Trie(core.PermSPO)} }

func (t spoTrie) ok() bool { return t.t != nil }

// level2 returns the sibling range of subject s in the second level.
func (t spoTrie) level2(s uint32) (begin, end int) { return t.t.RootRange(s) }

// level3 returns the children of the second-level node at position i.
func (t spoTrie) level3(i int) (begin, end int) { return t.t.ChildRange(i) }

func (t spoTrie) findChild1(begin, end int, x uint32) int { return t.t.FindChild1(begin, end, x) }
func (t spoTrie) findChild2(begin, end int, x uint32) int { return t.t.FindChild2(begin, end, x) }

// cursor is a sequence iterator over a sibling range of level 2 or 3.
type cursor struct{ it seq.Iterator }

func (t spoTrie) iter(level, begin, end int) cursor {
	if level == 2 {
		return cursor{t.t.Iter1(begin, end)}
	}
	return cursor{t.t.Iter2(begin, end)}
}

func (c cursor) nextBatch(buf []uint64) int      { return c.it.NextBatch(buf) }
func (c cursor) nextGEQ(x uint64) (uint64, bool) { return c.it.NextGEQ(x) }

// writeOutcome is what one write did.
type writeOutcome struct {
	merged   bool
	walBytes int64 // WAL size after the write (0 right after a merge)
}

// write applies one insert or delete through the mutable store.
func (s *system) write(insert bool, subj, pred, obj string) (writeOutcome, error) {
	var res store.WriteResult
	var err error
	if insert {
		res, err = s.mut.Insert(subj, pred, obj)
	} else {
		res, err = s.mut.Delete(subj, pred, obj)
	}
	return writeOutcome{res.Merged, s.mut.WALBytes()}, err
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
