// Result materialization: the pooled, allocation-free path from result
// IDs back to raw terms. Renderer holds the per-request dictionary
// cursors, as the index pools the ID-level selection states; the row
// writer that renders through it, results.Writer, lives with the server
// and owns everything between a row of IDs and the response bytes. The
// CLI resolves its answers through the same cursors.

package store

import (
	"strconv"
	"sync"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
)

// Renderer resolves result IDs to terms through stateful dictionary
// cursors: runs of nearby subject/object IDs (result streams arrive
// sorted) decode each front-coded bucket entry at most once, and the
// repeated predicate IDs of a pattern stream cost nothing. A Renderer is
// a single-goroutine object; acquire one per request and release it when
// the stream ends.
type Renderer struct {
	so, p dict.Extractor
}

var rendererPool = sync.Pool{New: func() any { return &Renderer{} }}

// AcquireRenderer takes a pooled renderer bound to the store's
// dictionaries.
func AcquireRenderer(st *Store) *Renderer {
	r := rendererPool.Get().(*Renderer)
	r.so.Bind(st.Dicts.SO)
	r.p.Bind(st.Dicts.P)
	//rdf:allow(ownership transfers to the caller; Release returns it to the pool)
	return r
}

// Release unbinds the cursors (so a pooled renderer never pins a retired
// store view) and returns the renderer to the pool.
func (r *Renderer) Release() {
	if r == nil {
		return
	}
	r.so.Bind(nil)
	r.p.Bind(nil)
	rendererPool.Put(r)
}

// AppendTerm appends the rendered subject/object term for id to buf,
// falling back to <id> notation for an ID the dictionary does not hold,
// exactly like Store.Render.
//
//rdf:hotpath
func (r *Renderer) AppendTerm(buf []byte, id core.ID) []byte {
	if t, ok := r.so.Extract(int(id)); ok {
		return append(buf, t...)
	}
	return appendIDTerm(buf, id)
}

// AppendPredicate appends the rendered predicate term for id to buf.
//
//rdf:hotpath
func (r *Renderer) AppendPredicate(buf []byte, id core.ID) []byte {
	if t, ok := r.p.Extract(int(id)); ok {
		return append(buf, t...)
	}
	return appendIDTerm(buf, id)
}

// Append appends the term id names in the given role: the one place that
// maps a role to its dictionary.
//
//rdf:hotpath
func (r *Renderer) Append(buf []byte, role core.Role, id core.ID) []byte {
	if role == core.RoleP {
		return r.AppendPredicate(buf, id)
	}
	return r.AppendTerm(buf, id)
}

//rdf:hotpath
func appendIDTerm(buf []byte, id core.ID) []byte {
	buf = append(buf, '<')
	buf = strconv.AppendUint(buf, uint64(id), 10)
	return append(buf, '>')
}
