// Result materialization: the pooled, allocation-free path from result
// IDs back to rendered terms. Renderer holds the per-request dictionary
// cursors (mirroring core.QueryCtx for the ID-level scratch) and Rows
// renders solution rows a block at a time through an escaped-term cache
// keyed by (role, ID) — the dominant cost of result streaming after the
// ID-level pipeline went zero-alloc was exactly this layer re-decoding
// front-coded buckets and allocating a row object per result. The row
// writer that owns a Rows, results.Writer, lives with the server.

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
	so, p    dict.Extractor
	hasDicts bool
}

var rendererPool = sync.Pool{New: func() any { return &Renderer{} }}

// AcquireRenderer takes a pooled renderer bound to the store's
// dictionaries (or to the <id> fallback notation when the store has
// none).
func AcquireRenderer(st *Store) *Renderer {
	r := rendererPool.Get().(*Renderer)
	if st.Dicts != nil {
		r.so.Bind(st.Dicts.SO)
		r.p.Bind(st.Dicts.P)
		r.hasDicts = true
	} else {
		r.hasDicts = false
	}
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
	r.hasDicts = false
	rendererPool.Put(r)
}

// AppendTerm appends the rendered subject/object term for id to buf,
// falling back to <id> notation exactly like Store.Render.
//
//rdf:hotpath
func (r *Renderer) AppendTerm(buf []byte, id core.ID) []byte {
	if r.hasDicts {
		if t, ok := r.so.Extract(int(id)); ok {
			return append(buf, t...)
		}
	}
	return appendIDTerm(buf, id)
}

// AppendPredicate appends the rendered predicate term for id to buf.
//
//rdf:hotpath
func (r *Renderer) AppendPredicate(buf []byte, id core.ID) []byte {
	if r.hasDicts {
		if t, ok := r.p.Extract(int(id)); ok {
			return append(buf, t...)
		}
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

// StreamAt is the one threshold of the response path: the row writer
// (results.Writer) holds its output until the pending bytes reach
// StreamAt and flushes in StreamAt-sized writes from then on. An answer
// that ends below it is never flushed by the writer; the server sends it
// in one piece and may cache it (DESIGN.md, "Response path").
const StreamAt = 64 << 10

// trimCap is the largest buffer capacity a pooled row writer retains;
// anything a pathological request grew beyond it is handed back to the
// garbage collector on Release. It must stay above StreamAt plus a row,
// or every pooled output buffer would be regrown per request.
const trimCap = 1 << 20

// TrimBuffer empties a pooled writer's scratch buffer for reuse, or drops
// it when its capacity outgrew trimCap.
func TrimBuffer(b []byte) []byte {
	if cap(b) > trimCap {
		return nil
	}
	return b[:0]
}

// AppendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes and control bytes; valid UTF-8 passes through verbatim.
//
//rdf:hotpath
func AppendJSONString(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
