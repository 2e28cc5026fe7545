// Result materialization: the pooled, allocation-free path from result
// IDs back to rendered terms. Renderer holds the per-request dictionary
// cursors (mirroring core.QueryCtx for the ID-level scratch), Rows renders
// solution rows a block at a time for both row writers, and NDJSONWriter
// streams /query and /v1/sparql result rows as NDJSON with an
// escaped-term cache keyed by (role, ID) — the dominant cost of result
// streaming after the ID-level pipeline went zero-alloc was exactly this
// layer re-decoding front-coded buckets and allocating a row object per
// result.

package store

import (
	"io"
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

// HasDicts reports whether the renderer resolves terms through
// dictionaries (false for integer-only stores).
func (r *Renderer) HasDicts() bool { return r.hasDicts }

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

// StreamAt is the one threshold of the response path, shared by
// NDJSONWriter and results.Writer: a row writer holds its output until the
// pending bytes reach StreamAt and flushes in StreamAt-sized writes from
// then on. An answer that ends below it is never flushed by the writer;
// the server sends it in one piece and may cache it (DESIGN.md, "Response
// path").
const StreamAt = 64 << 10

// trimCap is the largest buffer capacity a pooled row writer retains;
// anything a pathological request grew beyond it is handed back to the
// garbage collector on Release. It must stay above StreamAt plus a row,
// or every pooled output buffer would be regrown per request.
const trimCap = 1 << 20

// NDJSONWriter streams result rows as NDJSON through pooled scratch:
// rendered terms are JSON-escaped once per distinct ID per request and
// replayed from a term table after that, rows are hand-built into a
// batched output buffer a block at a time (no reflection, no per-row
// allocation; see Rows), and the dictionary work goes through a
// Renderer's cursors. The zero-alloc steady state holds across plain and
// overlay-dictionary stores. A writer serves one request on one
// goroutine.
type NDJSONWriter struct {
	w    io.Writer
	rend *Renderer
	ints bool // integer-only store: pattern rows carry raw IDs as numbers
	err  error

	buf  []byte // pending output
	raw  []byte // unescaped term scratch
	key  []byte // column key fragment scratch
	rows Rows
}

// ndjsonRows is the NDJSON layout of a solution row: one JSON object per
// line, unbound variables omitted.
var ndjsonRows = RowLayout{Open: "{", Sep: ",", Close: "}\n", Keyed: true}

// jsonTerm encodes a raw term as a JSON string, NDJSON's cell value.
type jsonTerm struct{}

//rdf:hotpath
func (jsonTerm) EncodeTerm(dst, raw []byte) []byte { return AppendJSONString(dst, raw) }

var ndjsonPool = sync.Pool{New: func() any { return &NDJSONWriter{} }}

// AcquireNDJSON takes a pooled writer streaming to w with terms resolved
// against st.
func AcquireNDJSON(st *Store, w io.Writer) *NDJSONWriter {
	n := ndjsonPool.Get().(*NDJSONWriter)
	n.w = w
	n.rend = AcquireRenderer(st)
	n.ints = st.Dicts == nil
	n.err = nil
	n.rows.Bind(&ndjsonRows, jsonTerm{}, n.rend)
	//rdf:allow(ownership transfers to the caller; Release returns it to the pool)
	return n
}

// Release flushes nothing (call Flush first), clears the per-request
// caches and returns the writer to the pool.
func (n *NDJSONWriter) Release() {
	if n == nil {
		return
	}
	n.rend.Release()
	n.rend, n.w = nil, nil
	n.rows.Release()
	n.buf = TrimBuffer(n.buf)
	n.raw = TrimBuffer(n.raw)
	n.key = TrimBuffer(n.key)
	ndjsonPool.Put(n)
}

// TrimBuffer empties a pooled writer's scratch buffer for reuse, or drops
// it when its capacity outgrew trimCap.
func TrimBuffer(b []byte) []byte {
	if cap(b) > trimCap {
		return nil
	}
	return b[:0]
}

// Flush writes any pending bytes to the underlying writer and reports
// the first write error seen on this stream.
func (n *NDJSONWriter) Flush() error {
	if len(n.buf) > 0 && n.err == nil {
		_, n.err = n.w.Write(n.buf)
	}
	n.buf = n.buf[:0]
	return n.err
}

func (n *NDJSONWriter) maybeFlush() {
	if len(n.buf) >= StreamAt {
		n.Flush()
	}
}

// Pending returns the bytes not yet flushed: the whole answer while it
// is below StreamAt. The slice is the writer's buffer, valid until the
// next write, Flush or Release.
func (n *NDJSONWriter) Pending() []byte { return n.buf }

// AppendRaw appends pre-encoded bytes (a hand-built summary line) to the
// pending output verbatim.
//
//rdf:hotpath
func (n *NDJSONWriter) AppendRaw(p []byte) {
	n.buf = append(n.buf, p...)
	n.maybeFlush()
}

// WriteError emits an {"error": msg} line.
func (n *NDJSONWriter) WriteError(msg string) {
	n.buf = append(n.buf, `{"error":`...)
	n.raw = append(n.raw[:0], msg...)
	n.buf = AppendJSONString(n.buf, n.raw)
	n.buf = append(n.buf, '}', '\n')
	n.maybeFlush()
}

// WriteTriple emits one pattern-query result row: terms when the store
// has dictionaries, raw IDs as JSON numbers otherwise (matching the
// pre-writer server behavior).
//
//rdf:hotpath
func (n *NDJSONWriter) WriteTriple(t core.Triple) {
	n.buf = append(n.buf, `{"s":`...)
	n.appendID(t.S, core.RoleSO)
	n.buf = append(n.buf, `,"p":`...)
	n.appendID(t.P, core.RoleP)
	n.buf = append(n.buf, `,"o":`...)
	n.appendID(t.O, core.RoleSO)
	n.buf = append(n.buf, '}', '\n')
	n.maybeFlush()
}

//rdf:hotpath
func (n *NDJSONWriter) appendID(id core.ID, role core.Role) {
	if n.ints {
		n.buf = strconv.AppendUint(n.buf, uint64(id), 10)
		return
	}
	n.buf = n.rows.AppendTerm(n.buf, role, id)
}

// SetVars fixes the columns of subsequent WriteRow rows — vars[i] is the
// key of column i and roles[i] its ID space (a compiled plan's Vars and
// Roles) — pre-escaping every variable name once.
func (n *NDJSONWriter) SetVars(vars []string, roles []core.Role) {
	n.rows.SetColumns(len(vars), roles)
	for _, v := range vars {
		n.raw = append(n.raw[:0], v...)
		n.key = AppendJSONString(n.key[:0], n.raw)
		n.rows.AddKey(append(n.key, ':'))
	}
}

// WriteRow emits one BGP solution row over the SetVars columns; a column
// holding core.Wildcard is unbound and omitted. Solution terms always
// render as strings (the <id> fallback covers integer-only stores),
// matching the pre-writer server behavior.
//
//rdf:hotpath
func (n *NDJSONWriter) WriteRow(row []core.ID) { n.WriteBlock(row, 1) }

// WriteBlock emits rows solution rows held back to back in ids, exactly
// as that many WriteRow calls would.
//
//rdf:hotpath
func (n *NDJSONWriter) WriteBlock(ids []core.ID, rows int) {
	n.buf = n.rows.Write(n.buf, ids, rows)
	n.maybeFlush()
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
