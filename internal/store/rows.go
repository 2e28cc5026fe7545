package store

import "rdfindexes/internal/core"

// RowLayout is the fixed text around the cells of one solution row in
// one output format.
type RowLayout struct {
	Open, Sep, CellClose, Close string
	// Between goes before every row but the first (JSON's comma).
	Between string
	// Keyed rows name their cells with the column's key fragment and omit
	// unbound ones; the others are positional and leave them empty.
	Keyed bool
}

// TermEncoder appends the output-format encoding of one raw N-Triples
// term.
type TermEncoder interface {
	EncodeTerm(dst, raw []byte) []byte
}

// Rows renders solution rows for the row writer. Each distinct
// (role, ID) is encoded once per request into a TermTable and copied from
// there for every later cell that names it.
//
// A Rows serves one request on one goroutine; the owning writer keeps
// the output buffer.
type Rows struct {
	layout *RowLayout
	enc    TermEncoder
	rend   *Renderer
	terms  TermTable
	roles  []core.Role
	keys   []byte // per-column key fragments back to back
	keyoff []span
	raw    []byte // raw term scratch
	n      int    // rows rendered
}

// span is one fragment of a byte buffer: [start, end).
type span struct{ start, end int }

// Bind readies the renderer for a request: rows in layout, terms
// resolved through rend and encoded by enc.
func (r *Rows) Bind(layout *RowLayout, enc TermEncoder, rend *Renderer) {
	r.layout, r.enc, r.rend = layout, enc, rend
	r.n = 0
}

// Release drops the request's references and starts a new term table
// generation; the scratch buffers are kept unless they outgrew trimCap.
func (r *Rows) Release() {
	r.layout, r.enc, r.rend = nil, nil, nil
	r.terms.Reset()
	r.keys = TrimBuffer(r.keys)
	r.raw = TrimBuffer(r.raw)
	r.roles = r.roles[:0]
	r.keyoff = r.keyoff[:0]
}

// SetColumns fixes the columns of the rows to come: roles[i] is the ID
// space of column i; missing entries are subjects/objects. A keyed
// layout's fragments follow through AddKey, one per column.
func (r *Rows) SetColumns(width int, roles []core.Role) {
	r.roles = append(r.roles[:0], roles...)
	for len(r.roles) < width {
		r.roles = append(r.roles, core.RoleSO)
	}
	r.roles = r.roles[:width]
	r.keys = r.keys[:0]
	r.keyoff = r.keyoff[:0]
}

// AddKey appends the next column's key fragment.
func (r *Rows) AddKey(frag []byte) {
	start := len(r.keys)
	r.keys = append(r.keys, frag...)
	r.keyoff = append(r.keyoff, span{start, len(r.keys)})
}

// Len returns the number of rows rendered in this request.
func (r *Rows) Len() int { return r.n }

// AppendTerm appends the encoding of (role, id), from the term table when
// this request has encoded it before.
//
//rdf:hotpath
func (r *Rows) AppendTerm(buf []byte, role core.Role, id core.ID) []byte {
	if enc, ok := r.terms.Get(role, id); ok {
		return append(buf, enc...)
	}
	r.raw = r.rend.Append(r.raw[:0], role, id)
	start := len(buf)
	buf = r.enc.EncodeTerm(buf, r.raw)
	r.terms.Add(role, id, buf[start:])
	return buf
}

// Write renders rows rows of the SetColumns width, held back to back in
// ids, and returns buf extended by them.
//
//rdf:hotpath
func (r *Rows) Write(buf []byte, ids []core.ID, rows int) []byte {
	l := r.layout
	w := len(r.roles)
	for i := 0; i < rows; i++ {
		if r.n > 0 {
			buf = append(buf, l.Between...)
		}
		buf = append(buf, l.Open...)
		first := true
		for j, id := range ids[i*w : (i+1)*w] {
			if l.Keyed && id == core.Wildcard {
				continue
			}
			if !first {
				buf = append(buf, l.Sep...)
			}
			first = false
			if l.Keyed {
				sp := r.keyoff[j]
				buf = append(buf, r.keys[sp.start:sp.end]...)
			}
			if id != core.Wildcard {
				buf = r.AppendTerm(buf, r.roles[j], id)
			}
			buf = append(buf, l.CellClose...)
		}
		buf = append(buf, l.Close...)
		r.n++
	}
	return buf
}
