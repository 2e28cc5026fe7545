package results

import (
	"io"
	"sync"

	"rdfindexes/internal/core"
	"rdfindexes/internal/store"
)

// StreamAt is the one threshold of the response path: the Writer holds
// its output until the pending bytes reach StreamAt and flushes in
// StreamAt-sized writes from then on. An answer that ends below it is
// never flushed by the writer; the server sends it in one piece and may
// cache it (DESIGN.md, "Response path").
const StreamAt = 64 << 10

// trimCap is the largest capacity, in elements, a pooled Writer's
// scratch slices retain; anything a pathological request grew beyond it
// is handed back to the garbage collector on Release. It must stay above
// StreamAt plus a block of rows, or every pooled output buffer would be
// regrown per request.
const trimCap = 1 << 20

// trimBuffer empties a pooled writer's scratch slice for reuse, or drops
// it when its capacity outgrew trimCap.
func trimBuffer[T any](b []T) []T {
	if cap(b) > trimCap {
		return nil
	}
	return b[:0]
}

// Writer streams one SPARQL result set in one of the four standard
// formats. Rows are hand-assembled into a batched output buffer a block
// at a time, terms resolve through the pooled dictionary cursors of a
// store.Renderer, and each distinct (role, ID) is format-encoded once per
// request and replayed from a term table after that — the steady-state
// row path performs no allocations in any format. Until its first flush
// the Writer also keeps the IDs of the rows it writes, so an answer held
// whole can be kept as IDs and rendered again in any format; a caller
// that will not read them flushes before Begin, which writes nothing and
// spares the rows that copy. A Writer
// serves one request on one goroutine; the sequence is Begin, any number
// of WriteRow or WriteBlock, End, Flush, Release.
type Writer struct {
	f    Format
	w    io.Writer
	rend *store.Renderer
	err  error

	buf   []byte      // pending output
	kept  []core.ID   // IDs of the rows written, back to back, until the first Flush
	raw   []byte      // raw N-Triples term scratch
	val   []byte      // unescaped literal value scratch
	terms termTable   // this request's encoded terms
	roles []core.Role // ID space of each column
	keys  []byte      // keyed formats' per-column key fragments, back to back
	keyAt []int       // column j's fragment is keys[keyAt[j]:keyAt[j+1]]
	n     int         // rows written
	// flushed is set by the first Flush; kept stays empty from then on.
	flushed bool

	vars []string  // column names, for WriteSolution only
	row  []core.ID // WriteSolution's scratch row
}

var writerPool = sync.Pool{New: func() any { return &Writer{} }}

// Acquire takes a pooled writer streaming format f to w, with terms
// resolved against st's dictionaries (an ID they do not hold renders in
// the documented <id> fallback notation).
func Acquire(f Format, st *store.Store, w io.Writer) *Writer {
	wr := writerPool.Get().(*Writer)
	wr.f = f
	wr.w = w
	wr.rend = store.AcquireRenderer(st)
	wr.err, wr.flushed = nil, false
	wr.n = 0
	//rdf:allow(ownership transfers to the caller; Release returns it to the pool)
	return wr
}

// Release clears the per-request state, starts a new term table
// generation and returns the writer to the pool. Call Flush first;
// Release drops any pending bytes.
func (wr *Writer) Release() {
	if wr == nil {
		return
	}
	wr.rend.Release()
	wr.rend, wr.w = nil, nil
	wr.terms.reset()
	wr.buf = trimBuffer(wr.buf)
	wr.raw = trimBuffer(wr.raw)
	wr.val = trimBuffer(wr.val)
	wr.keys = trimBuffer(wr.keys)
	wr.kept = trimBuffer(wr.kept)
	wr.vars = wr.vars[:0]
	writerPool.Put(wr)
}

// Rows returns the number of solutions written so far.
func (wr *Writer) Rows() int { return wr.n }

// Flush writes any pending bytes to the underlying writer and reports
// the first write error seen on this stream. The first Flush ends the
// keeping of row IDs: part of the answer has left, so its IDs no longer
// describe what Pending holds.
func (wr *Writer) Flush() error {
	if len(wr.buf) > 0 && wr.err == nil {
		_, wr.err = wr.w.Write(wr.buf)
	}
	wr.buf = wr.buf[:0]
	wr.kept, wr.flushed = wr.kept[:0], true
	return wr.err
}

// maybeFlush flushes once the pending bytes reach StreamAt, the response
// path's one threshold.
func (wr *Writer) maybeFlush() {
	if len(wr.buf) >= StreamAt {
		wr.Flush()
	}
}

// Pending returns the bytes not yet flushed and the IDs of the rows
// written, back to back: while the writer has not flushed (the result set
// is below StreamAt), the whole result set in both forms; after that, the
// unflushed tail and no IDs. Both slices are the writer's own, valid
// until the next write, Flush or Release.
func (wr *Writer) Pending() (body []byte, ids []core.ID) { return wr.buf, wr.kept }

// Begin writes the result set header and fixes the columns of the
// subsequent WriteRow rows, pre-encoding every per-column key fragment
// once. roles[i] is the ID space of column i (a compiled plan's Roles);
// columns past len(roles) are subjects/objects.
func (wr *Writer) Begin(vars []string, roles ...core.Role) {
	wr.vars = append(wr.vars[:0], vars...)
	wr.roles = append(wr.roles[:0], roles...)
	for len(wr.roles) < len(vars) {
		wr.roles = append(wr.roles, core.RoleSO)
	}
	wr.roles = wr.roles[:len(vars)]
	wr.keys = wr.keys[:0]
	wr.keyAt = append(wr.keyAt[:0], 0)
	switch wr.f {
	case JSON:
		wr.buf = append(wr.buf, `{"head":{"vars":[`...)
		for i, v := range vars {
			if i > 0 {
				wr.buf = append(wr.buf, ',')
			}
			wr.raw = append(wr.raw[:0], v...)
			wr.buf = appendJSONString(wr.buf, wr.raw)
			wr.keys = append(appendJSONString(wr.keys, wr.raw), ':')
			wr.keyAt = append(wr.keyAt, len(wr.keys))
		}
		wr.buf = append(wr.buf, `]},"results":{"bindings":[`...)
	case XML:
		wr.buf = append(wr.buf, xmlHeader...)
		for _, v := range vars {
			wr.raw = append(wr.raw[:0], v...)
			wr.buf = append(wr.buf, `<variable name="`...)
			wr.buf = appendXMLAttr(wr.buf, wr.raw)
			wr.buf = append(wr.buf, `"/>`...)
			wr.keys = append(wr.keys, `<binding name="`...)
			wr.keys = append(appendXMLAttr(wr.keys, wr.raw), '"', '>')
			wr.keyAt = append(wr.keyAt, len(wr.keys))
		}
		wr.buf = append(wr.buf, `</head><results>`...)
	default: // CSV names the columns, TSV writes them as variables
		l := &layouts[wr.f]
		for i, v := range vars {
			if i > 0 {
				wr.buf = append(wr.buf, l.Sep...)
			}
			if wr.f == TSV {
				wr.buf = append(append(wr.buf, '?'), v...)
			} else {
				wr.raw = append(wr.raw[:0], v...)
				wr.buf = appendCSVField(wr.buf, wr.raw)
			}
		}
		wr.buf = append(wr.buf, l.Close...)
	}
	wr.maybeFlush()
}

const xmlHeader = `<?xml version="1.0"?>` + "\n" +
	`<sparql xmlns="http://www.w3.org/2005/sparql-results#"><head>`

// rowLayout is the fixed text around the cells of one solution row in
// one format.
type rowLayout struct {
	Open, Sep, CellClose, Close string
	// Between goes before every row but the first (JSON's comma).
	Between string
	// Keyed rows name their cells with the column's key fragment and omit
	// unbound ones; the others are positional and leave them empty.
	Keyed bool
}

// layouts are the rows of each format, per each format's specification.
var layouts = [numFormats]rowLayout{
	JSON: {Open: "{", Sep: ",", Close: "}", Between: ",", Keyed: true},
	XML:  {Open: "<result>", CellClose: "</binding>", Close: "</result>", Keyed: true},
	CSV:  {Sep: ",", Close: "\r\n"},
	TSV:  {Sep: "\t", Close: "\n"},
}

// WriteRow emits one solution row: row[i] is the value of Begin's column
// i, core.Wildcard when the column is unbound.
//
//rdf:hotpath
func (wr *Writer) WriteRow(row []core.ID) { wr.WriteBlock(row, 1) }

// WriteBlock emits rows solution rows held back to back in ids (a
// sparql.Block's IDs), exactly as that many WriteRow calls would. Each
// distinct (role, ID) is encoded once per request into the term table
// and copied from there for every later cell that names it.
//
//rdf:hotpath
func (wr *Writer) WriteBlock(ids []core.ID, rows int) {
	l := &layouts[wr.f]
	w := len(wr.roles)
	if !wr.flushed {
		wr.kept = append(wr.kept, ids[:rows*w]...)
	}
	buf := wr.buf
	for i := 0; i < rows; i++ {
		if wr.n > 0 {
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
				buf = append(buf, wr.keys[wr.keyAt[j]:wr.keyAt[j+1]]...)
			}
			if id != core.Wildcard {
				role := wr.roles[j]
				if enc, ok := wr.terms.get(role, id); ok {
					buf = append(buf, enc...)
				} else {
					wr.raw = wr.rend.Append(wr.raw[:0], role, id)
					start := len(buf)
					buf = wr.encodeTerm(buf, wr.raw)
					wr.terms.add(role, id, buf[start:])
				}
			}
			buf = append(buf, l.CellClose...)
		}
		buf = append(buf, l.Close...)
		wr.n++
	}
	wr.buf = buf
	wr.maybeFlush()
}

// WriteSolution adapts WriteRow to the map rows of package sparql's
// Bindings, for benchmark/ladder/layers.go only; it goes when that type
// does.
func (wr *Writer) WriteSolution(b map[string]core.ID) {
	wr.row = wr.row[:0]
	for _, v := range wr.vars {
		id, ok := b[v]
		if !ok {
			id = core.Wildcard
		}
		wr.row = append(wr.row, id)
	}
	wr.WriteRow(wr.row)
}

// End writes the result set trailer. The buffered tail still needs a
// Flush.
func (wr *Writer) End() {
	switch wr.f {
	case JSON:
		wr.buf = append(wr.buf, `]}}`...)
		wr.buf = append(wr.buf, '\n')
	case XML:
		wr.buf = append(wr.buf, `</results></sparql>`...)
		wr.buf = append(wr.buf, '\n')
	}
	wr.maybeFlush()
}

// encodeTerm appends the format encoding of one raw N-Triples term.
//
//rdf:hotpath
func (wr *Writer) encodeTerm(dst, raw []byte) []byte {
	kind, body, lang, dtype := splitTerm(raw)
	switch wr.f {
	case JSON:
		switch kind {
		case termIRI:
			dst = append(dst, `{"type":"uri","value":`...)
			dst = appendJSONString(dst, body)
		case termBlank:
			dst = append(dst, `{"type":"bnode","value":`...)
			dst = appendJSONString(dst, body)
		default:
			wr.val = appendNTUnescape(wr.val[:0], body)
			dst = append(dst, `{"type":"literal","value":`...)
			dst = appendJSONString(dst, wr.val)
			if len(lang) > 0 {
				dst = append(dst, `,"xml:lang":`...)
				dst = appendJSONString(dst, lang)
			} else if len(dtype) > 0 {
				dst = append(dst, `,"datatype":`...)
				dst = appendJSONString(dst, dtype)
			}
		}
		return append(dst, '}')
	case XML:
		switch kind {
		case termIRI:
			dst = append(dst, `<uri>`...)
			dst = appendXMLText(dst, body)
			dst = append(dst, `</uri>`...)
		case termBlank:
			dst = append(dst, `<bnode>`...)
			dst = appendXMLText(dst, body)
			dst = append(dst, `</bnode>`...)
		default:
			wr.val = appendNTUnescape(wr.val[:0], body)
			dst = append(dst, `<literal`...)
			if len(lang) > 0 {
				dst = append(dst, ` xml:lang="`...)
				dst = appendXMLAttr(dst, lang)
				dst = append(dst, '"')
			} else if len(dtype) > 0 {
				dst = append(dst, ` datatype="`...)
				dst = appendXMLAttr(dst, dtype)
				dst = append(dst, '"')
			}
			dst = append(dst, '>')
			dst = appendXMLText(dst, wr.val)
			dst = append(dst, `</literal>`...)
		}
		return dst
	case CSV:
		// CSV carries plain string values: the IRI without brackets, the
		// blank node label with its _: prefix, the literal's lexical form
		// with language tag and datatype dropped (the W3C CSV profile is
		// deliberately lossy).
		switch kind {
		case termIRI:
			return appendCSVField(dst, body)
		case termBlank:
			wr.val = append(wr.val[:0], '_', ':')
			wr.val = append(wr.val, body...)
			return appendCSVField(dst, wr.val)
		default:
			wr.val = appendNTUnescape(wr.val[:0], body)
			return appendCSVField(dst, wr.val)
		}
	default: // TSV
		// TSV carries full Turtle-syntax terms, which is exactly the
		// dictionary's stored N-Triples serialization: IRIs bracketed,
		// literals quoted with their escapes, tags and datatypes attached.
		return append(dst, raw...)
	}
}

// Term kinds as classified by splitTerm.
const (
	termIRI = iota
	termBlank
	termLiteral
)

// splitTerm decomposes a raw N-Triples term: IRIs yield the bracketless
// IRI, blank nodes their label, literals the still-escaped lexical body
// plus the bare language tag or datatype IRI when present. Anything
// unrecognized is treated as an IRI value verbatim, so a malformed
// dictionary entry degrades to visible text instead of a panic.
//
//rdf:hotpath
func splitTerm(raw []byte) (kind int, body, lang, dtype []byte) {
	if len(raw) >= 2 {
		switch raw[0] {
		case '<':
			if raw[len(raw)-1] == '>' {
				return termIRI, raw[1 : len(raw)-1], nil, nil
			}
		case '_':
			if raw[1] == ':' {
				return termBlank, raw[2:], nil, nil
			}
		case '"':
			// Find the closing quote, honoring backslash escapes.
			i := 1
			for i < len(raw) {
				if raw[i] == '\\' && i+1 < len(raw) {
					i += 2
					continue
				}
				if raw[i] == '"' {
					break
				}
				i++
			}
			if i >= len(raw) {
				break // unterminated: fall through to the verbatim case
			}
			body = raw[1:i]
			rest := raw[i+1:]
			switch {
			case len(rest) > 1 && rest[0] == '@':
				lang = rest[1:]
			case len(rest) > 3 && rest[0] == '^' && rest[1] == '^' && rest[2] == '<' && rest[len(rest)-1] == '>':
				dtype = rest[3 : len(rest)-1]
			}
			return termLiteral, body, lang, dtype
		}
	}
	return termIRI, raw, nil, nil
}

// appendNTUnescape decodes the N-Triples escape set the dictionary
// serializer emits (\\ \" \n \r \t; an unknown escape passes its byte
// through, matching the parser).
//
//rdf:hotpath
func appendNTUnescape(dst, s []byte) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 >= len(s) {
			dst = append(dst, c)
			continue
		}
		i++
		switch s[i] {
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		default: // covers \" and \\ and passes unknown escapes through
			dst = append(dst, s[i])
		}
	}
	return dst
}

// appendXMLText appends s as XML character data, escaping the markup
// bytes.
//
//rdf:hotpath
func appendXMLText(dst, s []byte) []byte {
	for _, c := range s {
		switch c {
		case '&':
			dst = append(dst, `&amp;`...)
		case '<':
			dst = append(dst, `&lt;`...)
		case '>':
			dst = append(dst, `&gt;`...)
		case '\r':
			// Bare CR would be normalized away by XML parsers; a numeric
			// reference round-trips.
			dst = append(dst, `&#13;`...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendXMLAttr appends s as the body of a double-quoted XML attribute.
//
//rdf:hotpath
func appendXMLAttr(dst, s []byte) []byte {
	for _, c := range s {
		switch c {
		case '&':
			dst = append(dst, `&amp;`...)
		case '<':
			dst = append(dst, `&lt;`...)
		case '"':
			dst = append(dst, `&quot;`...)
		case '\n':
			dst = append(dst, `&#10;`...)
		case '\r':
			dst = append(dst, `&#13;`...)
		case '\t':
			dst = append(dst, `&#9;`...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes and control bytes; valid UTF-8 passes through verbatim.
//
//rdf:hotpath
func appendJSONString(dst, s []byte) []byte {
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

// appendCSVField appends s as one RFC 4180 field, quoting only when the
// content demands it (comma, quote, CR or LF).
//
//rdf:hotpath
func appendCSVField(dst, s []byte) []byte {
	need := false
	for _, c := range s {
		if c == ',' || c == '"' || c == '\r' || c == '\n' {
			need = true
			break
		}
	}
	if !need {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for _, c := range s {
		if c == '"' {
			dst = append(dst, '"', '"')
			continue
		}
		dst = append(dst, c)
	}
	return append(dst, '"')
}
