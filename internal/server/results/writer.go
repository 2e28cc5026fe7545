package results

import (
	"io"
	"sync"

	"rdfindexes/internal/core"
	"rdfindexes/internal/store"
)

// Writer streams one SPARQL result set in one of the four standard
// formats. Rows are hand-assembled into a batched output buffer a block
// at a time by a store.Rows, terms resolve through the pooled dictionary
// cursors of a store.Renderer, and each distinct term is format-encoded
// once per request and replayed from a term table after that — the
// steady-state row path performs no allocations in any format. A Writer
// serves one
// request on one goroutine; the sequence is Begin, any number of
// WriteRow or WriteBlock, End, Flush, Release.
type Writer struct {
	f    Format
	w    io.Writer
	rend *store.Renderer
	err  error

	buf  []byte // pending output
	raw  []byte // raw N-Triples term scratch
	val  []byte // unescaped literal value scratch
	key  []byte // column key fragment scratch
	rows store.Rows

	vars []string  // column names, for WriteSolution only
	row  []core.ID // WriteSolution's scratch row
}

var writerPool = sync.Pool{New: func() any { return &Writer{} }}

// Acquire takes a pooled writer streaming format f to w, with terms
// resolved against st's dictionaries (integer-only stores render the
// documented <id> fallback notation).
func Acquire(f Format, st *store.Store, w io.Writer) *Writer {
	wr := writerPool.Get().(*Writer)
	wr.f = f
	wr.w = w
	wr.rend = store.AcquireRenderer(st)
	wr.err = nil
	wr.rows.Bind(&layouts[f], wr, wr.rend)
	//rdf:allow(ownership transfers to the caller; Release returns it to the pool)
	return wr
}

// Release clears the per-request state and returns the writer to the
// pool. Call Flush first; Release drops any pending bytes.
func (wr *Writer) Release() {
	if wr == nil {
		return
	}
	wr.rend.Release()
	wr.rend, wr.w = nil, nil
	wr.rows.Release()
	wr.buf = store.TrimBuffer(wr.buf)
	wr.raw = store.TrimBuffer(wr.raw)
	wr.val = store.TrimBuffer(wr.val)
	wr.key = store.TrimBuffer(wr.key)
	wr.vars = wr.vars[:0]
	writerPool.Put(wr)
}

// Rows returns the number of solutions written so far.
func (wr *Writer) Rows() int { return wr.rows.Len() }

// Flush writes any pending bytes to the underlying writer and reports
// the first write error seen on this stream.
func (wr *Writer) Flush() error {
	if len(wr.buf) > 0 && wr.err == nil {
		_, wr.err = wr.w.Write(wr.buf)
	}
	wr.buf = wr.buf[:0]
	return wr.err
}

// maybeFlush flushes once the pending bytes reach store.StreamAt, the
// response path's one threshold.
func (wr *Writer) maybeFlush() {
	if len(wr.buf) >= store.StreamAt {
		wr.Flush()
	}
}

// Pending returns the bytes not yet flushed: the whole result set while
// it is below store.StreamAt. The slice is the writer's buffer, valid
// until the next write, Flush or Release.
func (wr *Writer) Pending() []byte { return wr.buf }

// Begin writes the result set header and fixes the columns of the
// subsequent WriteRow rows, pre-encoding every per-column key fragment
// once. roles[i] is the ID space of column i (a compiled plan's Roles);
// columns past len(roles) are subjects/objects.
func (wr *Writer) Begin(vars []string, roles ...core.Role) {
	wr.vars = append(wr.vars[:0], vars...)
	wr.rows.SetColumns(len(vars), roles)
	switch wr.f {
	case JSON:
		wr.buf = append(wr.buf, `{"head":{"vars":[`...)
		for i, v := range vars {
			if i > 0 {
				wr.buf = append(wr.buf, ',')
			}
			wr.raw = append(wr.raw[:0], v...)
			wr.buf = store.AppendJSONString(wr.buf, wr.raw)
			wr.key = store.AppendJSONString(wr.key[:0], wr.raw)
			wr.rows.AddKey(append(wr.key, ':'))
		}
		wr.buf = append(wr.buf, `]},"results":{"bindings":[`...)
	case XML:
		wr.buf = append(wr.buf, xmlHeader...)
		for _, v := range vars {
			wr.raw = append(wr.raw[:0], v...)
			wr.buf = append(wr.buf, `<variable name="`...)
			wr.buf = appendXMLAttr(wr.buf, wr.raw)
			wr.buf = append(wr.buf, `"/>`...)
			wr.key = append(wr.key[:0], `<binding name="`...)
			wr.key = appendXMLAttr(wr.key, wr.raw)
			wr.rows.AddKey(append(wr.key, '"', '>'))
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

// layouts are the rows of each format. Keyed formats name their cells
// (the Begin key fragments) and omit unbound ones; the others are
// positional and leave them empty, per each format's specification.
var layouts = [numFormats]store.RowLayout{
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
// sparql.Block's IDs), exactly as that many WriteRow calls would.
//
//rdf:hotpath
func (wr *Writer) WriteBlock(ids []core.ID, rows int) {
	wr.buf = wr.rows.Write(wr.buf, ids, rows)
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

// EncodeTerm appends the format encoding of one raw N-Triples term; it
// makes the writer its store.Rows' store.TermEncoder.
//
//rdf:hotpath
func (wr *Writer) EncodeTerm(dst, raw []byte) []byte {
	kind, body, lang, dtype := splitTerm(raw)
	switch wr.f {
	case JSON:
		switch kind {
		case termIRI:
			dst = append(dst, `{"type":"uri","value":`...)
			dst = store.AppendJSONString(dst, body)
		case termBlank:
			dst = append(dst, `{"type":"bnode","value":`...)
			dst = store.AppendJSONString(dst, body)
		default:
			wr.val = appendNTUnescape(wr.val[:0], body)
			dst = append(dst, `{"type":"literal","value":`...)
			dst = store.AppendJSONString(dst, wr.val)
			if len(lang) > 0 {
				dst = append(dst, `,"xml:lang":`...)
				dst = store.AppendJSONString(dst, lang)
			} else if len(dtype) > 0 {
				dst = append(dst, `,"datatype":`...)
				dst = store.AppendJSONString(dst, dtype)
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
