package dict

import "rdfindexes/internal/ef"

// This file is the zero-allocation dictionary access path: a stateful
// Extractor cursor that decodes each bucket entry at most once across a
// run of nearby IDs. The serving layers (internal/store's pooled renderer,
// the HTTP result writer, the CLI output paths) are built on it.

// Extractor is a stateful extraction cursor over a Dict or an Overlay.
// It remembers the bucket it last decoded and the buffer holding the
// current term, so a run of ascending or repeated IDs inside one bucket
// — the common case: result streams arrive sorted — decodes each bucket
// entry at most once instead of re-walking the bucket per term, and a
// repeated ID (a hot predicate) costs nothing at all. The returned term
// bytes stay valid until the next call on the same cursor.
//
// An Extractor is a single-goroutine object; the pooled renderers in
// internal/store hold one per dictionary per request.
type Extractor struct {
	d     *Dict    // front-coded base (nil only with a foreign Reader)
	added []string // overlay tail strings (ID = d.Len()+i), nil otherwise
	gen   Reader   // fallback for Reader implementations outside this package

	run    *run   // the run of the bucket decoded into w
	bucket int    // bucket currently decoded into w, -1 when none
	idx    int    // entry index of w's string within bucket, -1 for the sample before its head
	w      walker // the bucket's decoder; its owned buffer holds the current term

	// The numeric section cursor: ascending IDs of a section read one
	// value each, and a term whose numeral keeps the width and sign of
	// the one before it rewrites only its digits.
	sec    *Section    // the section vals reads, nil when none
	end    int         // the ID past sec's last
	next   int         // the ID whose value vals reads next
	vals   ef.Iterator // a cursor over sec's values
	held   bool        // w's buffer holds the numeral of ID next-1, of value prev
	prev   int64       //
	banded bool        // lo and hi hold the band of prev
	lo, hi int64       // the values whose numerals have the width and sign of prev's
}

// NewExtractor returns a cursor over r. Dict and Overlay (including
// Overlay views) use the incremental bucket protocol; any other Reader
// falls back to its one-shot ExtractAppend.
func NewExtractor(r Reader) *Extractor {
	e := &Extractor{}
	e.Bind(r)
	return e
}

// Bind points the cursor at a (possibly different) dictionary, keeping
// its buffers. Bind(nil) unbinds, dropping dictionary references so a
// pooled cursor does not pin a retired store view.
func (e *Extractor) Bind(r Reader) {
	e.d, e.added, e.gen, e.run, e.sec, e.end = nil, nil, nil, nil, nil, 0
	e.w = walker{buf: e.w.buf[:0]} // drops the walker's views of the old dictionary
	e.vals, e.held = ef.Iterator{}, false
	switch v := r.(type) {
	case *Dict:
		e.d = v
	case *Overlay:
		e.d, e.added = v.base, v.added
	case nil:
	default:
		e.gen = r
	}
	e.bucket = -1
}

// Extract returns the term bytes for id, valid until the next call on
// this cursor. Steady state is allocation-free: the only allocations are
// growing the cursor's term buffer toward the longest term seen.
//
//rdf:hotpath
func (e *Extractor) Extract(id int) ([]byte, bool) {
	if e.d == nil {
		if e.gen == nil {
			return nil, false
		}
		var ok bool
		e.w.buf, ok = e.gen.ExtractAppend(e.w.buf[:0], id)
		return e.w.buf, ok
	}
	d := e.d
	if id >= d.n {
		if i := id - d.n; i < len(e.added) {
			e.bucket, e.held = -1, false // the buffer no longer mirrors a bucket position or a numeral
			e.w.buf = append(e.w.buf[:0], e.added[i]...)
			return e.w.buf, true
		}
		return nil, false
	}
	if id < 0 {
		return nil, false
	}
	if id >= d.m {
		e.bucket = -1
		return e.appendSection(id), true
	}
	e.held = false
	r, id := d.runOf(id)
	k, j := r.bucket(id)
	if k != e.bucket || r != e.run || j < e.idx {
		e.w.reset(r, k)
		e.run, e.bucket, e.idx = r, k, 0
		if k%groupBuckets != 0 {
			e.idx = -1 // the sample comes one step before the head
		}
	}
	e.w.walk(j - e.idx)
	e.idx = j
	return e.w.flush(), true
}

// appendSection extracts a section ID, id >= d.m, into w's buffer. An
// ID that follows the one read before takes the cursor's next value;
// any other is read from a fresh position. When the buffer holds the
// term before and the new numeral has its width and sign — the common
// case along a section — only the digits are rewritten, in place.
//
//rdf:hotpath
func (e *Extractor) appendSection(id int) []byte {
	s := e.sec
	if id != e.next || id >= e.end {
		e.held = false
		if s = e.d.sectionOf(id); s != e.sec {
			e.sec, e.end, e.vals = s, s.Base+s.Len(), s.Values.MakeIterator(id-s.Base)
		} else {
			e.vals.Reset(id - s.Base)
		}
	}
	d, _ := e.vals.Next()
	e.next = id + 1
	v := int64(uint64(s.Min) + d)
	if e.held {
		if !e.banded {
			e.lo, e.hi = numeralBand(s.Scale, e.prev)
			e.banded = true
		}
		if v >= e.lo && v <= e.hi {
			putNumeral(e.w.buf[1:len(e.w.buf)-numericSuffixLen], s.Scale, v)
			return e.w.buf
		}
	}
	e.w.buf = appendNumeric(e.w.buf[:0], s.Datatype, s.Scale, v)
	e.held, e.prev, e.banded = true, v, false
	return e.w.buf
}
