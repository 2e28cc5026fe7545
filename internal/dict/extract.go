package dict

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

	bucket int    // bucket currently decoded into w, -1 when none
	idx    int    // entry index of w's string within bucket, -1 for the sample before its head
	w      walker // the bucket's decoder; its owned buffer holds the current term
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
	e.d, e.added, e.gen = nil, nil, nil
	e.w = walker{buf: e.w.buf[:0]} // drops the walker's views of the old dictionary
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
			e.bucket = -1 // the buffer no longer mirrors a bucket position
			e.w.buf = append(e.w.buf[:0], e.added[i]...)
			return e.w.buf, true
		}
		return nil, false
	}
	if id < 0 {
		return nil, false
	}
	k, j := d.bucket(id)
	if k != e.bucket || j < e.idx {
		e.w.reset(d, k)
		e.bucket, e.idx = k, 0
		if k%groupBuckets != 0 {
			e.idx = -1 // the sample comes one step before the head
		}
	}
	e.w.walk(j - e.idx)
	e.idx = j
	return e.w.flush(), true
}
