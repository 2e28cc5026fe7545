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

	bucket int    // bucket currently decoded into cur, -1 when none
	idx    int    // entry index of cur within bucket
	pos    int    // byte offset in d.data of the entry after idx
	head   []byte // the bucket's verbatim head
	tail   int    // bytes of head's tail that end the current term, not yet in cur
	cur    []byte // owned buffer holding the current term
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
		e.cur, ok = e.gen.ExtractAppend(e.cur[:0], id)
		return e.cur, ok
	}
	d := e.d
	if id >= d.n {
		if i := id - d.n; i < len(e.added) {
			e.bucket = -1 // cur no longer mirrors a bucket position
			e.cur = append(e.cur[:0], e.added[i]...)
			return e.cur, true
		}
		return nil, false
	}
	if id < 0 {
		return nil, false
	}
	k, j := d.bucket(id)
	if k != e.bucket || j < e.idx {
		e.head, e.pos = d.head(k)
		e.cur = append(e.cur[:0], e.head...)
		e.bucket, e.idx, e.tail = k, 0, 0
	}
	// ExtractAppend's walk, on the cursor's state.
	for ; e.idx < j; e.idx++ {
		lcp, mid, tl, ok := shortEntry(d.data, e.pos)
		p := e.pos + 3
		if !ok {
			lcp, mid, tl, p = readEntry(d.data, e.pos)
		}
		if have := uint64(len(e.cur)); lcp > have {
			if lcp-have > uint64(e.tail) {
				panic(errEntry)
			}
			e.cur = append(e.cur, e.head[len(e.head)-e.tail:][:lcp-have]...)
		}
		if tl > uint64(len(e.head)) {
			panic(errEntry)
		}
		e.pos = p + int(mid)
		e.cur = append(e.cur[:lcp], d.data[p:e.pos]...)
		e.tail = int(tl)
	}
	if e.tail > 0 {
		e.cur = append(e.cur, e.head[len(e.head)-e.tail:]...)
		e.tail = 0
	}
	return e.cur, true
}
