package results

import (
	"math"
	"math/bits"

	"rdfindexes/internal/core"
)

// termTable is the Writer's per-request cache of encoded terms: each
// (role, ID) a request renders is encoded once into the table's arena and
// replayed from there for every later cell that names it. It is an
// open-addressing table under a multiplicative hash whose slots carry the
// request generation they were written in, so starting a request is one
// increment (reset) and never a pass over the slots. It starts at
// minTermSlots, doubles while at most half full, and stops admitting terms
// at maxTerms; a pooled writer keeps the size its widest request needed.
// The zero value is ready to use. A termTable serves one goroutine.
type termTable struct {
	slots []termSlot
	shift uint   // 64 - log2(len(slots))
	gen   uint64 // current request; slots tagged with another are free
	n     int    // terms cached in this generation
	arena []byte // the encodings, back to back
}

// termSlot is one cached encoding, arena[start:end], tagged with
// gen<<genShift | role<<32 | ID.
type termSlot struct {
	tag        uint64
	start, end uint32
}

const (
	// genShift places the generation above the 33 key bits; the 16 bits
	// left wrap once every 65535 requests, when reset clears the slots.
	genShift = 48
	maxGen   = 1<<(64-genShift) - 1

	minTermSlots = 64
	// maxTerms bounds the terms cached per request (and so the table at
	// 2*maxTerms slots); a wider answer renders the rest uncached.
	maxTerms = 1 << 14
)

// reset starts a new request: every cached term becomes stale at once.
// The arena is kept unless a pathological request grew it past trimCap.
func (t *termTable) reset() {
	t.n = 0
	t.arena = trimBuffer(t.arena)
	if t.gen++; t.gen > maxGen {
		clear(t.slots)
		t.gen = 1
	}
}

// home is the first slot probed for key.
//
//rdf:hotpath
func (t *termTable) home(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> t.shift
}

// get returns the encoding cached for (role, id) in this request. The
// bytes are the table's, valid until the next add or reset.
//
//rdf:hotpath
func (t *termTable) get(role core.Role, id core.ID) ([]byte, bool) {
	if t.n == 0 {
		return nil, false
	}
	key := uint64(role)<<32 | uint64(id)
	tag, mask := t.gen<<genShift|key, uint64(len(t.slots)-1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.tag == tag {
			return t.arena[s.start:s.end], true
		}
		if s.tag>>genShift != t.gen {
			return nil, false
		}
	}
}

// add caches enc as the encoding of (role, id), which get has just
// missed. A request past maxTerms terms, or whose arena would outgrow the
// 32-bit offsets, caches nothing more.
//
//rdf:hotpath
func (t *termTable) add(role core.Role, id core.ID, enc []byte) {
	if t.n >= maxTerms || len(t.arena)+len(enc) > math.MaxUint32 {
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	key := uint64(role)<<32 | uint64(id)
	start := len(t.arena)
	t.arena = append(t.arena, enc...)
	t.put(termSlot{t.gen<<genShift | key, uint32(start), uint32(len(t.arena))})
	t.n++
}

// put stores s in the first free slot of its probe sequence.
//
//rdf:hotpath
func (t *termTable) put(s termSlot) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(s.tag & (1<<genShift - 1))
	for t.slots[i].tag>>genShift == t.gen {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// grow doubles the slots (the first call allocates minTermSlots) and
// re-inserts this request's terms; stale slots are dropped.
func (t *termTable) grow() {
	if t.gen == 0 {
		t.gen = 1 // zeroed slots must never read as live
	}
	old := t.slots
	size := max(2*len(old), minTermSlots)
	t.slots = make([]termSlot, size)
	t.shift = uint(64 - bits.Len(uint(size-1)))
	for _, s := range old {
		if s.tag>>genShift == t.gen {
			t.put(s)
		}
	}
}
