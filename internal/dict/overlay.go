package dict

import "sort"

// Overlay extends an immutable front-coded base dictionary with a small
// mutable set of strings added at serve time, sharing one dense ID
// space: base strings keep their ranks [0, base.Len()) and overlay
// strings are numbered on from base.Len() in arrival order, so IDs
// already embedded in indexed triples and update logs stay stable until
// the overlay is folded into a rebuilt front-coded dictionary at merge
// (which remaps every ID; see Fold).
//
// Concurrency follows the RCU discipline of the serving stack: a single
// writer calls Add, and readers work on View copies published through an
// atomic pointer. Add never mutates state a previously published View
// can observe — the arrival slice only grows past the view's length and
// the sorted rank index is rebuilt copy-on-write — so views need no
// locking.
type Overlay struct {
	base  *Dict
	added []string // overlay strings in arrival order; ID = base.Len()+i
	byStr []int32  // overlay IDs sorted by string; copied on every Add
}

// NewOverlay wraps an immutable base dictionary with an empty overlay.
func NewOverlay(base *Dict) *Overlay {
	return &Overlay{base: base}
}

// Base returns the immutable base dictionary.
func (o *Overlay) Base() *Dict { return o.base }

// Len returns the total number of strings (base + overlay).
func (o *Overlay) Len() int { return o.base.Len() + len(o.added) }

// AddedLen returns the number of overlay strings pending a fold.
func (o *Overlay) AddedLen() int { return len(o.added) }

// str returns the overlay string with the given overlay rank index.
func (o *Overlay) str(i int32) string { return o.added[i] }

// Locate returns the ID of s, or ok=false if absent from both the base
// and the overlay.
//
//rdf:hotpath
func (o *Overlay) Locate(s string) (int, bool) {
	if id, ok := o.base.Locate(s); ok {
		return id, true
	}
	//rdf:allow(sort.Search does not retain f, so the closure stays on the stack; pinned by the escape gate)
	i := sort.Search(len(o.byStr), func(j int) bool { return o.str(o.byStr[j]) >= s })
	if i < len(o.byStr) && o.str(o.byStr[i]) == s {
		return o.base.Len() + int(o.byStr[i]), true
	}
	return 0, false
}

// Extract returns the string with the given ID.
func (o *Overlay) Extract(id int) (string, bool) {
	if id < o.base.Len() {
		return o.base.Extract(id)
	}
	if i := id - o.base.Len(); i < len(o.added) {
		return o.added[i], true
	}
	return "", false
}

// ExtractAppend appends the string with the given ID to buf: base IDs
// splice through the front-coded decoder, overlay IDs copy the added
// string. buf is returned unchanged when the ID is out of range.
//
//rdf:hotpath
//rdf:nonretaining
func (o *Overlay) ExtractAppend(buf []byte, id int) ([]byte, bool) {
	if id < o.base.Len() {
		return o.base.ExtractAppend(buf, id)
	}
	if i := id - o.base.Len(); i >= 0 && i < len(o.added) {
		return append(buf, o.added[i]...), true
	}
	return buf, false
}

// Add returns the ID of s, assigning the next free ID when the string is
// new. Only the single writer may call Add; published views are
// unaffected (copy-on-write, see the type comment).
func (o *Overlay) Add(s string) int {
	if id, ok := o.base.Locate(s); ok {
		return id
	}
	i := sort.Search(len(o.byStr), func(j int) bool { return o.str(o.byStr[j]) >= s })
	if i < len(o.byStr) && o.str(o.byStr[i]) == s {
		return o.base.Len() + int(o.byStr[i])
	}
	id := len(o.added)
	o.added = append(o.added, s)
	byStr := make([]int32, len(o.byStr)+1)
	copy(byStr, o.byStr[:i])
	byStr[i] = int32(id)
	copy(byStr[i+1:], o.byStr[i:])
	o.byStr = byStr
	return o.base.Len() + id
}

// View returns an immutable snapshot of the overlay for concurrent
// readers. The copy shares the slices; the writer's next Add will not
// disturb them.
func (o *Overlay) View() *Overlay {
	v := *o
	return &v
}

// SizeBits returns the base footprint plus the in-memory overlay charge
// (string bytes plus the rank index entry per added string).
func (o *Overlay) SizeBits() uint64 {
	bits := o.base.SizeBits()
	for _, s := range o.added {
		bits += uint64(len(s))*8 + 32
	}
	return bits
}

// Fold rebuilds one front-coded dictionary over the union of base and
// overlay strings and returns it together with the old-ID-to-new-ID
// mapping (indexed by old ID, length Len()). The caller remaps every
// triple that references the old ID space and starts a fresh overlay
// over the returned dictionary.
//
// Both inputs are already sorted — the base by construction, the overlay
// through byStr — so the fold is one linear merge: base terms stream
// through a cursor without becoming strings, every term is appended to
// the builder New uses, and its old ID maps to the builder's next rank.
func (o *Overlay) Fold(bucketSize int) (*Dict, []int, error) {
	b := newBuilder(bucketSize)
	mapping := make([]int, o.Len())
	e := NewExtractor(o.base)
	nb := o.base.Len()
	id, j := 0, 0 // next base ID, next overlay rank
	for id < nb || j < len(o.byStr) {
		t, _ := e.Extract(id) // a repeated ID is free on the cursor
		var err error
		if id < nb && (j == len(o.byStr) || string(t) < o.str(o.byStr[j])) {
			mapping[id] = b.d.n
			err = add(b, t)
			id++
		} else {
			mapping[nb+int(o.byStr[j])] = b.d.n
			err = add(b, o.str(o.byStr[j]))
			j++
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return b.finish(), mapping, nil
}
