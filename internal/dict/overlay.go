package dict

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rdfindexes/internal/ef"
)

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
// mapping (indexed by old ID, length Len()). first sends each string,
// by its old ID, to the new dictionary's first run or, where it
// returns false, to its second; a nil first keeps every string in the
// first run, numeric literals too, as New does. With a first, each
// numeric literal goes to the section of its datatype and scale, as
// NewSplit sends it, and Fold refuses one that first sends to the
// first run: subjects are never literals, so a base section term that
// first reports as a subject means a corrupt base. The caller remaps
// every triple that references the old ID space and starts a fresh
// overlay over the returned dictionary.
//
// Every source is already sorted — each run of the base by
// construction, each base section by value, and the overlay through
// byStr — so the fold is linear merges: strings stream through a
// cursor per base run without becoming Go strings, each is appended to
// its run of the builder or, when it is a numeric literal, set aside
// by value, and each base section's values merge with those set aside
// for it. No term leaves its section, so the mapping is monotone within
// every run and every section.
func (o *Overlay) Fold(bucketSize int, first func(id int) bool) (*Dict, []int, error) {
	base := o.base
	b := newBuilder(bucketSize)
	// mapping holds each old ID's rank in its destination over the
	// destination in the low destBits bits — run 0 or 1, or secDest plus
	// a sectionKind — until the destinations' first IDs are known.
	const secDest, destBits = 2, 5
	mapping := make([]int, o.Len())
	srcs := [...]foldSource{
		{e: NewExtractor(base), end: base.k},
		{e: NewExtractor(base), at: base.k, end: base.m},
		{o: o, end: len(o.byStr)},
	}
	for i := range srcs {
		srcs[i].load()
	}
	var joining [sectionKinds][]numID // numeric literals that join a section
	for {
		m := -1 // the source with the smallest head
		for i := range srcs {
			if srcs[i].at < srcs[i].end && (m < 0 || bytes.Compare(srcs[i].term, srcs[m].term) < 0) {
				m = i
			}
		}
		if m < 0 {
			break
		}
		s := &srcs[m]
		id, r := s.id(), 0
		if first != nil {
			if dt, scale, v, ok := parseNumeric(s.term); ok {
				if first(id) {
					return nil, nil, fmt.Errorf("dict: ID %d, the numeric literal %s, is a subject", id, s.term)
				}
				kind := sectionKind(dt, scale)
				joining[kind] = append(joining[kind], numID{v, id})
				r = -1
			} else if !first(id) {
				r = 1
			}
		}
		if r >= 0 {
			mapping[id] = b.runs[r].n<<destBits | r
			if err := add(b, r, s.term); err != nil {
				return nil, nil, err
			}
		}
		s.at++
		s.load()
	}
	for kind, joins := range joining {
		slices.SortFunc(joins, func(x, y numID) int { return cmp.Compare(x.v, y.v) })
		vals := sectionValues{s: base.section(kindOf(kind))}
		if vals.s != nil {
			vals.it, vals.at = vals.s.Values.MakeIterator(0), vals.s.Base
		}
		head, ok := vals.next()
		for ok || len(joins) > 0 {
			var t numID
			if ok && (len(joins) == 0 || head.v < joins[0].v) {
				if t = head; first == nil || first(t.id) {
					return nil, nil, fmt.Errorf("dict: ID %d of the %v section at scale %d is a subject: a corrupt base", t.id, vals.s.Datatype, vals.s.Scale)
				}
				head, ok = vals.next()
			} else {
				t, joins = joins[0], joins[1:]
			}
			mapping[t.id] = len(b.nums[kind])<<destBits | (secDest + kind)
			if err := b.addNumeric(kind, t.v); err != nil {
				return nil, nil, err
			}
		}
	}
	d := b.finish()
	starts := [secDest + sectionKinds]int{1: d.k}
	for i := range d.secs {
		s := &d.secs[i]
		starts[secDest+sectionKind(s.Datatype, s.Scale)] = s.Base
	}
	for id, v := range mapping {
		mapping[id] = starts[v&(1<<destBits-1)] + v>>destBits
	}
	return d, mapping, nil
}

// numID is a numeric term's value and old ID in a fold.
type numID struct {
	v  int64
	id int
}

// sectionValues streams the values of a base section in a fold, with
// their IDs.
type sectionValues struct {
	s  *Section // nil: no values
	it ef.Iterator
	at int // the next ID
}

// next returns the section's next value.
func (v *sectionValues) next() (numID, bool) {
	if v.s == nil || v.at == v.s.Base+v.s.Len() {
		return numID{}, false
	}
	d, _ := v.it.Next()
	v.at++
	return numID{int64(uint64(v.s.Min) + d), v.at - 1}, true
}

// foldSource is one sorted source of a fold: a run of the base, read
// through its own cursor, or the overlay in rank order.
type foldSource struct {
	e       *Extractor // nil for the overlay
	o       *Overlay   // the overlay, for the overlay source
	at, end int        // the next base ID or overlay rank, and the end
	term    []byte     // the string at at, while at < end
}

// load reads the source's head into term.
func (s *foldSource) load() {
	switch {
	case s.at == s.end:
	case s.e != nil:
		s.term, _ = s.e.Extract(s.at)
	default:
		s.term = append(s.term[:0], s.o.str(s.o.byStr[s.at])...)
	}
}

// id returns the old ID of the source's head.
func (s *foldSource) id() int {
	if s.e != nil {
		return s.at
	}
	return s.o.base.n + int(s.o.byStr[s.at])
}
