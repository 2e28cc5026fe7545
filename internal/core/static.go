package core

import (
	"fmt"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/seq"
	"rdfindexes/internal/trie"
)

// algo is one of the paper's selection algorithms.
type algo uint8

const (
	algoLookup      algo = iota // all three components fixed: two finds (Section 3.1)
	algoTwo                     // first two components fixed: select, Fig. 2
	algoOne                     // first component fixed: select over its children
	algoScan                    // nothing fixed: the whole trie
	algoEnumerate               // S?O on SPO: one find per predicate child, Fig. 5
	algoInvertedPOS             // ??O on POS: one find per predicate (2Tp, Section 3.3)
	algoInvertedPS              // ?P? over the PS structure, then SP? on SPO (2To, Section 3.3)
)

// route says how a layout resolves one pattern shape: which algorithm,
// on which stored permutation.
type route struct {
	algo algo
	perm Perm
}

// spec defines a layout the way the paper does: the permutations it
// materializes, the sequence codecs of each, which of them it
// cross-compresses, and the route that resolves each of the eight shapes.
type spec struct {
	perms  []Perm                // stored permutations, in serialization order
	codecs [NumPerms]trie.Config // codecs of each stored permutation; WithTrieConfig replaces one
	maps   []ccMap               // cross-compressed permutations with their references (Section 3.2)
	ps     bool                  // keeps the PS structure (2To), serialized after the tries
	// cross marks CC: a flag byte before its tries records whether
	// WithCCAllPermutations mapped all three permutations instead of maps.
	cross  bool
	routes [NumShapes]route
}

// routes3T is the symmetric dispatch of Section 3.1: every shape is a
// prefix of one of SPO, POS and OSP. CC resolves the same way.
var routes3T = [NumShapes]route{
	ShapeSPO: {algoLookup, PermSPO},
	ShapeSPx: {algoTwo, PermSPO},
	ShapeSxO: {algoTwo, PermOSP},
	ShapeSxx: {algoOne, PermSPO},
	ShapexPO: {algoTwo, PermPOS},
	ShapexPx: {algoOne, PermPOS},
	ShapexxO: {algoOne, PermOSP},
	Shapexxx: {algoScan, PermSPO},
}

// specs holds one row per layout. The codecs are the paper's choices
// (Section 3.1, "design choices"): PEF node sequences and EF pointers,
// except SPO's third level, which is Compact wherever it holds IDs, and
// in CC OSP's second level, which is Compact because unmapping a rank
// needs O(1) random access to it (Section 3.2). 2Tp maps SPO's third
// level against POS: an object is stored as its rank among the distinct
// objects of its predicate, which POS's second level lists, and those
// ranks are Elias-Fano coded: in the store file smaller than PEF, and
// faster to read.
var specs = [...]spec{
	Layout3T: {perms: []Perm{PermSPO, PermPOS, PermOSP}, routes: routes3T, codecs: [NumPerms]trie.Config{
		PermSPO: {Nodes1: seq.KindPEF, Nodes2: seq.KindCompact, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
		PermPOS: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
		PermOSP: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
	}},
	LayoutCC: {perms: []Perm{PermSPO, PermPOS, PermOSP}, maps: ccMaps[:1], cross: true, routes: routes3T, codecs: [NumPerms]trie.Config{
		PermSPO: {Nodes1: seq.KindPEF, Nodes2: seq.KindCompact, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
		PermPOS: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
		PermOSP: {Nodes1: seq.KindCompact, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
	}},
	// 2Tp (Section 3.3): S?O by enumerate on SPO, ??O by the inverted
	// algorithm on POS; SPO cross-compressed against POS (Section 3.2).
	Layout2Tp: {perms: []Perm{PermSPO, PermPOS}, maps: ccMaps[1:2], codecs: [NumPerms]trie.Config{
		PermSPO: {Nodes1: seq.KindPEF, Nodes2: seq.KindEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
		PermPOS: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
	}, routes: [NumShapes]route{
		ShapeSPO: {algoLookup, PermSPO},
		ShapeSPx: {algoTwo, PermSPO},
		ShapeSxO: {algoEnumerate, PermSPO},
		ShapeSxx: {algoOne, PermSPO},
		ShapexPO: {algoTwo, PermPOS},
		ShapexPx: {algoOne, PermPOS},
		ShapexxO: {algoInvertedPOS, PermPOS},
		Shapexxx: {algoScan, PermSPO},
	}},
	// 2To (Section 3.3): ?PO and ??O on OPS, ?P? by the inverted
	// algorithm over PS and SPO.
	Layout2To: {perms: []Perm{PermSPO, PermOPS}, ps: true, codecs: [NumPerms]trie.Config{
		PermSPO: {Nodes1: seq.KindPEF, Nodes2: seq.KindCompact, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
		PermOPS: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
	}, routes: [NumShapes]route{
		ShapeSPO: {algoLookup, PermSPO},
		ShapeSPx: {algoTwo, PermSPO},
		ShapeSxO: {algoEnumerate, PermSPO},
		ShapeSxx: {algoOne, PermSPO},
		ShapexPO: {algoTwo, PermOPS},
		ShapexPx: {algoInvertedPS, PermSPO},
		ShapexxO: {algoOne, PermOPS},
		Shapexxx: {algoScan, PermSPO},
	}},
}

// emitPerm returns the permutation order in which the layout's Select
// emits the triples of a shape: every algorithm walks its route's trie
// in lexicographic order, except the inverted PS route, which walks
// ascending subjects of the PS structure and then their objects. The
// ranks of a cross-compressed level are monotone in the IDs they stand
// for, so CC emits in the same order as 3T.
func emitPerm(l Layout, s Shape) Perm {
	r := specs[l].routes[s]
	if r.algo == algoInvertedPS {
		return PermPSO
	}
	return r.perm
}

// Every layout has every read capability and serializes.
var _ interface {
	Index
	CtxSelecter
	VarSelecter
	RangeSelecter
	encoder
} = (*staticIndex)(nil)

// staticIndex is the permuted trie index of every layout: the tries its
// spec stores, and the route table that picks one for each pattern.
type staticIndex struct {
	layout Layout
	spec   *spec
	tries  [NumPerms]*trie.Trie // the stored permutations; nil elsewhere
	// xref[p] is non-nil when p's third level is cross-compressed: it
	// stores ranks among the children of the second component in xref[p]
	// instead of IDs (Fig. 3 and 4).
	xref [NumPerms]*crossRef
	ps   *PS // 2To only
}

// Build constructs an index of the requested layout.
func Build(d *Dataset, layout Layout, opts ...Option) (Index, error) {
	if int(layout) >= len(specs) {
		return nil, fmt.Errorf("core: unknown layout %d", layout)
	}
	o := buildOptions(opts)
	x := &staticIndex{layout: layout, spec: &specs[layout]}
	codecs := x.spec.codecs
	for p, cfg := range o.TrieConfigs {
		codecs[p] = cfg
	}
	maps := x.spec.mapsFor(o.CCAllPermutations)
	scratch := make([]Triple, len(d.Triples))
	if err := x.buildTries(d, scratch, codecs, maps); err != nil {
		return nil, err
	}
	if x.spec.ps {
		x.ps = buildPS(d, scratch)
	}
	x.crossCompress(maps)
	return x, nil
}

// ccMaps lists the cross-compressions of Section 3.2, each a permutation
// and its reference trie. CC maps the first by default — POS against
// OSP, the paper's choice — and all three in the ablation
// WithCCAllPermutations; 2Tp maps the second, SPO against POS.
var ccMaps = [...]ccMap{
	{PermPOS, PermOSP},
	{PermSPO, PermPOS},
	{PermOSP, PermSPO},
}

// ccMap is one cross-compressed permutation and its reference trie. The
// reference's first two components are the permutation's last two, so
// the reference's second level lists, under each second component of
// perm, the third components it can take.
type ccMap struct{ perm, ref Perm }

// mapsFor returns the permutations a layout's index maps: its row's, or
// in CC's ablation all three.
func (s *spec) mapsFor(all bool) []ccMap {
	if s.cross && all {
		return ccMaps[:]
	}
	return s.maps
}

// buildTries builds the stored permutations, the plain ones first. A
// mapped permutation's third level stores each third component's rank
// among the children of its second component in the reference (Section
// 3.2). In the reference's order those children are the distinct values
// of the reference's second component within a run of equal first
// components, so one pass over the triples sorted that way numbers them,
// and the ranks, monotone in the IDs within each run, sort in the
// permutation's order exactly as the IDs do. When the reference is the
// plain permutation built last, its sorted triples are reused.
func (x *staticIndex) buildTries(d *Dataset, scratch []Triple, codecs [NumPerms]trie.Config, maps []ccMap) error {
	sorted := Perm(NumPerms) // the plain order scratch holds, if any
	for _, mapped := range []bool{false, true} {
		for _, p := range x.spec.perms {
			ref, ok := refOf(maps, p)
			if ok != mapped {
				continue
			}
			if !mapped {
				sortCopy(d, scratch, p)
				sorted = p
			} else {
				if sorted != ref {
					sortCopy(d, scratch, ref)
				}
				toRanks(scratch, ref)
				SortPerm(scratch, p, d.NS, d.NP, d.NO)
				sorted = NumPerms
			}
			t, err := buildTrie(d, scratch, p, codecs[p])
			if err != nil {
				return err
			}
			x.tries[p] = t
		}
	}
	return nil
}

// refOf returns the reference of p when maps cross-compresses it.
func refOf(maps []ccMap, p Perm) (Perm, bool) {
	for _, m := range maps {
		if m.perm == p {
			return m.ref, true
		}
	}
	return 0, false
}

// crossCompress records the reference trie of each mapped permutation.
func (x *staticIndex) crossCompress(maps []ccMap) {
	for _, m := range maps {
		x.xref[m.perm] = newCrossRef(x.tries[m.ref])
	}
}

// Layout identifies the index variant.
func (x *staticIndex) Layout() Layout { return x.layout }

// NumTriples returns the number of indexed triples.
func (x *staticIndex) NumTriples() int { return x.tries[PermSPO].NumTriples() }

// SizeBits returns the total storage footprint in bits.
func (x *staticIndex) SizeBits() uint64 {
	var n uint64
	for _, p := range x.spec.perms {
		n += x.tries[p].SizeBits()
	}
	if x.ps != nil {
		n += x.ps.SizeBits()
	}
	return n
}

// Trie exposes a stored permutation, or nil. A cross-compressed third
// level stores ranks, not IDs.
func (x *staticIndex) Trie(p Perm) *trie.Trie {
	if int(p) >= len(x.tries) {
		return nil
	}
	return x.tries[p]
}

// scanSet returns every triple of x in some order: on a static index the
// full scan of a stored permutation whose third level holds IDs, so that
// no triple pays an unmapping (2Tp's POS rather than its SPO), for a
// caller that needs the set and not the order of the ??? route.
func scanSet(x Index) *Iterator {
	if s, ok := x.(*staticIndex); ok {
		for _, p := range s.spec.perms {
			if s.xref[p] == nil {
				return scanAll(nil, s.tries[p], nil, p)
			}
		}
	}
	return x.Select(Pattern{Wildcard, Wildcard, Wildcard})
}

// CrossReference reports the permutation whose second level the third
// level of p ranks against when x cross-compresses p (Section 3.2): then
// x.Trie(p)'s third level holds ranks, not IDs.
func CrossReference(x Index, p Perm) (Perm, bool) {
	s, ok := x.(*staticIndex)
	if !ok || int(p) >= len(s.xref) || s.xref[p] == nil {
		return 0, false
	}
	for q, t := range s.tries {
		if t == s.xref[p].t {
			return Perm(q), true
		}
	}
	return 0, false
}

// CheckRanks checks the cross-compressed levels of x against their
// references: every rank stored under a pair (a, b) must be below the
// number of b's children in the reference, or unmapping it would read
// another root's child, or past the reference's level. Decoding does not
// check it, as it reads the whole level; store.Verify does.
func CheckRanks(x Index) error {
	s, ok := x.(*staticIndex)
	if !ok {
		return nil
	}
	for p, ref := range s.xref {
		if ref == nil {
			continue
		}
		t, refRoots := s.tries[p], ID(ref.t.NumRoots())
		ranks := t.Nodes(2)
		for a := 0; a < t.NumRoots(); a++ {
			b1, e1 := t.RootRange(uint32(a))
			for j := b1; j < e1; j++ {
				b := ID(t.Node1At(b1, j))
				b2, e2 := t.ChildRange(j)
				if b2 >= e2 {
					continue
				}
				var n int
				if b < refRoots {
					begin, end, _ := ref.span(b)
					n = end - begin
				}
				if last := ranks.At(b2, e2-1); last >= uint64(n) {
					return fmt.Errorf("%v trie: rank %d under (%d, %d), which has %d children in the reference", Perm(p), last, a, b, n)
				}
			}
		}
	}
	return nil
}

// Select resolves a pattern along the layout's route for its shape.
func (x *staticIndex) Select(p Pattern) *Iterator { return x.SelectCtx(p, nil) }

// SelectCtx resolves a pattern like Select, drawing per-query scratch
// from c (which may be nil). The route's permutation orders the
// pattern's components, so its bound ones come first.
func (x *staticIndex) SelectCtx(p Pattern, c *QueryCtx) *Iterator {
	r := x.spec.routes[p.Shape()]
	t, ref := x.tries[r.perm], x.xref[r.perm]
	a, b, last := r.perm.Apply(Triple(p))
	switch r.algo {
	case algoLookup:
		return lookup(c, t, ref, r.perm, Triple(p))
	case algoTwo:
		return selectTwo(c, t, ref, r.perm, a, b)
	case algoOne:
		return selectOne(c, t, ref, r.perm, a)
	case algoScan:
		return scanAll(c, t, ref, r.perm)
	case algoEnumerate:
		return enumerate(c, t, ref, a, last)
	case algoInvertedPOS:
		return invertedOnPOS(c, t, b)
	default: // algoInvertedPS
		return invertedOnPS(c, x.ps, t, b)
	}
}

// SelectVarSorted serves the sorted bindings of a one-wildcard pattern
// when its route selects one third-level range: the wildcard is then the
// trie's last component. On a level its layout's row cross-compresses
// (2Tp's SPO) the stream unmaps the ranks and seeks an ID by the rank of
// the first child at or above it, as ranks are monotone in IDs. CC
// declines on its mapped levels, as the paper's CC serves them to select
// only; the enumerate and inverted algorithms read no single range.
func (x *staticIndex) SelectVarSorted(p Pattern) (*VarIter, bool) {
	r := x.spec.routes[p.Shape()]
	ref := x.xref[r.perm]
	if r.algo != algoTwo || (ref != nil && x.spec.cross) {
		return nil, false
	}
	a, b, _ := r.perm.Apply(Triple(p))
	return varIterOnTrie(x.tries[r.perm], ref, a, b), true
}

// SelectObjectRange resolves ?P? with the object constrained to the ID
// interval [lo, hi] (Section 3.1, range queries): on POS, where the
// objects of p are one sorted level, when the layout stores it;
// otherwise (2To) by filtering the layout's ?P? route.
func (x *staticIndex) SelectObjectRange(p ID, lo, hi ID) *Iterator {
	if pos := x.tries[PermPOS]; pos != nil {
		return selectObjectRange(nil, pos, x.xref[PermPOS], p, lo, hi)
	}
	return Filter(x.Select(Pattern{Wildcard, p, Wildcard}), func(t Triple) bool {
		return lo <= t.O && t.O <= hi
	})
}

func (x *staticIndex) encode(w *codec.Writer) {
	if x.spec.cross {
		all := byte(0)
		if x.xref[ccMaps[1].perm] != nil {
			all = 1
		}
		w.Byte(all)
	}
	for _, p := range x.spec.perms {
		x.tries[p].Encode(w)
	}
	if x.ps != nil {
		x.ps.encode(w)
	}
}

func decodeStatic(r *codec.Reader, layout Layout) (*staticIndex, error) {
	x := &staticIndex{layout: layout, spec: &specs[layout]}
	all := x.spec.cross && r.Byte() == 1
	for _, p := range x.spec.perms {
		t, err := trie.Decode(r)
		if err != nil {
			return nil, err
		}
		x.tries[p] = t
	}
	if x.spec.ps {
		ps, err := decodePS(r)
		if err != nil {
			return nil, err
		}
		x.ps = ps
	}
	x.crossCompress(x.spec.mapsFor(all))
	return x, nil
}
