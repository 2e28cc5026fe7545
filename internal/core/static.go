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
// materializes, the sequence codecs of each, and the route that resolves
// each of the eight shapes.
type spec struct {
	perms  []Perm                // stored permutations, in serialization order
	codecs [NumPerms]trie.Config // codecs of each stored permutation; WithTrieConfig replaces one
	ps     bool                  // keeps the PS structure (2To), serialized after the tries
	cross  bool                  // cross-compressed (CC, Section 3.2): built by buildCC, serialized after a flag byte
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
// except SPO's third level, which is Compact in every layout, and in CC
// OSP's second level, which is Compact because unmapping a rank needs
// O(1) random access to it (Section 3.2).
var specs = [...]spec{
	Layout3T: {perms: []Perm{PermSPO, PermPOS, PermOSP}, routes: routes3T, codecs: [NumPerms]trie.Config{
		PermSPO: {Nodes1: seq.KindPEF, Nodes2: seq.KindCompact, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
		PermPOS: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
		PermOSP: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
	}},
	LayoutCC: {perms: []Perm{PermSPO, PermPOS, PermOSP}, cross: true, routes: routes3T, codecs: [NumPerms]trie.Config{
		PermSPO: {Nodes1: seq.KindPEF, Nodes2: seq.KindCompact, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
		PermPOS: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
		PermOSP: {Nodes1: seq.KindCompact, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
	}},
	// 2Tp (Section 3.3): S?O by enumerate on SPO, ??O by the inverted
	// algorithm on POS.
	Layout2Tp: {perms: []Perm{PermSPO, PermPOS}, codecs: [NumPerms]trie.Config{
		PermSPO: {Nodes1: seq.KindPEF, Nodes2: seq.KindCompact, Ptr0: seq.KindEF, Ptr1: seq.KindEF},
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
	xref [NumPerms]*trie.Trie
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
	scratch := make([]Triple, len(d.Triples))
	if x.spec.cross {
		if err := x.buildCC(d, scratch, codecs, o.CCAllPermutations); err != nil {
			return nil, err
		}
		return x, nil
	}
	for _, p := range x.spec.perms {
		t, err := buildTrie(d, scratch, p, codecs[p], nil)
		if err != nil {
			return nil, err
		}
		x.tries[p] = t
	}
	if x.spec.ps {
		x.ps = buildPS(d, scratch)
	}
	return x, nil
}

// ccMaps lists the permutations CC cross-compresses, each with its
// reference trie, in build order (Section 3.2). By default only the
// first is mapped — POS against OSP, the paper's choice, since mapping
// the other two permutations saves little — and the ablation
// WithCCAllPermutations also maps SPO against POS and OSP against SPO.
var ccMaps = [...]ccMap{
	{PermPOS, PermOSP},
	{PermSPO, PermPOS},
	{PermOSP, PermSPO},
}

// ccMap is one cross-compressed permutation and its reference trie.
type ccMap struct{ perm, ref Perm }

// ccMapsFor returns the rows of ccMaps a CC index maps.
func ccMapsFor(all bool) []ccMap {
	if all {
		return ccMaps[:]
	}
	return ccMaps[:1]
}

// buildCC builds the cross-compressed layout. Ranks read only the first
// two levels of their reference trie, which are never themselves
// mapped, so the first reference (OSP) is built plain, each mapped
// permutation after its reference, and in the ablation OSP is rebuilt
// mapped last.
func (x *staticIndex) buildCC(d *Dataset, scratch []Triple, codecs [NumPerms]trie.Config, all bool) error {
	build := func(p Perm, ref *trie.Trie) error {
		t, err := buildTrie(d, scratch, p, codecs[p], ref)
		x.tries[p] = t
		return err
	}
	maps := ccMapsFor(all)
	if err := build(maps[0].ref, nil); err != nil {
		return err
	}
	for _, m := range maps {
		if err := build(m.perm, x.tries[m.ref]); err != nil {
			return err
		}
	}
	for _, p := range x.spec.perms {
		if x.tries[p] == nil {
			if err := build(p, nil); err != nil {
				return err
			}
		}
	}
	x.crossCompress(maps)
	return nil
}

// crossCompress records the reference trie of each mapped permutation.
func (x *staticIndex) crossCompress(maps []ccMap) {
	for _, m := range maps {
		x.xref[m.perm] = x.tries[m.ref]
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
		return enumerate(c, t, a, last)
	case algoInvertedPOS:
		return invertedOnPOS(c, t, b)
	default: // algoInvertedPS
		return invertedOnPS(c, x.ps, t, b)
	}
}

// SelectVarSorted serves the sorted bindings of a one-wildcard pattern
// when its route selects a range of a plain third level: the wildcard
// is then the trie's last component. Cross-compressed levels hold ranks,
// not IDs, so NextGEQ could not seek them by ID; the enumerate and
// inverted algorithms read no single range.
func (x *staticIndex) SelectVarSorted(p Pattern) (*VarIter, bool) {
	r := x.spec.routes[p.Shape()]
	if r.algo != algoTwo || x.xref[r.perm] != nil {
		return nil, false
	}
	a, b, _ := r.perm.Apply(Triple(p))
	return varIterOnTrie(x.tries[r.perm], a, b), true
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
	if x.spec.cross {
		x.crossCompress(ccMapsFor(all))
	}
	return x, nil
}
