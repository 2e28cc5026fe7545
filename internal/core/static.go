package core

import (
	"fmt"
	"math/bits"

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
	ps     bool                  // keeps the PS structure (2To; 2Tp where it pays), serialized after the tries
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

// specs holds one row per layout. The codecs start from the paper's
// choices (Section 3.1, "design choices"): PEF node sequences, EF
// first-level pointers, SPO's third level Compact wherever it holds IDs,
// and in CC OSP's second level Compact because unmapping a rank needs
// O(1) random access to it (Section 3.2). 2Tp's levels were re-chosen by
// measurement (EXPERIMENTS.md "One measured codec table" and
// "Cross-compressed POS subjects"):
//   - second-level pointers are PEF in every layout: smaller than EF on
//     every preset, and read within 1.05× of it on every shape, a pair
//     at a time (ef.Partitioned.AccessPair);
//   - 2Tp maps SPO's third level against POS: an object is stored as
//     its rank among the distinct objects of its predicate, which POS's
//     second level lists, and those ranks are Elias-Fano coded: in the
//     store file smaller than PEF, and faster to read;
//   - 2Tp maps POS's third level against its PS structure: a subject is
//     stored as its rank among the subjects of its predicate, and those
//     ranks are PEF coded, the fewest bytes written of the four kinds;
//   - 2Tp's SPO second level (predicates) is EF, faster to search than
//     PEF and on the benchmark's data fewer bytes written.
//
// POS's second level stays PEF in 2Tp: it is the reference SPO's ranks
// unmap through, and EF or Compact would write 1.9 or 7.8 bits/triple
// more there.
var specs = [...]spec{
	Layout3T: {perms: []Perm{PermSPO, PermPOS, PermOSP}, routes: routes3T, codecs: [NumPerms]trie.Config{
		PermSPO: {Nodes1: seq.KindPEF, Nodes2: seq.KindCompact, Ptr0: seq.KindEF, Ptr1: seq.KindPEF},
		PermPOS: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindPEF},
		PermOSP: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindPEF},
	}},
	LayoutCC: {perms: []Perm{PermSPO, PermPOS, PermOSP}, maps: ccMaps[:1], cross: true, routes: routes3T, codecs: [NumPerms]trie.Config{
		PermSPO: {Nodes1: seq.KindPEF, Nodes2: seq.KindCompact, Ptr0: seq.KindEF, Ptr1: seq.KindPEF},
		PermPOS: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindPEF},
		PermOSP: {Nodes1: seq.KindCompact, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindPEF},
	}},
	// 2Tp (Section 3.3): S?O by enumerate on SPO, ??O by the inverted
	// algorithm on POS; SPO cross-compressed against POS and POS against
	// PS (Section 3.2).
	Layout2Tp: {perms: []Perm{PermSPO, PermPOS}, maps: ccMaps[2:4], ps: true, codecs: [NumPerms]trie.Config{
		PermSPO: {Nodes1: seq.KindEF, Nodes2: seq.KindEF, Ptr0: seq.KindEF, Ptr1: seq.KindPEF},
		PermPOS: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindPEF},
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
		PermSPO: {Nodes1: seq.KindPEF, Nodes2: seq.KindCompact, Ptr0: seq.KindEF, Ptr1: seq.KindPEF},
		PermOPS: {Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindPEF},
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
	// stores ranks in the lists of xref[p] instead of IDs (Fig. 3 and 4).
	xref [NumPerms]*crossRef
	ps   *PS // 2To and 2Tp
	pools
}

// Build constructs an index of the requested layout.
func Build(d *Dataset, layout Layout, opts ...Option) (Index, error) {
	if int(layout) >= len(specs) {
		return nil, fmt.Errorf("core: unknown layout %d", layout)
	}
	o := buildOptions(opts)
	x := &staticIndex{layout: layout, spec: &specs[layout]}
	maps := x.spec.mapsFor(o.CCAllPermutations)
	if x.spec.ps && !x.spec.ranksVsPS() {
		x.ps = newPS(psLists(d.Triples, d.NP, nil)) // buildTries builds a ranked layout's
	}
	if err := x.buildTries(d, o, maps); err != nil {
		return nil, err
	}
	x.crossCompress(maps)
	return x, nil
}

// ccMaps lists the cross-compressions of Section 3.2, each a permutation
// and its reference. CC maps the first by default — POS against OSP, the
// paper's choice — and the first three in the ablation
// WithCCAllPermutations; 2Tp maps the last two, SPO against POS and POS
// against PS.
var ccMaps = [...]ccMap{
	{PermPOS, PermOSP, false},
	{PermOSP, PermSPO, false},
	{PermSPO, PermPOS, false},
	{PermPOS, PermPSO, true},
}

// ccMap is one cross-compressed permutation and its reference, whose
// first two levels list, under each key, the values perm's third
// component can take. A trie's key is perm's second component: its
// first two components are perm's last two. PermPSO names the PS
// structure, PSO's first two levels, whose key, the predicate, is
// perm's first component: then first is true.
type ccMap struct {
	perm, ref Perm
	first     bool
}

// mapsFor returns the permutations a layout's index maps: its row's, or
// in CC's ablation the first three.
func (s *spec) mapsFor(all bool) []ccMap {
	if s.cross && all {
		return ccMaps[:3]
	}
	return s.maps
}

// buildTries builds the stored permutations: the plain ones, then those
// ranked against PS, then those ranked against a trie. A mapped
// permutation's third level stores each third component's rank in its
// key's list of the reference (Section 3.2). The ranks, monotone in the
// IDs within each list, sort in the permutation's order exactly as the
// IDs do.
//
// Against PS, the triples in SPO order, the dataset's, number each
// predicate's subjects as they arrive, which builds PS too; the ranks
// are kept only where
// they and PS write fewer bytes than the IDs would (psPays), and
// otherwise the IDs are stored, Compact coded unless WithTrieConfig set
// the permutation's codecs, and PS dropped. Against a trie, the
// triples sorted in the reference's order number the lists: its second
// components, one list per run of equal first components. When the
// triples last sorted are in the reference's order they are reused; so
// 2Tp sorts the triples twice, POS then SPO, as it did before POS could
// hold ranks.
func (x *staticIndex) buildTries(d *Dataset, o Options, maps []ccMap) error {
	codecs := x.spec.codecs
	for p, cfg := range o.TrieConfigs {
		codecs[p] = cfg
	}
	scratch := make([]Triple, len(d.Triples))
	sorted := Perm(NumPerms) // the order scratch holds, if any
	for stage := 0; stage < 3; stage++ {
		for _, p := range x.spec.perms {
			ref, mapped := refOf(maps, p)
			if buildStage(ref, mapped) != stage {
				continue
			}
			var t *trie.Trie
			var err error
			switch {
			case !mapped:
				sortCopy(d, scratch, p)
				t, err = buildTrie(d, scratch, p, codecs[p])
				sorted = p
			case ref == PermPSO:
				ptr, subjects := psLists(d.Triples, d.NP, scratch)
				x.ps = newPS(ptr, subjects)
				SortPerm(scratch, p, d.NS, d.NP, d.NO)
				if t, err = buildTrie(d, scratch, p, codecs[p]); err != nil {
					return err
				}
				fromPSRanks(scratch, ptr, subjects)
				if !x.psPays(t, d.NS) {
					cfg := codecs[p]
					if _, set := o.TrieConfigs[p]; !set {
						cfg.Nodes2 = seq.KindCompact
					}
					t, err = buildTrie(d, scratch, p, cfg)
					x.ps = nil
				}
				sorted = p
			default:
				if sorted != ref {
					sortCopy(d, scratch, ref)
				}
				toRanks(scratch, ref)
				SortPerm(scratch, p, d.NS, d.NP, d.NO)
				t, err = buildTrie(d, scratch, p, codecs[p])
				sorted = NumPerms // its third components are ranks
			}
			if err != nil {
				return err
			}
			x.tries[p] = t
		}
	}
	return nil
}

// psPays reports whether t's third level, ranks in PS, and PS write
// fewer bits than the subject IDs they stand for, drawn from ns subjects,
// would Compact coded: the width of the largest ID a triple.
func (x *staticIndex) psPays(t *trie.Trie, ns int) bool {
	width := uint64(bits.Len(uint(max(ns-1, 1))))
	return t.Nodes(2).SizeBits()+x.ps.SizeBits() < uint64(t.NumTriples())*width
}

// buildStage orders the builds: plain permutations, those mapped against
// PS, those mapped against a trie.
func buildStage(ref Perm, mapped bool) int {
	switch {
	case !mapped:
		return 0
	case ref == PermPSO:
		return 1
	}
	return 2
}

// ranksVsPS reports whether the layout ranks a permutation against PS
// (2Tp). Its index keeps PS only where the ranks pay, and a flag byte
// before its tries records whether it does.
func (s *spec) ranksVsPS() bool {
	for _, m := range s.maps {
		if m.ref == PermPSO {
			return true
		}
	}
	return false
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

// crossCompress records the reference of each mapped permutation, but
// for PS when the index dropped it (its ranks did not pay).
func (x *staticIndex) crossCompress(maps []ccMap) {
	for _, m := range maps {
		if m.ref == PermPSO {
			if x.ps != nil {
				x.xref[m.perm] = newCrossRef(m, x.ps.subjects, x.ps.ptr)
			}
		} else {
			t := x.tries[m.ref]
			x.xref[m.perm] = newCrossRef(m, t.Nodes(1), t.Pointers(0))
		}
	}
}

// Layout identifies the index variant.
func (x *staticIndex) Layout() Layout { return x.layout }

// NumTriples returns the number of indexed triples.
func (x *staticIndex) NumTriples() int { return x.tries[PermSPO].NumTriples() }

// SizeBits returns the total storage footprint in bits: what encode
// writes from an 8-byte aligned offset.
func (x *staticIndex) SizeBits() uint64 { return 8 * uint64(codec.Size(x.encode)) }

// Trie exposes a stored permutation, or nil. A cross-compressed third
// level stores ranks, not IDs.
func (x *staticIndex) Trie(p Perm) *trie.Trie {
	if int(p) >= len(x.tries) {
		return nil
	}
	return x.tries[p]
}

// scanSet returns every triple of x in some order: on a static index the
// full scan of a stored permutation whose third level holds IDs, or
// ranks the walk unmaps from one decoded list per root (2Tp's POS), so
// that no triple pays a random access, for a caller that needs the set
// and not the order of the ??? route.
func scanSet(x Index) *Iterator {
	if s, ok := x.(*staticIndex); ok {
		for _, p := range s.spec.perms {
			if ref := s.xref[p]; ref == nil || ref.first {
				return s.scanAll(p)
			}
		}
	}
	return x.Select(Pattern{Wildcard, Wildcard, Wildcard})
}

// NumPSPredicates returns the number of predicates the PS structure of x
// keeps a list for, or false when x keeps none.
func NumPSPredicates(x Index) (int, bool) {
	s, ok := x.(*staticIndex)
	if !ok || s.ps == nil {
		return 0, false
	}
	return s.ps.NumPredicates(), true
}

// CheckRanks checks the cross-compressed levels of x against their
// references: every rank stored under a pair (a, b) must be below the
// length of its key's list in the reference, or unmapping it would read
// another key's list, or past the reference. Decoding does not check
// it, as it reads the whole level; store.Verify does.
func CheckRanks(x Index) error {
	s, ok := x.(*staticIndex)
	if !ok {
		return nil
	}
	for p, ref := range s.xref {
		if ref == nil {
			continue
		}
		t := s.tries[p]
		ranks := t.Nodes(2)
		for a := 0; a < t.NumRoots(); a++ {
			b1, e1 := t.RootRange(uint32(a))
			for j := b1; j < e1; j++ {
				b := ID(t.Node1At(b1, j))
				b2, e2 := t.ChildRange(j)
				if b2 >= e2 {
					continue
				}
				key := ref.key(ID(a), b)
				var n int
				if int(key) < ref.keys {
					begin, end, _ := ref.span(key)
					n = end - begin
				}
				if last := ranks.At(b2, e2-1); last >= uint64(n) {
					return fmt.Errorf("%v trie: rank %d under (%d, %d), past the %d IDs %d lists in %v", Perm(p), last, a, b, n, key, ref.name())
				}
			}
		}
	}
	return nil
}

// Sequence names one compressed sequence a static index stores.
type Sequence struct {
	Owner   string // the permutation, or "PS"
	Part    string // "pointers L0", "nodes L1", "pointers L1", "nodes L2", or PS's "pointers" and "subjects"
	Ranks   string // for a cross-compressed third level, what its ranks are among: "POS", "PS"
	Pointer bool   // a pointer sequence
	Seq     seq.Sequence
}

// Sequences lists the sequences x stores, in the order it serializes
// them (of a DynamicSnapshot, its base's); none when x is not a static
// index.
func Sequences(x Index) []Sequence {
	if dyn, ok := x.(*DynamicSnapshot); ok {
		x = dyn.Base()
	}
	s, ok := x.(*staticIndex)
	if !ok {
		return nil
	}
	var out []Sequence
	for _, p := range s.spec.perms {
		t := s.tries[p]
		var ranks string
		if ref := s.xref[p]; ref != nil {
			ranks = ref.name()
		}
		out = append(out,
			Sequence{Owner: p.String(), Part: "pointers L0", Pointer: true, Seq: t.Pointers(0)},
			Sequence{Owner: p.String(), Part: "nodes L1", Seq: t.Nodes(1)},
			Sequence{Owner: p.String(), Part: "pointers L1", Pointer: true, Seq: t.Pointers(1)},
			Sequence{Owner: p.String(), Part: "nodes L2", Ranks: ranks, Seq: t.Nodes(2)})
	}
	if s.ps != nil {
		out = append(out,
			Sequence{Owner: "PS", Part: "pointers", Pointer: true, Seq: s.ps.ptr},
			Sequence{Owner: "PS", Part: "subjects", Seq: s.ps.subjects})
	}
	return out
}

// Select resolves a pattern along the layout's route for its shape, with
// a selection state from the index's pools. The route's permutation
// orders the pattern's components, so its bound ones come first.
func (x *staticIndex) Select(p Pattern) *Iterator {
	r := x.spec.routes[p.Shape()]
	a, b, last := r.perm.Apply(Triple(p))
	switch r.algo {
	case algoLookup:
		return x.lookup(r.perm, Triple(p))
	case algoTwo:
		return x.selectTwo(r.perm, a, b)
	case algoOne:
		return x.selectOne(r.perm, a)
	case algoScan:
		return x.scanAll(r.perm)
	case algoEnumerate:
		return x.enumerate(a, last)
	case algoInvertedPOS:
		return x.invertedOnPOS(b)
	default: // algoInvertedPS
		return x.invertedOnPS(b)
	}
}

// SelectVarSorted serves the sorted bindings of a one-wildcard pattern
// when its route selects one third-level range: the wildcard is then the
// trie's last component. On a level its layout's row cross-compresses
// (2Tp's SPO and POS) the stream unmaps the ranks and seeks an ID by the
// rank of the first ID at or above it in its key's list, as ranks are
// monotone in IDs. CC declines on its mapped levels, as the paper's CC
// serves them to select only; the enumerate and inverted algorithms read
// no single range. The stream's state comes from the index's pools;
// Close hands it back.
func (x *staticIndex) SelectVarSorted(p Pattern) (*VarIter, bool) {
	r := x.spec.routes[p.Shape()]
	if r.algo != algoTwo || (x.xref[r.perm] != nil && x.spec.cross) {
		return nil, false
	}
	a, b, _ := r.perm.Apply(Triple(p))
	return x.varIter(r.perm, a, b), true
}

// SelectObjectRange resolves ?P? with the object constrained to the ID
// interval [lo, hi] (Section 3.1, range queries): on POS, where the
// objects of p are one sorted level, when the layout stores it;
// otherwise (2To) by filtering the layout's ?P? route.
func (x *staticIndex) SelectObjectRange(p ID, lo, hi ID) *Iterator {
	if x.tries[PermPOS] != nil {
		return x.selectObjectRange(p, lo, hi)
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
	if x.spec.ranksVsPS() {
		kept := byte(0)
		if x.ps != nil {
			kept = 1
		}
		w.Byte(kept)
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
	keepPS := x.spec.ps
	if x.spec.ranksVsPS() {
		keepPS = r.Byte() == 1
	}
	for _, p := range x.spec.perms {
		t, err := trie.Decode(r)
		if err != nil {
			return nil, err
		}
		x.tries[p] = t
	}
	if keepPS {
		ps, err := decodePS(r)
		if err != nil {
			return nil, err
		}
		x.ps = ps
	}
	x.crossCompress(x.spec.mapsFor(all))
	return x, nil
}
