package core

import (
	"fmt"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/seq"
	"rdfindexes/internal/trie"
)

// Layout identifies an index variant.
type Layout uint8

// The index layouts of the paper.
const (
	Layout3T  Layout = iota // Section 3.1: SPO + POS + OSP
	LayoutCC                // Section 3.2: 3T with cross-compressed POS
	Layout2Tp               // Section 3.3: SPO + POS (predicate-based)
	Layout2To               // Section 3.3: SPO + OPS + PS (object-based)
)

var layoutNames = map[Layout]string{
	Layout3T: "3T", LayoutCC: "CC", Layout2Tp: "2Tp", Layout2To: "2To",
}

// String returns the paper's name for the layout.
func (l Layout) String() string {
	if n, ok := layoutNames[l]; ok {
		return n
	}
	return fmt.Sprintf("Layout(%d)", uint8(l))
}

// ParseLayout parses a layout name as used in the paper.
func ParseLayout(s string) (Layout, error) {
	for l, n := range layoutNames {
		if n == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("core: unknown layout %q", s)
}

// Index is a static compressed triple index resolving the eight selection
// patterns. Serializability is a separate, optional capability checked
// by WriteIndex, not part of the interface.
type Index interface {
	// Layout identifies the index variant.
	Layout() Layout
	// NumTriples returns the number of indexed triples.
	NumTriples() int
	// SizeBits returns the total storage footprint in bits.
	SizeBits() uint64
	// Select returns an iterator over the triples matching the pattern.
	Select(Pattern) *Iterator
	// Trie exposes a materialized permutation, or nil if the layout does
	// not keep it. Used by statistics and benchmarks.
	Trie(Perm) *trie.Trie
}

// encoder is the serialization capability of the static index;
// WriteIndex requires it. Dynamic snapshots are views over a base index
// and a log, and deliberately do not implement it.
type encoder interface {
	encode(w *codec.Writer)
}

// BitsPerTriple returns the index space divided by the number of triples.
func BitsPerTriple(x Index) float64 {
	if x.NumTriples() == 0 {
		return 0
	}
	return float64(x.SizeBits()) / float64(x.NumTriples())
}

// Count resolves the pattern and counts its matches. Counting drains the
// iterator, whose state goes back to the index's pool, so it allocates
// nothing once the pool is warm.
func Count(x Index, p Pattern) int { return x.Select(p).Count() }

// Lookup reports whether the index contains t.
func Lookup(x Index, t Triple) bool { return Count(x, PatternOf(t)) > 0 }

// Options configures index construction.
type Options struct {
	// TrieConfigs overrides the sequence representations of individual
	// permutations; missing entries use the layout's row of specs.
	TrieConfigs map[Perm]trie.Config
	// CCAllPermutations applies cross-compression to all three
	// permutations of the CC layout instead of POS only (an ablation; the
	// paper argues it does not pay off, see Section 3.2).
	CCAllPermutations bool
}

// Option mutates Options.
type Option func(*Options)

// WithTrieConfig overrides the trie configuration of one permutation.
func WithTrieConfig(p Perm, cfg trie.Config) Option {
	return func(o *Options) {
		if o.TrieConfigs == nil {
			o.TrieConfigs = map[Perm]trie.Config{}
		}
		o.TrieConfigs[p] = cfg
	}
}

// WithCCAllPermutations enables cross-compression of every permutation in
// the CC layout (ablation).
func WithCCAllPermutations() Option {
	return func(o *Options) { o.CCAllPermutations = true }
}

func buildOptions(opts []Option) Options {
	var o Options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// sortCopy copies the triples into scratch in the permutation's order.
func sortCopy(d *Dataset, scratch []Triple, p Perm) {
	copy(scratch, d.Triples)
	SortPerm(scratch, p, d.NS, d.NP, d.NO)
}

// toRanks rewrites triples sorted in ref's order: each one's second
// component in ref becomes its rank among the distinct second components
// of its run of equal first components (the map function of Fig. 4,
// computed for every triple in one pass).
func toRanks(ts []Triple, ref Perm) {
	var prevA, prevB, r ID
	for i, t := range ts {
		a, b, c := ref.Apply(t)
		switch {
		case i == 0 || a != prevA:
			r = 0
		case b != prevB:
			r++
		}
		prevA, prevB = a, b
		ts[i] = ref.Restore(a, r, c)
	}
}

// buildTrie builds the trie of triples sorted in the permutation's
// order; on a cross-compressed permutation their third components are
// ranks already.
func buildTrie(d *Dataset, sorted []Triple, p Perm, cfg trie.Config) (*trie.Trie, error) {
	numRoots := p.RootSpace(d.NS, d.NP, d.NO)
	return trie.Build(len(sorted), numRoots, func(i int) (uint32, uint32, uint32) {
		a, b, c := p.Apply(sorted[i])
		return uint32(a), uint32(b), uint32(c)
	}, cfg)
}

// PS is the two-level predicate-to-subjects structure (Section 3.3):
// for every predicate p, the sorted list of subjects appearing in
// triples with predicate p. 2To resolves ?P? over it; 2Tp stores POS's
// subjects as ranks in these lists (Section 3.2). It is the PSO trie's
// first two levels, so a cross-compression whose reference is PermPSO
// ranks against it.
type PS struct {
	ptr      seq.Sequence // NP+1 positions into subjects
	subjects seq.Sequence
}

// psLists collects each predicate's distinct subjects from triples in
// SPO order, where they arrive sorted: p's list is
// subjects[ptr[p]:ptr[p+1]]. One pass counts the lists and one fills
// them, without sorting. With ranked non-nil the filling pass also
// copies the triples into it, each subject turned into its rank in its
// predicate's list (the map function of Fig. 4, against PS): the
// position it is filled in.
func psLists(ts []Triple, np int, ranked []Triple) (ptr, subjects []uint64) {
	// A pair repeats for 2.3 triples on average, which no branch
	// predicts, so both passes count and write without branching on it.
	ptr = make([]uint64, np+1)
	prev := Triple{S: Wildcard, P: Wildcard}
	for _, t := range ts {
		ptr[t.P+1] += newPair(prev, t)
		prev = t
	}
	for p := 0; p < np; p++ {
		ptr[p+1] += ptr[p]
	}
	subjects = make([]uint64, ptr[np])
	next := append([]uint64(nil), ptr[:np]...)
	prev = Triple{S: Wildcard, P: Wildcard}
	for i, t := range ts {
		next[t.P] += newPair(prev, t)
		prev = t
		r := next[t.P] - 1 // the pair's position, written again while it repeats
		subjects[r] = uint64(t.S)
		if ranked != nil {
			ranked[i] = Triple{ID(r - ptr[t.P]), t.P, t.O}
		}
	}
	return ptr, subjects
}

// newPair is 1 when t, in SPO order after prev, starts another (subject,
// predicate) pair, and 0 when it repeats prev's.
func newPair(prev, t Triple) uint64 {
	if (prev.S^t.S)|(prev.P^t.P) != 0 {
		return 1
	}
	return 0
}

// fromPSRanks turns the ranked subjects psLists wrote back into IDs, on
// triples in any order.
func fromPSRanks(ts []Triple, ptr, subjects []uint64) {
	for i, t := range ts {
		ts[i].S = ID(subjects[ptr[t.P]+uint64(t.S)])
	}
}

// newPS codes the lists psLists returned.
func newPS(ptr, subjects []uint64) *PS {
	ranges := make([]int, len(ptr))
	for i, p := range ptr {
		ranges[i] = int(p)
	}
	if len(ranges) < 2 {
		ranges = []int{0, 0} // empty dataset: no predicates at all
	}
	return &PS{
		ptr:      seq.BuildMono(seq.KindEF, ptr),
		subjects: seq.Build(seq.KindPEF, subjects, ranges),
	}
}

// NumPredicates returns the number of predicates PS keeps a list for.
func (ps *PS) NumPredicates() int { return ps.ptr.Len() - 1 }

// Range returns the positions [begin, end) of p's subject list.
func (ps *PS) Range(p ID) (int, int) {
	if int(p)+1 >= ps.ptr.Len() {
		return 0, 0
	}
	begin, end := ps.ptr.At2(0, int(p))
	return int(begin), int(end)
}

// Iter iterates the subject IDs in [begin, end).
func (ps *PS) Iter(begin, end int) seq.Iterator { return ps.subjects.Iter(begin, end) }

// SizeBits returns the storage footprint in bits: what encode writes.
func (ps *PS) SizeBits() uint64 { return 8 * uint64(codec.Size(ps.encode)) }

func (ps *PS) encode(w *codec.Writer) {
	seq.Write(w, ps.ptr)
	seq.Write(w, ps.subjects)
}

func decodePS(r *codec.Reader) (*PS, error) {
	ps := &PS{}
	var err error
	if ps.ptr, err = seq.Read(r); err != nil {
		return nil, err
	}
	if ps.subjects, err = seq.Read(r); err != nil {
		return nil, err
	}
	return ps, nil
}
