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

// Count resolves the pattern and counts its matches. It draws its
// selection state from a pooled QueryCtx, so it allocates nothing once
// the pool is warm.
func Count(x Index, p Pattern) int {
	c := AcquireQueryCtx()
	n := SelectWithCtx(x, p, c).Count()
	c.Release()
	return n
}

// Lookup reports whether the index contains t. A fully bound pattern
// matches at most once, so counting drains the iterator, which returns
// its state to the pooled ctx.
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

// PS is the two-level predicate-to-subjects structure maintained by the
// 2To layout to resolve ?P? (Section 3.3): for every predicate p, the
// sorted list of subjects appearing in triples with predicate p.
type PS struct {
	ptr      seq.Sequence // NP+1 positions into subjects
	subjects seq.Sequence
}

// buildPS collects the distinct (p, s) pairs of the dataset.
func buildPS(d *Dataset, scratch []Triple) *PS {
	copy(scratch, d.Triples)
	SortPerm(scratch, PermPSO, d.NS, d.NP, d.NO)
	ptr := make([]uint64, 0, d.NP+1)
	var subjects []uint64
	var pp, ps ID
	for i, t := range scratch {
		if i == 0 || t.P != pp {
			for len(ptr) <= int(t.P) {
				ptr = append(ptr, uint64(len(subjects)))
			}
			subjects = append(subjects, uint64(t.S))
		} else if t.S != ps {
			subjects = append(subjects, uint64(t.S))
		}
		pp, ps = t.P, t.S
	}
	for len(ptr) <= d.NP {
		ptr = append(ptr, uint64(len(subjects)))
	}
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

// Range returns the positions [begin, end) of p's subject list.
func (ps *PS) Range(p ID) (int, int) {
	if int(p)+1 >= ps.ptr.Len() {
		return 0, 0
	}
	return int(ps.ptr.At(0, int(p))), int(ps.ptr.At(0, int(p)+1))
}

// Iter iterates the subject IDs in [begin, end).
func (ps *PS) Iter(begin, end int) seq.Iterator { return ps.subjects.Iter(begin, end) }

// SizeBits returns the storage footprint in bits.
func (ps *PS) SizeBits() uint64 { return ps.ptr.SizeBits() + ps.subjects.SizeBits() }

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
