// Package rdfindexes is a Go implementation of the compressed RDF triple
// indexes of Perego, Pibiri and Venturini, "Compressed Indexes for Fast
// Search of Semantic Data" (ICDE 2021 / arXiv:1904.07619): the permuted
// trie index (3T), its cross-compressed variant (CC) and the two-trie
// layouts (2Tp, 2To), resolving the eight triple selection patterns over
// integer triples with trie levels compressed with Elias-Fano, partitioned
// Elias-Fano, bit-packed or VByte sequences.
//
// The package is a facade over internal/core; it exposes everything an
// application needs to build, query, persist and load indexes:
//
//	d := rdfindexes.NewDataset(triples)
//	x, err := rdfindexes.Build(d, rdfindexes.Layout2Tp)
//	it := x.Select(rdfindexes.NewPattern(12, -1, 7)) // S?O
//	for t, ok := it.Next(); ok; t, ok = it.Next() { ... }
//
// Iterators produce results in blocks; hot consumers should drain
// through NextBatch with a reusable buffer, which performs zero
// allocations per triple:
//
//	var buf [512]rdfindexes.Triple
//	for {
//		n := it.NextBatch(buf[:])
//		if n == 0 {
//			break
//		}
//		// process buf[:n]
//	}
//
// The iterator hands its selection state back to the index's pool in the
// call that returns 0 (or false from Next), so it must not be touched
// after that; a warm index then selects without allocating. A built
// index is immutable and may be shared by any number of goroutines. The
// rdfstore CLI serves it over HTTP (`rdfstore serve`).
//
// See DESIGN.md for the layer inventory, the batched-iteration contract
// and the serving architecture, and EXPERIMENTS.md for the reproduction
// of the paper's evaluation.
package rdfindexes

import (
	"io"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
)

// Core types, re-exported.
type (
	// ID identifies a subject, predicate or object.
	ID = core.ID
	// Triple is an RDF statement with components mapped to IDs.
	Triple = core.Triple
	// Pattern is a triple selection pattern (components may be Wildcard).
	Pattern = core.Pattern
	// Shape classifies a pattern by its fixed components.
	Shape = core.Shape
	// Layout identifies an index variant (3T, CC, 2Tp, 2To).
	Layout = core.Layout
	// Dataset is a sorted, deduplicated integer triple collection.
	Dataset = core.Dataset
	// Stats summarizes a dataset as in Table 3 of the paper.
	Stats = core.Stats
	// Index is a static compressed triple index.
	Index = core.Index
	// Iterator yields the triples matching a pattern.
	Iterator = core.Iterator
	// Option configures index construction.
	Option = core.Option
	// R supports range queries over numeric objects.
	R = core.R
	// RangeSelecter is an index supporting object-range queries. Every
	// index Build returns implements it: layouts that store POS seek the
	// object interval there, 2To filters its ?P? matches.
	RangeSelecter = core.RangeSelecter
	// DynamicIndex pairs a static index with an update log, merged
	// amortizedly (the strategy sketched in Section 3.1 of the paper).
	// It is single-writer; concurrent readers query DynamicSnapshot
	// views obtained from Snapshot.
	DynamicIndex = core.DynamicIndex
	// DynamicSnapshot is an immutable point-in-time view of a
	// DynamicIndex; it implements Index, so any read path serves it.
	DynamicSnapshot = core.DynamicSnapshot
)

// Wildcard matches every ID in a pattern component.
const Wildcard = core.Wildcard

// Index layouts.
const (
	Layout3T  = core.Layout3T
	LayoutCC  = core.LayoutCC
	Layout2Tp = core.Layout2Tp
	Layout2To = core.Layout2To
)

// Pattern shapes in the paper's notation.
const (
	ShapeSPO = core.ShapeSPO
	ShapeSPx = core.ShapeSPx
	ShapeSxO = core.ShapeSxO
	ShapeSxx = core.ShapeSxx
	ShapexPO = core.ShapexPO
	ShapexPx = core.ShapexPx
	ShapexxO = core.ShapexxO
	Shapexxx = core.Shapexxx
)

// NewDataset takes ownership of triples, sorts and deduplicates them.
func NewDataset(triples []Triple) *Dataset { return core.NewDataset(triples) }

// NewPattern builds a pattern from ints; negative values become
// wildcards.
func NewPattern(s, p, o int) Pattern { return core.NewPattern(s, p, o) }

// Build constructs an index of the requested layout with the paper's
// default compression configuration.
func Build(d *Dataset, layout Layout, opts ...Option) (Index, error) {
	return core.Build(d, layout, opts...)
}

// BitsPerTriple returns the index space divided by its triple count, the
// paper's space metric.
func BitsPerTriple(x Index) float64 { return core.BitsPerTriple(x) }

// Count resolves the pattern and counts its matches.
func Count(x Index, p Pattern) int { return core.Count(x, p) }

// Lookup reports whether the index contains t.
func Lookup(x Index, t Triple) bool { return core.Lookup(x, t) }

// WriteIndex serializes an index; ReadIndex loads it back.
func WriteIndex(w io.Writer, x Index) error { return core.WriteIndex(w, x) }

// ReadIndex deserializes an index written by WriteIndex.
func ReadIndex(r io.Reader) (Index, error) { return core.ReadIndex(r) }

// WriteDataset serializes a dataset; ReadDataset loads it back.
func WriteDataset(w io.Writer, d *Dataset) error { return core.WriteDataset(w, d) }

// ReadDataset deserializes a dataset written by WriteDataset.
func ReadDataset(r io.Reader) (*Dataset, error) { return core.ReadDataset(r) }

// NewDynamic builds an updatable index: a static index plus a small
// update log that is merged back when it reaches threshold entries
// (threshold 0 picks the default, negative disables automatic merging).
func NewDynamic(d *Dataset, layout Layout, threshold int, opts ...Option) (*DynamicIndex, error) {
	return core.NewDynamic(d, layout, threshold, opts...)
}

// NewDynamicFromIndex wraps an already-built static index with an empty
// update log; threshold semantics match NewDynamic.
func NewDynamicFromIndex(base Index, threshold int, opts ...Option) *DynamicIndex {
	return core.NewDynamicFromIndex(base, threshold, opts...)
}

// NewR builds the range-query structure over numeric object values
// (sorted ascending, value k belonging to object ID base+k).
func NewR(base ID, values []uint64) *R { return core.NewR(base, values) }

// SelectValueRange resolves (?, p, ?v) with lo <= value(v) <= hi.
func SelectValueRange(x RangeSelecter, r *R, p ID, lo, hi uint64) *Iterator {
	return core.SelectValueRange(x, r, p, lo, hi)
}

// GenerateDataset produces a synthetic dataset calibrated to one of the
// paper's six dataset shapes ("dblp", "geonames", "dbpedia", "watdiv",
// "lubm", "freebase"); see DESIGN.md for the substitution rationale.
func GenerateDataset(preset string, triples int, seed int64) (*Dataset, error) {
	return gen.GeneratePreset(preset, triples, seed)
}

// DatasetPresets lists the available synthetic dataset presets.
func DatasetPresets() []string { return gen.PresetNames() }
