// Package core implements the paper's contribution: the permuted trie
// index over integer RDF triples in its three variants — 3T (Section 3.1),
// CC with cross-compression (Section 3.2) and the two-trie layouts 2Tp and
// 2To (Section 3.3) — together with the select, enumerate and inverted
// pattern-matching algorithms, range queries, and dataset statistics.
package core

import "fmt"

// ID identifies a subject, predicate or object. Subjects, predicates and
// objects live in separate dense ID spaces so that trie first levels are
// complete integer ranges. The string dictionaries that assign IDs hold
// under 4 GiB of front-coded bytes each (dict.MaxBytes), so their bucket
// offsets are 32 bits wide too.
type ID uint32

// Wildcard is the pattern component that matches every ID.
const Wildcard = ID(^uint32(0))

// MaxID is the largest usable ID (Wildcard is reserved).
const MaxID = Wildcard - 1

// Role is the ID space a query variable ranges over. Subject and object
// positions join with each other (the store's dictionaries number them
// together); predicates are always numbered on their own, so the same ID
// names different terms in the two roles.
type Role uint8

// The two roles.
const (
	RoleSO Role = iota // subject or object
	RoleP              // predicate
)

// Triple is an RDF statement with components mapped to IDs.
type Triple struct {
	S, P, O ID
}

// String formats the triple as (s, p, o).
func (t Triple) String() string { return fmt.Sprintf("(%d, %d, %d)", t.S, t.P, t.O) }

// Less reports whether t precedes u in SPO lexicographic order.
func (t Triple) Less(u Triple) bool {
	if t.S != u.S {
		return t.S < u.S
	}
	if t.P != u.P {
		return t.P < u.P
	}
	return t.O < u.O
}

// Pattern is a triple selection pattern: each component is an ID or
// Wildcard.
type Pattern struct {
	S, P, O ID
}

// NewPattern builds a pattern from ints, mapping negative values to
// Wildcard.
func NewPattern(s, p, o int) Pattern {
	conv := func(x int) ID {
		if x < 0 {
			return Wildcard
		}
		return ID(x)
	}
	return Pattern{conv(s), conv(p), conv(o)}
}

// PatternOf returns the pattern that matches exactly t.
func PatternOf(t Triple) Pattern { return Pattern{t.S, t.P, t.O} }

// Matches reports whether t satisfies the pattern.
func (p Pattern) Matches(t Triple) bool {
	return (p.S == Wildcard || p.S == t.S) &&
		(p.P == Wildcard || p.P == t.P) &&
		(p.O == Wildcard || p.O == t.O)
}

// Shape classifies a pattern by which components are fixed.
type Shape uint8

// The eight triple selection patterns of the paper (x denotes a
// wildcard).
const (
	ShapeSPO Shape = iota
	ShapeSPx
	ShapeSxO
	ShapeSxx
	ShapexPO
	ShapexPx
	ShapexxO
	Shapexxx
	NumShapes = 8
)

var shapeNames = [NumShapes]string{"SPO", "SP?", "S?O", "S??", "?PO", "?P?", "??O", "???"}

// String returns the paper's notation for the shape, e.g. "S?O".
func (s Shape) String() string {
	if int(s) < len(shapeNames) {
		return shapeNames[s]
	}
	return fmt.Sprintf("Shape(%d)", uint8(s))
}

// AllShapes lists the eight shapes in the paper's order.
func AllShapes() []Shape {
	out := make([]Shape, NumShapes)
	for i := range out {
		out[i] = Shape(i)
	}
	return out
}

// Shape returns the classification of p.
func (p Pattern) Shape() Shape {
	s, pr, o := p.S != Wildcard, p.P != Wildcard, p.O != Wildcard
	switch {
	case s && pr && o:
		return ShapeSPO
	case s && pr:
		return ShapeSPx
	case s && o:
		return ShapeSxO
	case s:
		return ShapeSxx
	case pr && o:
		return ShapexPO
	case pr:
		return ShapexPx
	case o:
		return ShapexxO
	}
	return Shapexxx
}

// WithWildcards returns the pattern obtained from t by replacing the
// components named by shape's wildcards, e.g. ShapeSxO keeps S and O.
func WithWildcards(t Triple, shape Shape) Pattern {
	p := PatternOf(t)
	switch shape {
	case ShapeSPx:
		p.O = Wildcard
	case ShapeSxO:
		p.P = Wildcard
	case ShapeSxx:
		p.P, p.O = Wildcard, Wildcard
	case ShapexPO:
		p.S = Wildcard
	case ShapexPx:
		p.S, p.O = Wildcard, Wildcard
	case ShapexxO:
		p.S, p.P = Wildcard, Wildcard
	case Shapexxx:
		p.S, p.P, p.O = Wildcard, Wildcard, Wildcard
	}
	return p
}
