package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// The naive evaluator is the benchmark's independent reference: hash maps
// over the generated triples and a nested-loop join, sharing no code with
// the store. Every distinct query's server answer is compared with it
// once, during the warm-up pass.

type span struct{ lo, hi int32 }

// qterm is a query term: a variable (index into query.vars) or a constant.
type qterm struct {
	isVar bool
	v     int    // variable index when isVar
	id    uint32 // constant ID otherwise
}

func variable(i int) qterm     { return qterm{isVar: true, v: i} }
func constant(id uint32) qterm { return qterm{id: id} }

// qpattern is one triple pattern. Predicates are always bound (see
// README: unbound predicates are rendered through the wrong dictionary
// by the server today and are kept out of the mixes).
type qpattern struct {
	s qterm
	p uint32
	o qterm
}

// query is a basic graph pattern projecting all of its variables.
type query struct {
	vars []string
	pats []qpattern
}

func (q query) text(v *vocab) string {
	var sb strings.Builder
	sb.WriteString("SELECT")
	for _, name := range q.vars {
		sb.WriteString(" ?" + name)
	}
	sb.WriteString(" WHERE {")
	term := func(t qterm) string {
		if t.isVar {
			return "?" + q.vars[t.v]
		}
		return v.so(t.id)
	}
	for _, p := range q.pats {
		sb.WriteString(" " + term(p.s) + " " + v.pred(p.p) + " " + term(p.o) + " .")
	}
	sb.WriteString(" }")
	return sb.String()
}

type naive struct {
	spo       []triple           // sorted by s, p, o
	pos       []triple           // sorted by p, o, s
	bySubject map[uint32]span    // s      -> range of spo
	bySP      map[[2]uint32]span // (s, p) -> range of spo
	byP       map[uint32]span    // p      -> range of pos
	byPO      map[[2]uint32]span // (p, o) -> range of pos
}

func newNaive(ts []triple) *naive {
	n := &naive{
		spo:       slices.Clone(ts),
		pos:       slices.Clone(ts),
		bySubject: map[uint32]span{},
		bySP:      map[[2]uint32]span{},
		byP:       map[uint32]span{},
		byPO:      map[[2]uint32]span{},
	}
	slices.SortFunc(n.spo, func(a, b triple) int {
		return cmp.Or(cmp.Compare(a.s, b.s), cmp.Compare(a.p, b.p), cmp.Compare(a.o, b.o))
	})
	slices.SortFunc(n.pos, func(a, b triple) int {
		return cmp.Or(cmp.Compare(a.p, b.p), cmp.Compare(a.o, b.o), cmp.Compare(a.s, b.s))
	})
	for i, t := range n.spo {
		extend(n.bySubject, t.s, i)
		extend(n.bySP, [2]uint32{t.s, t.p}, i)
	}
	for i, t := range n.pos {
		extend(n.byP, t.p, i)
		extend(n.byPO, [2]uint32{t.p, t.o}, i)
	}
	return n
}

// extend grows key's range to cover position i of a sorted array.
func extend[K comparable](m map[K]span, key K, i int) {
	if r, ok := m[key]; ok {
		r.hi = int32(i + 1)
		m[key] = r
	} else {
		m[key] = span{int32(i), int32(i + 1)}
	}
}

// matches returns the triples matching one pattern under the current
// bindings.
func (n *naive) matches(p qpattern, vals []uint32, bound []bool) []triple {
	s, sOK := resolve(p.s, vals, bound)
	o, oOK := resolve(p.o, vals, bound)
	switch {
	case sOK:
		r := n.bySP[[2]uint32{s, p.p}]
		cand := n.spo[r.lo:r.hi]
		if !oOK {
			return cand
		}
		for i, t := range cand {
			if t.o == o {
				return cand[i : i+1]
			}
		}
		return nil
	case oOK:
		r := n.byPO[[2]uint32{p.p, o}]
		return n.pos[r.lo:r.hi]
	default:
		r := n.byP[p.p]
		return n.pos[r.lo:r.hi]
	}
}

func resolve(t qterm, vals []uint32, bound []bool) (uint32, bool) {
	if !t.isVar {
		return t.id, true
	}
	return vals[t.v], bound[t.v]
}

// eval returns the solutions of q as rows of IDs in q.vars order, their
// count, and the number of triples the nested loops visited. With
// limit >= 0 it keeps no rows and gives up once it has counted more than
// limit solutions or visited more than maxVisitedPerRow*limit triples:
// the workload sampler only needs to know whether an answer is small and
// cheap enough.
func (n *naive) eval(q query, limit int) (rows [][]uint32, count, visited int) {
	vals := make([]uint32, len(q.vars))
	bound := make([]bool, len(q.vars))
	done := make([]bool, len(q.pats))
	var rec func(left int) bool
	rec = func(left int) bool {
		if left == 0 {
			count++
			if limit >= 0 {
				return count <= limit
			}
			rows = append(rows, slices.Clone(vals))
			return true
		}
		// Most-bound pattern first keeps intermediate results small.
		best, bestScore := -1, -1
		for i, p := range q.pats {
			if done[i] {
				continue
			}
			score := 0
			if _, ok := resolve(p.s, vals, bound); ok {
				score += 2
			}
			if _, ok := resolve(p.o, vals, bound); ok {
				score++
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		p := q.pats[best]
		done[best] = true
		defer func() { done[best] = false }()
		for _, t := range n.matches(p, vals, bound) {
			visited++
			if limit >= 0 && visited > maxVisitedPerRow*limit {
				return false
			}
			sNew := p.s.isVar && !bound[p.s.v]
			if sNew {
				vals[p.s.v], bound[p.s.v] = t.s, true
			}
			// ?x p ?x: the object must equal the subject just bound.
			ok := true
			oNew := false
			if p.o.isVar {
				if bound[p.o.v] {
					ok = vals[p.o.v] == t.o
				} else {
					vals[p.o.v], bound[p.o.v] = t.o, true
					oNew = true
				}
			}
			cont := true
			if ok {
				cont = rec(left - 1)
			}
			if sNew {
				bound[p.s.v] = false
			}
			if oNew {
				bound[p.o.v] = false
			}
			if !cont {
				return false
			}
		}
		return true
	}
	rec(len(q.pats))
	return rows, count, visited
}

// sparqlJSON is the W3C SPARQL 1.1 Query Results JSON document.
type sparqlJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]struct {
			Type     string `json:"type"`
			Value    string `json:"value"`
			Lang     string `json:"xml:lang"`
			Datatype string `json:"datatype"`
		} `json:"bindings"`
	} `json:"results"`
}

// quoteNT writes a literal's lexical form with the N-Triples escapes the
// data file uses.
func quoteNT(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`, "\t", `\t`)
	return `"` + r.Replace(s) + `"`
}

// decodeRows turns a SPARQL JSON body into rows of N-Triples terms in
// vars order, each row joined with NUL so rows sort and compare as strings.
func decodeRows(body []byte, vars []string) ([]string, error) {
	var doc sparqlJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding SPARQL JSON: %w", err)
	}
	if !slices.Equal(doc.Head.Vars, vars) {
		return nil, fmt.Errorf("head vars %v, want %v", doc.Head.Vars, vars)
	}
	rows := make([]string, 0, len(doc.Results.Bindings))
	parts := make([]string, len(vars))
	for _, b := range doc.Results.Bindings {
		if len(b) != len(vars) {
			return nil, fmt.Errorf("row binds %d variables, want %d", len(b), len(vars))
		}
		for i, name := range vars {
			t, ok := b[name]
			switch {
			case !ok:
				return nil, fmt.Errorf("row does not bind ?%s", name)
			case t.Type == "uri":
				parts[i] = "<" + t.Value + ">"
			case t.Type == "literal" && t.Lang != "":
				parts[i] = quoteNT(t.Value) + "@" + t.Lang
			case t.Type == "literal" && t.Datatype != "":
				parts[i] = quoteNT(t.Value) + "^^<" + t.Datatype + ">"
			case t.Type == "literal":
				parts[i] = quoteNT(t.Value)
			default:
				return nil, fmt.Errorf("unexpected term type %q", t.Type)
			}
		}
		rows = append(rows, strings.Join(parts, "\x00"))
	}
	return rows, nil
}

// renderRows renders the naive evaluator's ID rows the same way.
func renderRows(rows [][]uint32, v *vocab) []string {
	out := make([]string, len(rows))
	parts := make([]string, 0, 4)
	for i, r := range rows {
		parts = parts[:0]
		for _, id := range r {
			parts = append(parts, v.so(id))
		}
		out[i] = strings.Join(parts, "\x00")
	}
	return out
}

// sameRows compares two answers as multisets (a BGP answer is a bag, and
// the server is free to emit it in any order).
func sameRows(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	slices.Sort(got)
	slices.Sort(want)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d is %q, want %q",
				i, strings.ReplaceAll(got[i], "\x00", " "), strings.ReplaceAll(want[i], "\x00", " "))
		}
	}
	return nil
}
