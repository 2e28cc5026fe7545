// Package sparql implements the small SPARQL fragment the paper's final
// experiment needs (Table 6): basic graph patterns (BGPs) of triple
// patterns over integer IDs, a selectivity-driven query planner that
// serializes a BGP into a sequence of atomic triple selection patterns —
// the same methodology the paper borrows from TripleBit's planner — and a
// nested-loop executor that runs the decomposition against any index.
//
// Syntax accepted by Parse (IDs stand in for dictionary-encoded IRIs):
//
//	SELECT ?x ?y WHERE { ?x <3> ?y . ?y <5> <120> . }
//
// Variables are ?name tokens; constants are <id> with a decimal ID.
package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"rdfindexes/internal/core"
)

// Term is a variable or a constant ID in a triple pattern.
type Term struct {
	// Var is the variable name, empty for constants.
	Var string
	// ID is the constant value when Var is empty.
	ID core.ID
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term in query syntax.
func (t Term) String() string { return string(t.appendTo(nil)) }

func (t Term) appendTo(b []byte) []byte {
	if t.IsVar() {
		return append(append(b, '?'), t.Var...)
	}
	return append(strconv.AppendUint(append(b, '<'), uint64(t.ID), 10), '>')
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(id core.ID) Term { return Term{ID: id} }

// TriplePattern is one pattern of a BGP.
type TriplePattern struct {
	S, P, O Term
}

// String renders the pattern in query syntax.
func (tp TriplePattern) String() string { return string(tp.appendTo(nil)) }

func (tp TriplePattern) appendTo(b []byte) []byte {
	b = append(tp.S.appendTo(b), ' ')
	b = append(tp.P.appendTo(b), ' ')
	return append(tp.O.appendTo(b), " ."...)
}

// Query is a basic graph pattern with a projection list.
type Query struct {
	Vars     []string
	Patterns []TriplePattern
}

// String renders the query in the accepted syntax.
func (q Query) String() string { return string(q.AppendTo(nil)) }

// AppendTo appends the query's String form to b: the canonical text the
// server keys its caches by, built without fmt.
func (q Query) AppendTo(b []byte) []byte {
	b = append(b, "SELECT"...)
	for _, v := range q.Vars {
		b = append(append(b, " ?"...), v...)
	}
	b = append(b, " WHERE {"...)
	for _, p := range q.Patterns {
		b = p.appendTo(append(b, ' '))
	}
	return append(b, " }"...)
}

// Parse parses a query in the accepted fragment.
func Parse(input string) (Query, error) {
	toks, err := tokenize(input)
	if err != nil {
		return Query{}, err
	}
	p := &parser{toks: toks}
	return p.parseQuery()
}

type token struct {
	kind string // "kw", "var", "id", "punct"
	text string
	id   core.ID
}

func tokenize(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '{' || c == '}' || c == '.':
			toks = append(toks, token{kind: "punct", text: string(c)})
			i++
		case c == '?':
			j := i + 1
			for j < len(input) && isNameChar(input[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("sparql: empty variable name at offset %d", i)
			}
			toks = append(toks, token{kind: "var", text: input[i+1 : j]})
			i = j
		case c == '<':
			j := strings.IndexByte(input[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("sparql: unterminated <...> at offset %d", i)
			}
			body := input[i+1 : i+j]
			id, err := strconv.ParseUint(body, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("sparql: constant %q is not a numeric ID (dictionary-encode IRIs first)", body)
			}
			toks = append(toks, token{kind: "id", id: core.ID(id)})
			i += j + 1
		default:
			j := i
			for j < len(input) && isNameChar(input[j]) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("sparql: unexpected character %q at offset %d", c, i)
			}
			toks = append(toks, token{kind: "kw", text: strings.ToUpper(input[i:j])})
			i = j
		}
	}
	return toks, nil
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) next() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	t := p.toks[p.pos]
	p.pos++
	return t, true
}

func (p *parser) expectKw(kw string) error {
	t, ok := p.next()
	if !ok || t.kind != "kw" || t.text != kw {
		return fmt.Errorf("sparql: expected %s", kw)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	t, ok := p.next()
	if !ok || t.kind != "punct" || t.text != s {
		return fmt.Errorf("sparql: expected %q", s)
	}
	return nil
}

func (p *parser) parseQuery() (Query, error) {
	var q Query
	if err := p.expectKw("SELECT"); err != nil {
		return q, err
	}
	for p.pos < len(p.toks) && p.toks[p.pos].kind == "var" {
		q.Vars = append(q.Vars, p.toks[p.pos].text)
		p.pos++
	}
	if len(q.Vars) == 0 {
		return q, fmt.Errorf("sparql: SELECT needs at least one variable")
	}
	if err := p.expectKw("WHERE"); err != nil {
		return q, err
	}
	if err := p.expectPunct("{"); err != nil {
		return q, err
	}
	for p.pos < len(p.toks) && !(p.toks[p.pos].kind == "punct" && p.toks[p.pos].text == "}") {
		var terms [3]Term
		for k := 0; k < 3; k++ {
			t, ok := p.next()
			if !ok {
				return q, fmt.Errorf("sparql: truncated triple pattern")
			}
			switch t.kind {
			case "var":
				terms[k] = V(t.text)
			case "id":
				terms[k] = C(t.id)
			default:
				return q, fmt.Errorf("sparql: unexpected token %q in triple pattern", t.text)
			}
		}
		if err := p.expectPunct("."); err != nil {
			return q, err
		}
		q.Patterns = append(q.Patterns, TriplePattern{terms[0], terms[1], terms[2]})
	}
	if err := p.expectPunct("}"); err != nil {
		return q, err
	}
	if len(q.Patterns) == 0 {
		return q, fmt.Errorf("sparql: empty BGP")
	}
	// Projection variables must occur in the BGP.
	names, _ := resolve(q)
	for _, v := range q.Vars {
		if slotOf(names, v) == len(names) {
			return q, fmt.Errorf("sparql: projected variable ?%s not used in the BGP", v)
		}
	}
	return q, nil
}
