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
// ParseWith also accepts constants spelled as RDF terms, which its
// Resolver maps to IDs as the parser reaches them.
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

// Parse parses a query in the accepted fragment, whose constants are all
// <id>.
func Parse(input string) (Query, error) { return ParseWith(input, nil) }

// Resolver maps a constant of the BGP that is not an <id> — an <IRI>, a
// "literal" with any @lang or ^^<datatype> suffix, a blank node — to its
// dictionary ID. term is the constant as the query spells it; pred says
// it stands in predicate position, whose IDs are a separate space.
type Resolver func(term string, pred bool) (core.ID, error)

// ParseWith parses a query whose BGP may also spell its constants as RDF
// terms, which resolve maps to IDs (nil: only <id> constants). The query
// is tokenized and resolved in one pass over the text, term-aware: dots
// inside <IRI>s and "literal"s, near universal in real RDF, do not
// separate patterns. Nothing after the BGP's closing brace is read.
func ParseWith(input string, resolve Resolver) (Query, error) {
	var q Query
	if err := ParseInto(&q, input, resolve); err != nil {
		return Query{}, err
	}
	return q, nil
}

// ParseInto is ParseWith into q, reusing the capacity of q's slices: a
// caller that recycles its Query, keeping nothing of it past its next
// use, parses without allocating. On an error q is left empty.
func ParseInto(q *Query, input string, resolve Resolver) error {
	p := parser{in: input, terms: resolve != nil}
	q.Vars, q.Patterns = q.Vars[:0], q.Patterns[:0]
	return p.parseQuery(q, resolve)
}

// tokKind classifies a token.
type tokKind uint8

const (
	tokEOF   tokKind = iota
	tokKw            // a bare word before the BGP: SELECT, WHERE
	tokVar           // ?name; text is the name
	tokID            // <digits>; id is the value
	tokTerm          // any other constant inside the BGP; text as written
	tokPunct         // { } or .
)

type token struct {
	kind tokKind
	text string
	id   core.ID
}

// parser lexes the query as it parses it, one token at a time, so the
// only allocations are the slices of the Query it fills.
type parser struct {
	in    string
	pos   int
	inBGP bool // past the BGP's opening brace
	terms bool // constants may be RDF terms, not only <id>
}

// next lexes the token at the read position.
func (p *parser) next() (token, error) {
	in := p.in
	i := p.pos
	for i < len(in) && isSpace(in[i]) {
		i++
	}
	if i == len(in) {
		p.pos = i
		return token{}, nil
	}
	c, j := in[i], i+1
	var t token
	switch {
	case c == '{' || c == '}' || c == '.':
		t = token{kind: tokPunct, text: in[i:j]}
	case c == '?':
		for j < len(in) && isNameChar(in[j]) {
			j++
		}
		if j == i+1 {
			return t, fmt.Errorf("sparql: empty variable name at offset %d", i)
		}
		t = token{kind: tokVar, text: in[i+1 : j]}
	case c == '<':
		k := strings.IndexByte(in[i:], '>')
		if k < 0 {
			return t, fmt.Errorf("sparql: unterminated <...> at offset %d", i)
		}
		j = i + k + 1
		body := in[i+1 : j-1]
		if isDigits(body) || !p.terms {
			id, err := strconv.ParseUint(body, 10, 32)
			if err != nil {
				return t, fmt.Errorf("sparql: constant %q is not a numeric ID (dictionary-encode IRIs first)", body)
			}
			t = token{kind: tokID, id: core.ID(id)}
		} else {
			t = token{kind: tokTerm, text: in[i:j]}
		}
	case c == '"' && p.inBGP:
		var err error
		if j, err = literalEnd(in, i); err != nil {
			return t, err
		}
		t = token{kind: tokTerm, text: in[i:j]}
	case p.inBGP:
		// A bare constant (a blank node, say): it runs to whitespace, a
		// dot or a brace.
		for j < len(in) && !isSpace(in[j]) && in[j] != '.' && in[j] != '{' && in[j] != '}' {
			j++
		}
		t = token{kind: tokTerm, text: in[i:j]}
	default:
		j = i
		for j < len(in) && isNameChar(in[j]) {
			j++
		}
		if j == i {
			return t, fmt.Errorf("sparql: unexpected character %q at offset %d", c, i)
		}
		t = token{kind: tokKw, text: in[i:j]}
	}
	p.pos = j
	return t, nil
}

// literalEnd returns the end of the "literal" starting at i, past any
// attached @lang or ^^<datatype> suffix; a bare '.' after the closing
// quote stays a pattern separator.
func literalEnd(in string, i int) (int, error) {
	j := i + 1
	for j < len(in) && in[j] != '"' {
		if in[j] == '\\' {
			j++
		}
		j++
	}
	if j >= len(in) {
		return 0, fmt.Errorf("sparql: unterminated string literal at offset %d", i)
	}
	j++ // closing quote
	if j < len(in) && in[j] == '@' {
		j++
		for j < len(in) && (isNameChar(in[j]) || in[j] == '-') && in[j] != '_' {
			j++
		}
	} else if strings.HasPrefix(in[j:], "^^<") {
		k := strings.IndexByte(in[j:], '>')
		if k < 0 {
			return 0, fmt.Errorf("sparql: unterminated datatype IRI at offset %d", j)
		}
		j += k + 1
	}
	return j, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return s != ""
}

// expect consumes the next token and checks that it is the keyword or
// punctuation want.
func (p *parser) expect(kind tokKind, want string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.kind != kind || !strings.EqualFold(t.text, want) {
		if kind == tokKw {
			return fmt.Errorf("sparql: expected %s", want)
		}
		return fmt.Errorf("sparql: expected %q", want)
	}
	return nil
}

// maxInline is how many projected variables and patterns a query may have
// before parsing them spills from the stack: they are collected there and
// copied out once, at their exact size.
const maxInline = 8

func (p *parser) parseQuery(q *Query, resolve Resolver) error {
	if err := p.expect(tokKw, "SELECT"); err != nil {
		return err
	}
	var varBuf [maxInline]string
	vars := varBuf[:0]
	t, err := p.next()
	for ; err == nil && t.kind == tokVar; t, err = p.next() {
		vars = append(vars, t.text)
	}
	if err != nil {
		return err
	}
	if len(vars) == 0 {
		return fmt.Errorf("sparql: SELECT needs at least one variable")
	}
	if t.kind != tokKw || !strings.EqualFold(t.text, "WHERE") {
		return fmt.Errorf("sparql: expected WHERE")
	}
	if err := p.expect(tokPunct, "{"); err != nil {
		return err
	}
	p.inBGP = true
	var patBuf [maxInline]TriplePattern
	pats := patBuf[:0]
	for {
		t, err := p.next()
		if err != nil {
			return err
		}
		if t.kind == tokPunct && t.text == "}" {
			break
		}
		var terms [3]Term
		for k := range terms {
			if k > 0 {
				if t, err = p.next(); err != nil {
					return err
				}
			}
			if terms[k], err = p.term(t, k == 1, resolve); err != nil {
				return err
			}
		}
		pats = append(pats, TriplePattern{terms[0], terms[1], terms[2]})
		if t, err = p.next(); err != nil {
			return err
		}
		if t.kind == tokPunct && t.text == "." {
			continue
		}
		// The integer syntax ends every pattern with a dot; with RDF
		// terms, as in SPARQL, the last pattern's dot is optional.
		if !p.terms || t.kind != tokPunct || t.text != "}" {
			return fmt.Errorf("sparql: expected %q after triple pattern", ".")
		}
		break
	}
	if len(pats) == 0 {
		return fmt.Errorf("sparql: empty BGP")
	}
	// Projection variables must occur in the BGP.
	for _, v := range vars {
		if !(Query{Patterns: pats}).uses(v) {
			return fmt.Errorf("sparql: projected variable ?%s not used in the BGP", v)
		}
	}
	q.Vars, q.Patterns = append(q.Vars, vars...), append(q.Patterns, pats...)
	return nil
}

// term turns the token t at a pattern position into a Term, resolving an
// RDF-term constant; pred marks the predicate position.
func (p *parser) term(t token, pred bool, resolve Resolver) (Term, error) {
	switch {
	case t.kind == tokVar:
		return V(t.text), nil
	case t.kind == tokID:
		return C(t.id), nil
	case t.kind == tokTerm && resolve != nil:
		id, err := resolve(t.text, pred)
		return C(id), err
	case t.kind == tokEOF:
		return Term{}, fmt.Errorf("sparql: truncated triple pattern")
	}
	return Term{}, fmt.Errorf("sparql: unexpected token %q in triple pattern", t.text)
}

// uses reports whether variable v occurs in one of q's patterns.
func (q Query) uses(v string) bool {
	for _, tp := range q.Patterns {
		if tp.S.Var == v || tp.P.Var == v || tp.O.Var == v {
			return true
		}
	}
	return false
}
