// Package rdf provides a minimal RDF term model and an N-Triples subset
// parser/serializer, plus the bridge that dictionary-encodes parsed
// statements into the integer datasets the indexes operate on. The paper
// indexes integer triples and treats URI-to-ID mapping as a separate
// problem; this package supplies that mapping for the end-to-end tools.
package rdf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
)

// TermKind discriminates RDF term types.
type TermKind uint8

// The three N-Triples term kinds.
const (
	IRI TermKind = iota
	BlankNode
	Literal
)

// Term is an RDF term. For literals, Value holds the lexical form and
// Qualifier the language tag or datatype IRI (may be empty).
type Term struct {
	Kind      TermKind
	Value     string
	Qualifier string
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case BlankNode:
		return "_:" + t.Value
	default:
		s := quoteLiteral(t.Value)
		if strings.HasPrefix(t.Qualifier, "@") {
			return s + t.Qualifier
		}
		if t.Qualifier != "" {
			return s + "^^<" + t.Qualifier + ">"
		}
		return s
	}
}

// quoteLiteral serializes a literal's lexical form using exactly the
// escape set the parser decodes (\\ \" \n \r \t); other bytes pass
// through raw. Emitting Go-style \x.. or \u.. escapes here would break
// the Key round trip the write-ahead log depends on — the parser would
// read them back as different characters.
func quoteLiteral(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 2)
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

// Key returns a canonical string for dictionary encoding.
func (t Term) Key() string { return t.String() }

// Statement is one parsed triple.
type Statement struct {
	S, P, O Term
}

// String renders the statement as an N-Triples line.
func (st Statement) String() string {
	return fmt.Sprintf("%v %v %v .", st.S, st.P, st.O)
}

// ParseLine parses a single N-Triples statement. Empty lines and
// #-comments yield ok=false with a nil error.
func ParseLine(line string) (Statement, bool, error) {
	p := &lineParser{s: line}
	p.skipSpace()
	if p.done() || p.peek() == '#' {
		return Statement{}, false, nil
	}
	s, err := p.term()
	if err != nil {
		return Statement{}, false, err
	}
	pr, err := p.term()
	if err != nil {
		return Statement{}, false, err
	}
	if pr.Kind != IRI {
		return Statement{}, false, fmt.Errorf("rdf: predicate must be an IRI in %q", line)
	}
	o, err := p.term()
	if err != nil {
		return Statement{}, false, err
	}
	p.skipSpace()
	if p.done() || p.peek() != '.' {
		return Statement{}, false, fmt.Errorf("rdf: missing terminating '.' in %q", line)
	}
	return Statement{S: s, P: pr, O: o}, true, nil
}

type lineParser struct {
	s   string
	pos int
}

func (p *lineParser) done() bool { return p.pos >= len(p.s) }
func (p *lineParser) peek() byte { return p.s[p.pos] }
func (p *lineParser) skipSpace() {
	for !p.done() && (p.peek() == ' ' || p.peek() == '\t') {
		p.pos++
	}
}

func (p *lineParser) term() (Term, error) {
	p.skipSpace()
	if p.done() {
		return Term{}, fmt.Errorf("rdf: truncated statement %q", p.s)
	}
	switch p.peek() {
	case '<':
		end := strings.IndexByte(p.s[p.pos:], '>')
		if end < 0 {
			return Term{}, fmt.Errorf("rdf: unterminated IRI in %q", p.s)
		}
		iri := p.s[p.pos+1 : p.pos+end]
		p.pos += end + 1
		return Term{Kind: IRI, Value: iri}, nil
	case '_':
		if p.pos+1 >= len(p.s) || p.s[p.pos+1] != ':' {
			return Term{}, fmt.Errorf("rdf: malformed blank node in %q", p.s)
		}
		j := p.pos + 2
		for j < len(p.s) && p.s[j] != ' ' && p.s[j] != '\t' {
			j++
		}
		name := p.s[p.pos+2 : j]
		p.pos = j
		if name == "" {
			return Term{}, fmt.Errorf("rdf: empty blank node label in %q", p.s)
		}
		return Term{Kind: BlankNode, Value: name}, nil
	case '"':
		// Scan the closing quote honoring backslash escapes.
		j := p.pos + 1
		var sb strings.Builder
		for j < len(p.s) {
			c := p.s[j]
			if c == '\\' && j+1 < len(p.s) {
				esc := p.s[j+1]
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case 'r':
					sb.WriteByte('\r')
				case '"', '\\':
					sb.WriteByte(esc)
				default:
					sb.WriteByte(esc)
				}
				j += 2
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
			j++
		}
		if j >= len(p.s) {
			return Term{}, fmt.Errorf("rdf: unterminated literal in %q", p.s)
		}
		term := Term{Kind: Literal, Value: sb.String()}
		p.pos = j + 1
		// Optional language tag or datatype.
		if p.pos < len(p.s) && p.peek() == '@' {
			k := p.pos
			for k < len(p.s) && p.s[k] != ' ' && p.s[k] != '\t' {
				k++
			}
			term.Qualifier = p.s[p.pos:k]
			p.pos = k
		} else if strings.HasPrefix(p.s[p.pos:], "^^<") {
			end := strings.IndexByte(p.s[p.pos+3:], '>')
			if end < 0 {
				return Term{}, fmt.Errorf("rdf: unterminated datatype in %q", p.s)
			}
			term.Qualifier = p.s[p.pos+3 : p.pos+3+end]
			p.pos += 3 + end + 1
		}
		return term, nil
	}
	return Term{}, fmt.Errorf("rdf: unexpected character %q in %q", p.peek(), p.s)
}

// ParseTerm parses exactly one N-Triples term (IRI, blank node, or
// literal with optional language tag or datatype), requiring the whole
// string to be consumed. The write path uses it to canonicalize
// user-supplied terms before dictionary lookup and WAL logging.
func ParseTerm(s string) (Term, error) {
	p := &lineParser{s: s}
	t, err := p.term()
	if err != nil {
		return Term{}, err
	}
	p.skipSpace()
	if !p.done() {
		return Term{}, fmt.Errorf("rdf: trailing input after term in %q", s)
	}
	return t, nil
}

// ParseAll reads N-Triples statements from r, skipping comments and blank
// lines.
func ParseAll(r io.Reader) ([]Statement, error) {
	var out []Statement
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		st, ok, err := ParseLine(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if ok {
			out = append(out, st)
		}
	}
	return out, sc.Err()
}

// Dicts holds the three component dictionaries. Subjects and objects
// share one dictionary (entities commonly appear in both positions, and
// joins require a shared ID space); predicates get their own. The fields
// are dict.Reader so a serving view can substitute overlay-extended
// dictionaries (immutable front-coded base + in-memory additions) for
// the plain front-coded ones the build path produces.
type Dicts struct {
	SO dict.Reader
	P  dict.Reader
}

// Encode dictionary-encodes statements into an integer dataset plus its
// dictionaries. The SO dictionary numbers subjects first: IDs [0, k)
// are the terms that are the subject of a triple, sorted, and [k, n)
// the terms that are only objects, sorted, so the dataset's subject
// space is [0, k) and every trie level keyed by a subject draws from it,
// while objects range over all n.
func Encode(statements []Statement) (*core.Dataset, *Dicts, error) {
	soSet := map[string]int{} // 1 for a subject, 0 for an object only
	pSet := map[string]int{}
	for _, st := range statements {
		soSet[st.S.Key()] = 1
		if _, ok := soSet[st.O.Key()]; !ok {
			soSet[st.O.Key()] = 0
		}
		pSet[st.P.Key()] = 0
	}
	var runs [2][]string
	for s, subject := range soSet {
		runs[1-subject] = append(runs[1-subject], s)
	}
	// Each run's sorted order is its rank order in the dictionary, so
	// the sets double as the term-to-ID map for the encode loop below.
	k := len(runs[0])
	for i, strs := range runs {
		sort.Strings(strs)
		for j, s := range strs {
			soSet[s] = i*k + j
		}
	}
	so, err := dict.NewSplit(runs[0], runs[1], dict.DefaultBucketSize)
	if err != nil {
		return nil, nil, err
	}
	pd, err := rankedDict(pSet)
	if err != nil {
		return nil, nil, err
	}
	ds := &Dicts{SO: so, P: pd}

	ts := make([]core.Triple, 0, len(statements))
	for _, st := range statements {
		ts = append(ts, core.Triple{
			S: core.ID(soSet[st.S.Key()]),
			P: core.ID(pSet[st.P.Key()]),
			O: core.ID(soSet[st.O.Key()]),
		})
	}
	d := core.NewDataset(ts)
	// Complete ID ranges: the subjects, and the shared subject/object
	// space for objects.
	d.NS, d.NO = k, so.Len()
	return d, ds, nil
}

// rankedDict builds the front-coded dictionary over set's keys and
// stores each key's rank (its dictionary ID) as its value.
func rankedDict(set map[string]int) (*dict.Dict, error) {
	strs := make([]string, 0, len(set))
	for s := range set {
		strs = append(strs, s)
	}
	sort.Strings(strs)
	for i, s := range strs {
		set[s] = i
	}
	return dict.New(strs, dict.DefaultBucketSize)
}

// DecodeTriple maps an integer triple back to N-Triples syntax.
func (ds *Dicts) DecodeTriple(t core.Triple) (string, error) {
	s, ok1 := ds.SO.Extract(int(t.S))
	p, ok2 := ds.P.Extract(int(t.P))
	o, ok3 := ds.SO.Extract(int(t.O))
	if !ok1 || !ok2 || !ok3 {
		return "", fmt.Errorf("rdf: triple %v has IDs outside the dictionaries", t)
	}
	return fmt.Sprintf("%s %s %s .", s, p, o), nil
}
