package server

import (
	"errors"
	"fmt"
	"strings"
)

// SPARQL 1.1 Update on the protocol endpoint, cut to the unit the store
// writes: one ground triple, inserted or deleted.
//
//	update := ("INSERT" | "DELETE") "DATA" "{" term term term ["."] "}" [";"]
//
// Keywords match case-insensitively and any whitespace separates tokens.
// A term is an N-Triples IRI, literal (with its language tag or datatype)
// or blank node, or a bare integer ID on an integer-only store; the store
// validates it exactly as it validates every write. Everything else the
// Update language has — PREFIX and BASE, pattern updates with WHERE,
// GRAPH blocks, several triples or operations in one request — is a 400
// that names what is unsupported.

// update is one parsed INSERT DATA or DELETE DATA operation.
type update struct {
	insert  bool
	s, p, o string
}

// updateSpace is the whitespace between update tokens.
const updateSpace = " \t\r\n"

// errOneTriple answers an update whose DATA block does not hold exactly
// one triple.
var errOneTriple = errors.New("unsupported update: a DATA block carries exactly one triple")

// parseUpdate reads text as one single-triple INSERT DATA or DELETE DATA.
func parseUpdate(text string) (update, error) {
	var u update
	verb, rest := cutKeyword(text)
	verb = strings.ToUpper(verb)
	switch verb {
	case "INSERT":
		u.insert = true
	case "DELETE":
	case "":
		if strings.TrimLeft(text, updateSpace) == "" {
			return u, errors.New("empty update")
		}
		return u, errors.New("update must start with INSERT DATA or DELETE DATA")
	case "PREFIX", "BASE":
		return u, fmt.Errorf("unsupported update: %s declarations (write full IRIs)", verb)
	default:
		return u, fmt.Errorf("unsupported update operation %s: only INSERT DATA and DELETE DATA are supported", verb)
	}
	kw, rest := cutKeyword(rest)
	if !strings.EqualFold(kw, "DATA") {
		return u, fmt.Errorf("unsupported update: %s without DATA (pattern updates with WHERE); only INSERT DATA and DELETE DATA are supported", verb)
	}
	rest = strings.TrimLeft(rest, updateSpace)
	if !strings.HasPrefix(rest, "{") {
		return u, fmt.Errorf("expected '{' after %s DATA", verb)
	}
	rest = rest[1:]
	var terms [3]string
	for i := range terms {
		var err error
		if terms[i], rest, err = cutTerm(rest); err != nil {
			return u, err
		}
		if i == 0 && strings.EqualFold(terms[i], "GRAPH") {
			return u, errors.New("unsupported update: GRAPH blocks (the store holds one default graph)")
		}
	}
	u.s, u.p, u.o = terms[0], terms[1], terms[2]
	rest = strings.TrimLeft(rest, updateSpace)
	rest = strings.TrimLeft(strings.TrimPrefix(rest, "."), updateSpace)
	switch {
	case rest == "":
		return u, fmt.Errorf("unterminated %s DATA block: missing '}'", verb)
	case rest[0] != '}':
		return u, errOneTriple
	}
	rest = strings.TrimLeft(rest[1:], updateSpace)
	rest = strings.TrimLeft(strings.TrimPrefix(rest, ";"), updateSpace)
	if rest != "" {
		return u, errors.New("unsupported update: more than one operation in a request")
	}
	return u, nil
}

// cutKeyword splits the leading run of ASCII letters, after whitespace,
// off s.
func cutKeyword(s string) (word, rest string) {
	s = strings.TrimLeft(s, updateSpace)
	i := 0
	for i < len(s) && (s[i]|0x20 >= 'a' && s[i]|0x20 <= 'z') {
		i++
	}
	return s[:i], s[i:]
}

// cutTerm splits the leading term, after whitespace, off s. It finds the
// term's end only; what the term means is the store's to judge.
func cutTerm(s string) (term, rest string, err error) {
	s = strings.TrimLeft(s, updateSpace)
	if s == "" || s[0] == '}' || s[0] == '.' {
		return "", "", errOneTriple
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return "", "", errors.New("unterminated IRI in update")
		}
		return s[:end+1], s[end+1:], nil
	case '"':
		end := 1
		for end < len(s) && s[end] != '"' {
			if s[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(s) {
			return "", "", errors.New("unterminated literal in update")
		}
		end++
		switch {
		case strings.HasPrefix(s[end:], "^^<"):
			dt := strings.IndexByte(s[end:], '>')
			if dt < 0 {
				return "", "", errors.New("unterminated datatype IRI in update")
			}
			end += dt + 1
		case strings.HasPrefix(s[end:], "@"):
			end++
			for end < len(s) && (isAlnum(s[end]) || s[end] == '-') {
				end++
			}
		}
		return s[:end], s[end:], nil
	}
	// A blank node, a bare integer ID or a token the store will reject:
	// it runs to whitespace or a brace, less a '.' that ends the triple.
	end := strings.IndexAny(s, updateSpace+"{}")
	if end < 0 {
		end = len(s)
	}
	if end > 1 && s[end-1] == '.' {
		end--
	}
	if end == 0 {
		return "", "", fmt.Errorf("unexpected %q in update", s[0])
	}
	return s[:end], s[end:], nil
}

func isAlnum(c byte) bool {
	return c >= '0' && c <= '9' || c|0x20 >= 'a' && c|0x20 <= 'z'
}
