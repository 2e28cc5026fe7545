package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// triple is one statement in the benchmark's own ID space: s and o share
// the entity space (rdfgen's s<k> and o<k> become one term), p is the
// predicate space.
type triple struct{ s, p, o uint32 }

// vocab renders benchmark IDs as N-Triples terms. The rendering is a pure
// function of (seed, id), so the data file, the queries and the naive
// evaluator's expected rows all agree without a string table.
type vocab struct {
	seed    uint64
	literal []bool // literal[k]: object-only term k is a literal, not an IRI
}

// IRI namespaces of realistic length: dictionary front-coding sees long
// shared prefixes, as it does on real dumps.
var (
	entityNS = []string{
		"http://dbpedia.org/resource/",
		"http://www.wikidata.org/entity/",
		"http://data.example.org/catalog/item/",
		"http://purl.org/dc/terms/subject/",
	}
	predicateNS = []string{
		"http://dbpedia.org/ontology/",
		"http://dbpedia.org/property/",
		"http://xmlns.com/foaf/0.1/",
		"http://www.w3.org/2000/01/rdf-schema#",
	}
)

// mix is splitmix64: a seeded, stateless hash of an ID.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (v *vocab) pred(id uint32) string {
	h := mix(uint64(id)<<1 ^ v.seed)
	return "<" + predicateNS[h%uint64(len(predicateNS))] + "p" + strconv.FormatUint(uint64(id), 10) + ">"
}

// so renders a subject/object term. Literals come in the four kinds a
// serializer must tell apart: plain, language-tagged, typed, and one
// whose lexical form needs N-Triples, JSON and XML escapes. Every form
// embeds the ID, so distinct IDs never collide. Literals are written in
// the store's canonical escaping (\\ \" \n \r \t only), because a query
// constant must match the dictionary key byte for byte.
func (v *vocab) so(id uint32) string {
	k := strconv.FormatUint(uint64(id), 10)
	h := mix(uint64(id)<<1 ^ 1 ^ v.seed)
	if int(id) >= len(v.literal) || !v.literal[id] {
		return "<" + entityNS[h%uint64(len(entityNS))] + "E" + k + ">"
	}
	switch h % 8 {
	case 0, 1, 2:
		return `"Label of catalogue item ` + k + `"`
	case 3:
		return `"Étiquette numéro ` + k + `"@fr`
	case 4:
		return `"名前 ` + k + `"@ja`
	case 5:
		return `"` + k + `"^^<http://www.w3.org/2001/XMLSchema#integer>`
	case 6:
		return `"` + k + `.5"^^<http://www.w3.org/2001/XMLSchema#decimal>`
	default:
		return `"Quote \"` + k + `\" <tag> & back\\slash\nsecond line\ttabbed"`
	}
}

// dataset is the generated data: the triples in file order and the
// vocabulary that renders them.
type dataset struct {
	triples []triple
	vocab   *vocab
}

// generate runs rdfgen for the seed, then rewrites its N-Triples output
// into dataPath. rdfgen prints one numeric ID as two different strings
// (s<k>, o<k>), which would leave no subject-object joins; the rewrite
// maps both to one entity, draws namespaces from realistic prefixes and
// turns a third of the object-only terms into literals.
func generate(rdfgen string, triples int, seed int64, rawPath, dataPath string) (*dataset, error) {
	cmd := exec.Command(rdfgen, "-preset", "dbpedia", "-triples", strconv.Itoa(triples),
		"-seed", strconv.FormatInt(seed, 10), "-format", "nt", "-out", rawPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("rdfgen: %v: %s", err, out)
	}
	raw, err := os.ReadFile(rawPath)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(rawPath); err != nil {
		return nil, err
	}
	ts, err := parseGenerated(raw, triples)
	if err != nil {
		return nil, err
	}
	d := &dataset{triples: ts, vocab: newVocab(ts, seed)}
	if err := d.write(dataPath); err != nil {
		return nil, err
	}
	return d, nil
}

// parseGenerated reads rdfgen's "<http://gen/sK> <http://gen/pK> <http://gen/oK> ." lines.
func parseGenerated(raw []byte, hint int) ([]triple, error) {
	ts := make([]triple, 0, hint)
	for n := 1; len(raw) > 0; n++ {
		line := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], raw[i+1:]
		} else {
			raw = nil
		}
		if len(line) == 0 {
			continue
		}
		f := strings.Fields(string(line))
		if len(f) != 4 || f[3] != "." {
			return nil, fmt.Errorf("rdfgen output line %d: unexpected shape %q", n, line)
		}
		var ids [3]uint32
		for i, letter := range []string{"s", "p", "o"} {
			num, ok := strings.CutPrefix(f[i], "<http://gen/"+letter)
			num, ok2 := strings.CutSuffix(num, ">")
			v, err := strconv.ParseUint(num, 10, 32)
			if !ok || !ok2 || err != nil {
				return nil, fmt.Errorf("rdfgen output line %d: unexpected term %q", n, f[i])
			}
			ids[i] = uint32(v)
		}
		ts = append(ts, triple{ids[0], ids[1], ids[2]})
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("rdfgen wrote no triples")
	}
	return ts, nil
}

// newVocab decides which terms are literals: a seeded third of the terms
// that occur as objects only.
func newVocab(ts []triple, seed int64) *vocab {
	var maxID uint32
	for _, t := range ts {
		maxID = max(maxID, t.s, t.o)
	}
	isSubject := make([]bool, maxID+1)
	for _, t := range ts {
		isSubject[t.s] = true
	}
	v := &vocab{seed: mix(uint64(seed)), literal: make([]bool, maxID+1)}
	for _, t := range ts {
		if !isSubject[t.o] && mix(uint64(t.o)<<1^v.seed)%3 == 0 {
			v.literal[t.o] = true
		}
	}
	return v
}

func (d *dataset) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, t := range d.triples {
		w.WriteString(d.vocab.so(t.s))
		w.WriteByte(' ')
		w.WriteString(d.vocab.pred(t.p))
		w.WriteByte(' ')
		w.WriteString(d.vocab.so(t.o))
		w.WriteString(" .\n")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
