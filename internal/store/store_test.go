package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/seq"
	"rdfindexes/internal/trie"
)

const sampleNT = `<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/bob> <http://ex/knows> <http://ex/carol> .
<http://ex/alice> <http://ex/age> "30" .
<http://ex/carol> <http://ex/knows> <http://ex/alice> .
`

func buildSample(t testing.TB, layout core.Layout) *Store {
	t.Helper()
	return encodeNT(t, sampleNT, layout)
}

// encodeNT builds the store of the N-Triples text nt in memory.
func encodeNT(t testing.TB, nt string, layout core.Layout) *Store {
	t.Helper()
	statements, err := rdf.ParseAll(strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	d, dicts, err := rdf.Encode(statements)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.Build(d, layout)
	if err != nil {
		t.Fatal(err)
	}
	return &Store{Index: x, Dicts: dicts}
}

// randomStore builds the store of n random triples over nso subject and
// object IRIs and np predicate IRIs. Subjects and objects share their
// IRIs, so the SO dictionary numbers them in [0, nso).
func randomStore(t testing.TB, rng *rand.Rand, n, nso, np int, layout core.Layout) *Store {
	t.Helper()
	var nt strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&nt, "<http://ex/n%d> <http://ex/p%d> <http://ex/n%d> .\n", rng.Intn(nso), rng.Intn(np), rng.Intn(nso))
	}
	return encodeNT(t, nt.String(), layout)
}

func TestStoreRoundTrip(t *testing.T) {
	for _, layout := range []core.Layout{core.Layout3T, core.LayoutCC, core.Layout2Tp, core.Layout2To} {
		t.Run(layout.String(), func(t *testing.T) {
			st := buildSample(t, layout)
			path := filepath.Join(t.TempDir(), "store.idx")
			if err := Write(path, st); err != nil {
				t.Fatal(err)
			}
			got, err := Read(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.Index.Layout() != layout || got.Index.NumTriples() != st.Index.NumTriples() {
				t.Fatalf("round trip changed the index: %v/%d", got.Index.Layout(), got.Index.NumTriples())
			}
			pat, err := got.ParsePattern("<http://ex/alice>", "?", "?")
			if err != nil {
				t.Fatal(err)
			}
			if n := got.Index.Select(pat).Count(); n != 2 {
				t.Fatalf("alice has %d triples, want 2", n)
			}
		})
	}
}

func TestParseTerm(t *testing.T) {
	st := buildSample(t, core.Layout2Tp)
	if id, err := st.ParseTerm("?", false); err != nil || id != core.Wildcard {
		t.Fatalf("wildcard: %v %v", id, err)
	}
	if id, err := st.ParseTerm("", false); err != nil || id != core.Wildcard {
		t.Fatalf("empty: %v %v", id, err)
	}
	if _, err := st.ParseTerm("<http://ex/nobody>", false); err == nil {
		t.Fatal("unknown term accepted")
	}
	if id, err := st.ParseTerm("3", false); err != nil || id != 3 {
		t.Fatalf("integer ID: %v %v", id, err)
	}
	if _, err := st.ParseTerm("bogus term", false); err == nil {
		t.Fatal("garbage term accepted")
	}
	// Predicate terms resolve through the predicate dictionary.
	pid, err := st.ParseTerm("<http://ex/knows>", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RenderPredicate(pid); got != "<http://ex/knows>" {
		t.Fatalf("predicate render: %q", got)
	}
	// Literals resolve through the SO dictionary.
	if _, err := st.ParseTerm("\"30\"", false); err != nil {
		t.Fatalf("literal: %v", err)
	}
}

func TestTranslateQuery(t *testing.T) {
	st := buildSample(t, core.Layout2Tp)
	out, err := st.TranslateQuery("SELECT ?x WHERE { ?x <http://ex/knows> <http://ex/bob> . }")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "http://") {
		t.Fatalf("translation left URIs behind: %s", out)
	}
	if _, err := st.TranslateQuery("SELECT ?x WHERE { ?x <http://ex/knows> . }"); err == nil {
		t.Fatal("2-term pattern accepted")
	}
	if _, err := st.TranslateQuery("no braces"); err == nil {
		t.Fatal("query without block accepted")
	}
	if _, err := st.TranslateQuery("SELECT ?x WHERE { ?x <http://ex/missing> ?y . }"); err == nil {
		t.Fatal("unknown predicate accepted")
	}
}

// TestTranslateQueryDottedTerms covers real-world RDF spellings: IRIs
// with dots (virtually all of them), literals with dots, datatype and
// language suffixes, and a separator dot glued to a term.
func TestTranslateQueryDottedTerms(t *testing.T) {
	nt := `<http://example.org/alice> <http://xmlns.com/foaf/0.1/knows> <http://example.org/bob> .
<http://example.org/alice> <http://example.org/version> "v1.0" .
`
	statements, err := rdf.ParseAll(strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	d, dicts, err := rdf.Encode(statements)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	st := &Store{Index: x, Dicts: dicts}

	for _, q := range []string{
		"SELECT ?x WHERE { ?x <http://xmlns.com/foaf/0.1/knows> <http://example.org/bob> . }",
		"SELECT ?x WHERE { ?x <http://example.org/version> \"v1.0\" . }",
		// Two patterns, separator dot between them, none at the end.
		"SELECT ?x ?y WHERE { ?x <http://xmlns.com/foaf/0.1/knows> ?y . ?x <http://example.org/version> \"v1.0\" }",
		// Separator dot glued to the closing term.
		"SELECT ?x WHERE { ?x <http://example.org/version> \"v1.0\". }",
	} {
		out, err := st.TranslateQuery(q)
		if err != nil {
			t.Errorf("TranslateQuery(%q): %v", q, err)
			continue
		}
		if strings.Contains(out, "http") {
			t.Errorf("TranslateQuery(%q) left terms untranslated: %s", q, out)
		}
	}

	if _, err := st.TranslateQuery("SELECT ?x WHERE { ?x <http://unterminated }"); err == nil {
		t.Error("unterminated IRI accepted")
	}
	if _, err := st.TranslateQuery("SELECT ?x WHERE { ?x <http://example.org/version> \"unterminated }"); err == nil {
		t.Error("unterminated literal accepted")
	}
	if _, err := st.TranslateQuery("SELECT ?x WHERE { ?x ?y . }"); err == nil {
		t.Error("2-term pattern accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.idx")
	if err := os.WriteFile(path, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("garbage file accepted")
	}
	// A sound container under another magic is refused by its magic,
	// before any section is read.
	_, data := writeSampleFile(t)
	copy(data[1:], "RDFSHARD4")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "not an rdfstore file") {
		t.Fatalf("foreign magic: %v, want \"not an rdfstore file\"", err)
	}
}

// TestReadNamesOldVersion rewrites a current file's magic to older
// versions': Read, OpenMutable and Verify refuse it by the magic alone —
// never decoding its dictionaries with this version's coding — and name
// the version and the rebuild.
func TestReadNamesOldVersion(t *testing.T) {
	_, data := writeSampleFile(t)
	for _, old := range []string{"RDFSTORE8", "RDFSTORE7", "RDFSTORE6", "RDFSTORE5", "RDFSTORE4", "RDFSTORE3", "RDFSTORE2", "RDFSTORE1"} {
		path := filepath.Join(t.TempDir(), "old.idx")
		copy(data[1:], old)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := "store format v" + old[len(old)-1:] + " is no longer read (this build reads v9): rebuild with rdfstore build"
		check := func(op string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "not an rdfstore file") {
				t.Errorf("%s %s: %v, want %q", op, old, err, want)
			}
		}
		_, err := Read(path)
		check("Read", err)
		m, err := OpenMutable(path, -1)
		if err == nil {
			m.Close()
		}
		check("OpenMutable", err)
		rep, err := Verify(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK || rep.Version != 0 || len(rep.Sections) != 1 || rep.Sections[0].Name != "magic" || !strings.Contains(rep.Sections[0].Error, want) {
			t.Errorf("Verify %s: %+v", old, rep)
		}
	}
}

// pinnedNT is a fixed N-Triples fixture with IRIs, blank nodes and
// plain, language-tagged and typed literals, large enough to span many
// dictionary buckets.
func pinnedNT() string {
	var sb strings.Builder
	for i := 0; i < 240; i++ {
		s := fmt.Sprintf("<http://example.org/resource/Entity_%d>", i%97)
		o := fmt.Sprintf("<http://example.org/resource/Entity_%d>", (i*31+7)%97)
		switch i % 5 {
		case 1:
			o = fmt.Sprintf(`"label %d"@en`, i)
		case 2:
			o = fmt.Sprintf(`"%d"^^<http://www.w3.org/2001/XMLSchema#integer>`, i*13)
		case 3:
			o = fmt.Sprintf("_:b%d", i%11)
		}
		fmt.Fprintf(&sb, "%s <http://example.org/ontology/p%d> %s .\n", s, i%7, o)
	}
	return sb.String()
}

// TestFormatPinned pins the content fingerprint (FileFingerprint,
// CRC64-ECMA — the epoch identity replication compares) of the store
// file written for a fixed fixture, straight from rdf.Encode and again
// after a merge folds new terms into the dictionaries: a change to how
// dictionaries, indexes or containers serialize fails here instead of
// passing as "no format change". A file-wide CRC32C would not do: every
// section is followed by its own CRC32C, and a CRC over a message and
// its own CRC is a constant, so it sees only the section lengths.
//
// In every layout the merged file must also equal, byte for byte, the
// one a fresh build of the same triples writes: the merge folds new
// terms into the dictionaries in the order rdf.Encode ranks them and
// rebuilds the index from the remapped triples. The writes are inserts
// only — a delete can leave a term in the folded dictionary that no
// triple uses.
//
// The values were re-recorded for format v3, which adds the zero pads
// that align every word array and section to 8 bytes and changes the
// magics, for format v4, which codes dictionary entries with a shared
// tail and changes the magic, and for format v5, which codes bucket
// heads against a verbatim group sample behind one-byte entry headers
// and changes the magic; the index section's CRC32C, pinned per layout
// below, was the same as v3's. Format v6 numbers the SO dictionary's
// subjects before its other terms, so the index holds other IDs and
// both pins were re-recorded, with the index codecs unchanged. Format
// v7 moves the fixture's xsd:integer objects into the SO dictionary's
// numeric section, numbered in value order where v6 sorted them as
// strings ("1001" before "26"), so the index again holds other IDs
// and both pins were re-recorded; on data without numeric literals the
// index section's bytes are v6's. Format v8 changes only the magic on
// this fixture, whose numeric literals are integers that no subject
// repeats, so only the file fingerprints were re-recorded. Format v9
// stores 2Tp's SPO objects as ranks among their predicate's objects:
// 2Tp's index CRCs were re-recorded, the other layouts' are v8's, and
// the file fingerprints, which cover the magic, are pinned in every
// layout from v9 on. Coding every layout's second-level pointers as
// PEF, and 2Tp's POS subjects as Compact and its SPO predicates as EF,
// moved every layout's index bytes under the same magic, so both pins
// were re-recorded in all four layouts; the v9 pins before it were
// (encoded, merged file; encoded, merged index) 2Tp 0x8c5517f8408813ab,
// 0xe3e193b797ff3ed9, 0xb73d42dd, 0xfaa89fa7; 3T 0x3242cec2c4f8f471,
// 0xe07b3270e8ac9627, 0xd8686ee6, 0x6109611e; CC 0x85d600b36c55a92c,
// 0xb439cd5ed90540fb, 0x0bd4d84e, 0xc4aab32d; 2To 0x2bf441e811e398f8,
// 0x51834f2db7802257, 0xdf725156, 0xb733c97b.
func TestFormatPinned(t *testing.T) {
	inserts := [][3]string{
		{"<http://example.org/resource/A>", "<http://example.org/ontology/p0>", "<http://example.org/resource/Entity_5>"},
		{"<http://example.org/resource/Entity_50x>", "<http://example.org/ontology/p10>", `"new"@de`},
		{"<http://zzz.example/last>", "<http://example.org/ontology/p3>", "_:b0"},
	}
	inserted := pinnedNT()
	for _, tr := range inserts {
		inserted += strings.Join(tr[:], " ") + " .\n"
	}
	build := func(t *testing.T, nt string, layout core.Layout, path string) {
		t.Helper()
		statements, err := rdf.ParseAll(strings.NewReader(nt))
		if err != nil {
			t.Fatal(err)
		}
		d, dicts, err := rdf.Encode(statements)
		if err != nil {
			t.Fatal(err)
		}
		x, err := core.Build(d, layout)
		if err != nil {
			t.Fatal(err)
		}
		if err := Write(path, &Store{Index: x, Dicts: dicts}); err != nil {
			t.Fatal(err)
		}
	}
	pinned := map[core.Layout]struct{ encoded, merged uint64 }{
		core.Layout2Tp: {0x5dc190a2c1fa6190, 0xf675370d5fefccc8},
		core.Layout3T:  {0xbe7a5c98ddd0615e, 0xc3f6acb46ff21125},
		core.LayoutCC:  {0xf74e166c823ee16d, 0x63bd3ebeef0e5c10},
		core.Layout2To: {0xad7c8613f24247ab, 0x0b1d16d4f6d2a464},
	}
	// The index section's stored CRC32C, pinned apart from the file: a
	// dictionary format change re-pins the fingerprints above but must
	// leave these, the bytes of every layout's index, alone.
	indexPinned := map[core.Layout]struct{ encoded, merged uint32 }{
		core.Layout2Tp: {0x6605ff6a, 0xc4509549},
		core.Layout3T:  {0xd92a890c, 0x2c60613f},
		core.LayoutCC:  {0x9776b9fa, 0x7ecb7377},
		core.Layout2To: {0xa3a4b1a4, 0xf4414e5e},
	}
	for _, layout := range []core.Layout{core.Layout2Tp, core.Layout3T, core.LayoutCC, core.Layout2To} {
		t.Run(layout.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "pinned.idx")
			build(t, pinnedNT(), layout, path)
			fingerprint := func() uint64 {
				t.Helper()
				fp, err := FileFingerprint(path)
				if err != nil {
					t.Fatal(err)
				}
				return fp
			}
			want, pin := pinned[layout]
			if got := fingerprint(); pin && got != want.encoded {
				t.Errorf("encoded store fingerprint = %#016x, want %#016x", got, want.encoded)
			}
			if got := indexCRC(t, path); got != indexPinned[layout].encoded {
				t.Errorf("encoded index section CRC32C = %#08x, want %#08x", got, indexPinned[layout].encoded)
			}
			m, err := OpenMutable(path, -1)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for _, tr := range inserts {
				if res, err := m.Insert(tr[0], tr[1], tr[2]); err != nil || !res.Changed {
					t.Fatalf("insert %v: %+v, %v", tr, res, err)
				}
			}
			if err := m.Merge(); err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(); pin && got != want.merged {
				t.Errorf("merged store fingerprint = %#016x, want %#016x", got, want.merged)
			}
			if got := indexCRC(t, path); got != indexPinned[layout].merged {
				t.Errorf("merged index section CRC32C = %#08x, want %#08x", got, indexPinned[layout].merged)
			}
			built := filepath.Join(dir, "built.idx")
			build(t, inserted, layout, built)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := os.ReadFile(built)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, rebuilt) {
				t.Fatalf("merged file (%d bytes) differs from the built one (%d bytes)", len(got), len(rebuilt))
			}
			t.Logf("%d bytes", len(got))
		})
	}
}

// TestReadEarlierCodecs opens a 2Tp store written with the codecs 2Tp
// used before its second-level pointers became PEF, its POS subjects
// Compact and its SPO predicates EF: every sequence carries its kind
// byte, so the file reads without a format change, answers every shape
// as a fresh build does, and its next merge writes the fresh build's
// bytes.
func TestReadEarlierCodecs(t *testing.T) {
	earlier := []core.Option{
		core.WithTrieConfig(core.PermSPO, trie.Config{Nodes1: seq.KindPEF, Nodes2: seq.KindEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF}),
		core.WithTrieConfig(core.PermPOS, trie.Config{Nodes1: seq.KindPEF, Nodes2: seq.KindPEF, Ptr0: seq.KindEF, Ptr1: seq.KindEF}),
	}
	rng := rand.New(rand.NewSource(47))
	var nt strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&nt, "<http://ex/n%d> <http://ex/p%d> <http://ex/n%d> .\n", rng.Intn(80), rng.Intn(7), rng.Intn(300))
	}
	build := func(nt string, opts ...core.Option) (*core.Dataset, *Store) {
		statements, err := rdf.ParseAll(strings.NewReader(nt))
		if err != nil {
			t.Fatal(err)
		}
		d, dicts, err := rdf.Encode(statements)
		if err != nil {
			t.Fatal(err)
		}
		x, err := core.Build(d, core.Layout2Tp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return d, &Store{Index: x, Dicts: dicts}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "earlier.idx")
	d, old := build(nt.String(), earlier...)
	if err := Write(path, old); err != nil {
		t.Fatal(err)
	}
	_, fresh := build(nt.String())
	st, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if k := st.Index.Trie(core.PermPOS).Nodes(2).Kind(); k != seq.KindPEF {
		t.Fatalf("the earlier store's POS subjects read back as %v, want PEF", k)
	}
	// Each round binds the components of one stored triple, so that
	// every shape has answers, in all eight combinations.
	for range 40 {
		tr := d.Triples[rng.Intn(len(d.Triples))]
		for shape := range 8 {
			bind := func(bit int, v core.ID) int {
				if shape&bit == 0 {
					return -1
				}
				return int(v)
			}
			p := core.NewPattern(bind(4, tr.S), bind(2, tr.P), bind(1, tr.O))
			got := st.Index.Select(p).Collect(-1)
			want := fresh.Index.Select(p).Collect(-1)
			n := 0
			for _, tr := range d.Triples {
				if p.Matches(tr) {
					n++
				}
			}
			if len(got) != n || len(want) != n {
				t.Fatalf("pattern %v: %d results, fresh build %d, oracle %d", p, len(got), len(want), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pattern %v: result %d = %v, fresh build %v", p, i, got[i], want[i])
				}
			}
		}
	}
	runtime.KeepAlive(st)

	m, err := OpenMutable(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const s, p, o = "<http://ex/n3>", "<http://ex/p9>", "<http://ex/new>"
	if res, err := m.Insert(s, p, o); err != nil || !res.Changed {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	if err := m.Merge(); err != nil {
		t.Fatal(err)
	}
	nt.WriteString(s + " " + p + " " + o + " .\n")
	built := filepath.Join(dir, "built.idx")
	_, fresh = build(nt.String())
	if err := Write(built, fresh); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(built)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged file (%d bytes) differs from the fresh build (%d bytes)", len(got), len(want))
	}
}

// indexCRC returns the stored CRC32C of a store file's index section,
// the file's last four bytes.
func indexCRC(t *testing.T, path string) uint32 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(data[len(data)-4:])
}
