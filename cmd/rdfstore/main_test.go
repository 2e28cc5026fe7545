package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/store"
)

const sampleNT = `<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/bob> <http://ex/knows> <http://ex/carol> .
<http://ex/carol> <http://ex/knows> <http://ex/alice> .
<http://ex/alice> <http://ex/likes> <http://ex/pizza> .
<http://ex/bob> <http://ex/likes> <http://ex/pizza> .
<http://ex/carol> <http://ex/likes> <http://ex/pasta> .
`

// runOK invokes a subcommand in-process and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("rdfstore %s: %v\noutput:\n%s", strings.Join(args, " "), err, sb.String())
	}
	return sb.String()
}

// TestInsertDeleteMergeCLI drives the update subcommands: insert a
// triple with a brand-new term, query it back, restart-style reopen (a
// separate subcommand invocation recovers the WAL), delete it, and fold
// the log with merge.
func TestInsertDeleteMergeCLI(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "data.nt")
	if err := os.WriteFile(nt, []byte(sampleNT), 0o644); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "store.idx")
	runOK(t, "build", "-in", nt, "-layout", "2Tp", "-out", idx)

	out := runOK(t, "insert", "-store", idx,
		"-s", "<http://ex/dave>", "-p", "<http://ex/likes>", "-o", "<http://ex/pizza>")
	if !strings.Contains(out, "changed=true") || !strings.Contains(out, "triples=7") {
		t.Fatalf("insert output: %q", out)
	}
	// Each subcommand reopens the store: query must incorporate the
	// pending WAL (ReadView), since the store file itself is untouched
	// until merge.
	out = runOK(t, "query", "-store", idx, "-s", "<http://ex/dave>")
	if !strings.Contains(out, "<http://ex/dave> <http://ex/likes> <http://ex/pizza> .") ||
		!strings.Contains(out, "-- 1 matches") {
		t.Fatalf("query after insert: %q", out)
	}

	// Terms the WAL added are counted apart from the store file's.
	out = runOK(t, "stats", "-store", idx)
	if !strings.Contains(out, "\nSO dict:      5 terms (3 subjects), 74 bytes (samples 36, heads 0, entries 14, offsets 24, numeric 0; 0 escaped headers), 14.80 B/term; 1 pending\n") {
		t.Fatalf("stats before merge: %q", out)
	}

	out = runOK(t, "merge", "-store", idx)
	if !strings.Contains(out, "merged") {
		t.Fatalf("merge output: %q", out)
	}
	out = runOK(t, "stats", "-store", idx)
	if !strings.Contains(out, "triples:      7") {
		t.Fatalf("stats after merge: %q", out)
	}
	out = runOK(t, "delete", "-store", idx,
		"-s", "<http://ex/dave>", "-p", "<http://ex/likes>", "-o", "<http://ex/pizza>")
	if !strings.Contains(out, "changed=true") || !strings.Contains(out, "triples=6") {
		t.Fatalf("delete output: %q", out)
	}
	runOK(t, "merge", "-store", idx)
	out = runOK(t, "query", "-store", idx, "-s", "<http://ex/dave>")
	if !strings.Contains(out, "-- 0 matches") {
		t.Fatalf("query after delete+merge: %q", out)
	}
}

// TestEndToEnd drives the full CLI round trip — build an index from
// N-Triples, inspect it, resolve a pattern, execute a BGP join — against
// a store file in a temp dir, for every layout.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "data.nt")
	if err := os.WriteFile(nt, []byte(sampleNT), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, layout := range []string{"3T", "CC", "2Tp", "2To"} {
		t.Run(layout, func(t *testing.T) {
			idx := filepath.Join(dir, "store-"+layout+".idx")

			out := runOK(t, "build", "-in", nt, "-layout", layout, "-out", idx)
			if !strings.Contains(out, "indexed 6 triples as "+layout) {
				t.Fatalf("build output: %q", out)
			}

			out = runOK(t, "stats", "-store", idx)
			if !strings.Contains(out, "layout:       "+layout) ||
				!strings.Contains(out, "triples:      6") ||
				!strings.Contains(out, "dictionaries: 5 SO terms, 2 predicates") ||
				!strings.Contains(out, "\nSO dict:      5 terms (3 subjects), 74 bytes (samples 36, heads 0, entries 14, offsets 24, numeric 0; 0 escaped headers), 14.80 B/term\n") ||
				!strings.Contains(out, "\nP dict:       2 terms, 39 bytes (samples 18, heads 0, entries 5, offsets 16, numeric 0; 0 escaped headers), 19.50 B/term\n") {
				t.Fatalf("stats output: %q", out)
			}

			// S?? round trip: alice's two triples come back as N-Triples.
			out = runOK(t, "query", "-store", idx, "-s", "<http://ex/alice>")
			if !strings.Contains(out, "<http://ex/alice> <http://ex/knows> <http://ex/bob> .") ||
				!strings.Contains(out, "<http://ex/alice> <http://ex/likes> <http://ex/pizza> .") ||
				!strings.Contains(out, "-- 2 matches") {
				t.Fatalf("query output: %q", out)
			}

			// ?P? with a term constant.
			out = runOK(t, "query", "-store", idx, "-p", "<http://ex/likes>")
			if !strings.Contains(out, "-- 3 matches") {
				t.Fatalf("likes query output: %q", out)
			}

			// BGP join: who does alice know that likes pizza?
			out = runOK(t, "sparql", "-store", idx,
				"-q", "SELECT ?x WHERE { <http://ex/alice> <http://ex/knows> ?x . ?x <http://ex/likes> <http://ex/pizza> . }")
			if !strings.Contains(out, "?x=<http://ex/bob>") || !strings.Contains(out, "-- 1 solutions") {
				t.Fatalf("sparql output: %q", out)
			}

			out = runOK(t, "sparql", "-store", idx,
				"-q", "SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y . }")
			if !strings.Contains(out, "-- 3 solutions") {
				t.Fatalf("knows sparql output: %q", out)
			}
		})
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"bogus"}, os.Stdout); err != errUsage {
		t.Fatalf("unknown subcommand: %v", err)
	}
	if err := run(nil, os.Stdout); err != errUsage {
		t.Fatalf("no subcommand: %v", err)
	}
	if err := run([]string{"build"}, io_discard()); err == nil {
		t.Fatal("build without -in accepted")
	}
	if err := run([]string{"stats", "-store", filepath.Join(dir, "missing.idx")}, io_discard()); err == nil {
		t.Fatal("missing store accepted")
	}
	// Unknown dictionary term surfaces as an error, not a crash.
	nt := filepath.Join(dir, "d.nt")
	idx := filepath.Join(dir, "d.idx")
	if err := os.WriteFile(nt, []byte(sampleNT), 0o644); err != nil {
		t.Fatal(err)
	}
	runOK(t, "build", "-in", nt, "-out", idx)
	if err := run([]string{"query", "-store", idx, "-s", "<http://ex/nobody>"}, io_discard()); err == nil {
		t.Fatal("unknown term accepted")
	}
	// A literal subject, which N-Triples forbids, fails the build and
	// names the line.
	bad := filepath.Join(dir, "bad.nt")
	if err := os.WriteFile(bad, []byte(sampleNT+`"42"^^<http://www.w3.org/2001/XMLSchema#integer> <http://ex/p> <http://ex/o> .`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-in", bad, "-out", filepath.Join(dir, "bad.idx")}, io_discard()); err == nil ||
		!strings.Contains(err.Error(), "subject must be an IRI or a blank node") {
		t.Fatalf("build of a literal subject: %v", err)
	}
}

// TestBuildNTriplesOnly pins that build reads N-Triples only: a binary
// dataset file of integer triples is refused, and the error names the
// rdfgen format to generate instead.
func TestBuildNTriplesOnly(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "x.bin")
	var b bytes.Buffer
	if err := core.WriteDataset(&b, core.NewDataset([]core.Triple{{S: 0, P: 0, O: 1}})); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bin, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "x.idx")
	if err := run([]string{"build", "-in", bin, "-out", idx}, io_discard()); err == nil || !strings.Contains(err.Error(), "rdfgen -format nt") {
		t.Fatalf("build of a binary dataset: %v, want an error naming rdfgen -format nt", err)
	}
	if _, err := os.Stat(idx); !os.IsNotExist(err) {
		t.Fatalf("refused build left a store behind: %v", err)
	}
}

func io_discard() *strings.Builder { return &strings.Builder{} }

// TestBuildOverWAL pins the rebuild-over-updatable-store rules: a WAL
// holding pending writes refuses the rebuild (acknowledged writes must
// not vanish silently), while an empty leftover WAL is cleaned up so it
// cannot replay into the unrelated new store.
func TestBuildOverWAL(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "data.nt")
	if err := os.WriteFile(nt, []byte(sampleNT), 0o644); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "store.idx")
	runOK(t, "build", "-in", nt, "-out", idx)
	runOK(t, "insert", "-store", idx,
		"-s", "<http://ex/dave>", "-p", "<http://ex/likes>", "-o", "<http://ex/pizza>")

	// Pending WAL: the rebuild must refuse.
	if err := run([]string{"build", "-in", nt, "-out", idx}, io_discard()); err == nil {
		t.Fatal("rebuild over pending WAL accepted")
	}

	// Folding the WAL (merge truncates it to empty) unblocks the
	// rebuild, and the leftover empty WAL is removed.
	runOK(t, "merge", "-store", idx)
	runOK(t, "build", "-in", nt, "-layout", "3T", "-out", idx)
	if _, err := os.Stat(idx + ".wal"); !os.IsNotExist(err) {
		t.Fatalf("empty WAL not cleaned up: %v", err)
	}
	out := runOK(t, "query", "-store", idx, "-p", "<http://ex/likes>")
	if !strings.Contains(out, "-- 3 matches") {
		t.Fatalf("query after rebuild: %q", out)
	}
	if out := runOK(t, "stats", "-store", idx); !strings.Contains(out, "layout:       3T") {
		t.Fatalf("stats after rebuild: %q", out)
	}
}

// TestOldFormatNamed rewrites a built store's magic to formats v9's down
// to v3's: stats and verify refuse it by name and point at build, and
// verify does not report the file as corrupt.
func TestOldFormatNamed(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "data.nt")
	if err := os.WriteFile(nt, []byte(sampleNT), 0o644); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "store.idx")
	runOK(t, "build", "-in", nt, "-out", idx)
	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	rest := data[1+int(data[0]):] // the file after its length-prefixed magic
	for _, v := range []string{"9", "8", "7", "6", "5", "4", "3"} {
		old := append([]byte{9}, "RDFSTORE"+v...)
		if err := os.WriteFile(idx, append(old, rest...), 0o644); err != nil {
			t.Fatal(err)
		}
		want := "store format v" + v + " is no longer read (this build reads v10): rebuild with rdfstore build"
		if err := run([]string{"stats", "-store", idx}, io_discard()); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("stats of a v%s file: %v, want %q", v, err, want)
		}
		var out strings.Builder
		if err := run([]string{"verify", "-store", idx}, &out); err == nil {
			t.Fatalf("verify passed a v%s file", v)
		}
		if got := out.String(); got != "  magic                10 bytes  "+want+"\n" {
			t.Fatalf("verify of a v%s file printed %q", v, got)
		}
	}
}

// TestVerifyNamesRootMismatch gives a built store's index the header of
// a store whose SO dictionary holds every term in its first run, under
// valid checksums: verify fails and reports the header, naming the SPO
// trie whose roots no longer span the dictionary's subjects. store.Write
// refuses to write such a store, so the file is spliced from two it
// wrote: the other store's magic and header, then this one's table and
// index section, each part 8-byte aligned and checksummed on its own.
func TestVerifyNamesRootMismatch(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "data.nt")
	if err := os.WriteFile(nt, []byte(sampleNT), 0o644); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "store.idx")
	runOK(t, "build", "-in", nt, "-out", idx)
	st, err := store.Read(idx)
	if err != nil {
		t.Fatal(err)
	}
	var terms []string
	for id := 0; id < st.Dicts.SO.Len(); id++ {
		s, _ := st.Dicts.SO.Extract(id)
		terms = append(terms, s)
	}
	all, err := dict.FromUnsorted(terms, dict.DefaultBucketSize)
	if err != nil {
		t.Fatal(err)
	}
	// An index whose SPO roots do span all's subjects: one triple each.
	var ts []core.Triple
	for s := 0; s < all.FirstRun(); s++ {
		ts = append(ts, core.Triple{S: core.ID(s)})
	}
	d := core.NewDataset(ts)
	d.NS, d.NP, d.NO = all.FirstRun(), st.Dicts.P.Len(), all.Len()
	x, err := core.Build(d, st.Index.Layout())
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other.idx")
	if err := store.Write(other, &store.Store{Index: x, Dicts: &rdf.Dicts{SO: all, P: st.Dicts.P}}); err != nil {
		t.Fatal(err)
	}
	// The table starts where the magic and the header end.
	tableAt := func(path string) (int, []byte) {
		t.Helper()
		rep, err := store.Verify(path)
		if err != nil || !rep.OK || rep.Sections[0].Name != "header" {
			t.Fatalf("verify %s: %+v, %v", path, rep, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return 1 + len(store.Magic) + int(rep.Sections[0].Bytes), data
	}
	at, data := tableAt(idx)
	otherAt, otherData := tableAt(other)
	spliced := append(otherData[:otherAt:otherAt], data[at:]...)
	if err := os.WriteFile(idx, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"verify", "-store", idx}, &out); err == nil {
		t.Fatal("verify passed a store whose dictionary disagrees with its index")
	}
	if !strings.Contains(out.String(), "  header") || !strings.Contains(out.String(), "CORRUPT: codec: corrupt stream: SPO trie of the index has 3 roots, for 5 SO dictionary subjects") {
		t.Fatalf("verify printed %q", out.String())
	}
}

// TestStatsNumericSections builds a store whose objects include
// xsd:integer and xsd:decimal literals: stats counts the sections'
// bytes in the SO dictionary's and prints one line per section.
func TestStatsNumericSections(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "data.nt")
	data := sampleNT + `<http://ex/alice> <http://ex/age> "31"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/bob> <http://ex/age> "-4"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/bob> <http://ex/height> "1.85"^^<http://www.w3.org/2001/XMLSchema#decimal> .
<http://ex/carol> <http://ex/height> "1.7"^^<http://www.w3.org/2001/XMLSchema#decimal> .
<http://ex/carol> <http://ex/weight> "61.25"^^<http://www.w3.org/2001/XMLSchema#decimal> .
`
	if err := os.WriteFile(nt, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "store.idx")
	runOK(t, "build", "-in", nt, "-out", idx)
	out := runOK(t, "stats", "-store", idx)
	// "1.7" has scale 1, the other decimals 2: each scale has a section.
	for _, want := range []string{
		// Section bytes count the Elias-Fano sequence as written; they
		// counted its rank/select directory as well (98, 90 and 98
		// bytes, SO dictionary 360 bytes with numeric 286) before
		// ef.Sequence.SizeBits counted what Encode writes.
		"\nSO dict:      10 terms (3 subjects), 192 bytes (samples 36, heads 0, entries 14, offsets 24, numeric 118; 0 escaped headers), 19.20 B/term\n",
		"\nSO numeric:   xsd:integer, scale 0: 2 terms, 42 bytes\n",
		"\nSO numeric:   xsd:decimal, scale 1: 1 terms, 34 bytes\n",
		"\nSO numeric:   xsd:decimal, scale 2: 2 terms, 42 bytes\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output %q lacks %q", out, want)
		}
	}
}
