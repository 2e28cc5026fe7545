package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/sparql"
)

// buildTestStore writes a small dictionary store to dir and returns its
// path.
func buildTestStore(t *testing.T, dir string, layout core.Layout) string {
	t.Helper()
	nt := `<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/bob> <http://ex/knows> <http://ex/carol> .
<http://ex/alice> <http://ex/likes> "cheese" .
<http://ex/carol> <http://ex/likes> "wine"@fr .
`
	path := filepath.Join(dir, "test.idx")
	if err := Write(path, encodeNT(t, nt, layout)); err != nil {
		t.Fatal(err)
	}
	return path
}

// countMatches resolves a pattern of term strings on the view.
func countMatches(t *testing.T, st *Store, s, p, o string) int {
	t.Helper()
	pat, err := st.ParsePattern(s, p, o)
	if err != nil {
		t.Fatalf("ParsePattern(%q,%q,%q): %v", s, p, o, err)
	}
	return st.Index.Select(pat).Count()
}

func TestMutableInsertDeleteOverlay(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp)
	m, err := OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	v0 := m.View()
	if n := v0.Index.NumTriples(); n != 4 {
		t.Fatalf("initial triples = %d, want 4", n)
	}
	gen0 := m.Generation()

	// Insert with a brand-new IRI and a brand-new predicate.
	res, err := m.Insert("<http://ex/dave>", "<http://ex/admires>", "<http://ex/alice>")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed || res.Triples != 5 || res.LogSize != 1 {
		t.Fatalf("insert result %+v", res)
	}
	if m.Generation() == gen0 {
		t.Fatal("generation did not advance on a changing write")
	}
	// The pre-write view is isolated; the new view sees the triple with
	// both new terms resolvable.
	if got := countMatches(t, m.View(), "<http://ex/dave>", "?", "?"); got != 1 {
		t.Fatalf("new view matches = %d, want 1", got)
	}
	if _, err := v0.ParseTerm("<http://ex/dave>", false); err == nil {
		t.Fatal("old view already knows the new term")
	}
	// Render round-trips through the overlay.
	st := m.View()
	pat, err := st.ParsePattern("<http://ex/dave>", "?", "?")
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := st.Index.Select(pat).Next()
	if !ok {
		t.Fatal("inserted triple not found")
	}
	if st.Render(tr.S) != "<http://ex/dave>" || st.RenderPredicate(tr.P) != "<http://ex/admires>" {
		t.Fatalf("render: %s %s", st.Render(tr.S), st.RenderPredicate(tr.P))
	}

	// Duplicate insert: no change, no generation bump.
	gen1 := m.Generation()
	if res, err = m.Insert("<http://ex/dave>", "<http://ex/admires>", "<http://ex/alice>"); err != nil {
		t.Fatal(err)
	}
	if res.Changed || m.Generation() != gen1 {
		t.Fatalf("duplicate insert changed=%v gen moved=%v", res.Changed, m.Generation() != gen1)
	}

	// Delete a base triple; literals with qualifiers work as terms.
	if res, err = m.Delete("<http://ex/carol>", "<http://ex/likes>", `"wine"@fr`); err != nil {
		t.Fatal(err)
	}
	if !res.Changed || res.Triples != 4 {
		t.Fatalf("delete result %+v", res)
	}
	if got := countMatches(t, m.View(), "<http://ex/carol>", "?", "?"); got != 0 {
		t.Fatalf("deleted triple still matches: %d", got)
	}
	// Deleting with an unknown term is a no-op, not an error.
	if res, err = m.Delete("<http://ex/unknown>", "<http://ex/likes>", `"x"`); err != nil || res.Changed {
		t.Fatalf("delete of unknown term: res=%+v err=%v", res, err)
	}
	// Writes with wildcards or junk are rejected.
	if _, err = m.Insert("?", "<http://ex/p>", "<http://ex/o>"); err == nil {
		t.Fatal("wildcard subject accepted")
	}
	if _, err = m.Insert("<http://ex/s>", `"notaniri"`, "<http://ex/o>"); err == nil {
		t.Fatal("literal predicate accepted")
	}
	// Raw newlines inside IRIs or blank labels would corrupt the
	// line-framed WAL; escaped ones in literals are fine.
	if _, err = m.Insert("<http://ex/evil\ntwo>", "<http://ex/likes>", `"x"`); err == nil {
		t.Fatal("newline IRI accepted")
	}
	if res, err := m.Insert("<http://ex/alice>", "<http://ex/likes>", "\"line\nbreak\""); err != nil || !res.Changed {
		t.Fatalf("literal with newline (escaped in the WAL) rejected: %v", err)
	}
}

func TestMutableWALRecoveryAndMerge(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp)

	m, err := OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert("<http://ex/dave>", "<http://ex/knows>", "<http://ex/alice>"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete("<http://ex/alice>", "<http://ex/likes>", `"cheese"`); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path + WALSuffix); err != nil || fi.Size() == 0 {
		t.Fatalf("WAL missing or empty: %v", err)
	}
	// The store file on disk still holds the pre-write state (writes are
	// WAL-only until merge)…
	cold, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Index.NumTriples() != 4 {
		t.Fatalf("store file changed before merge: %d triples", cold.Index.NumTriples())
	}
	// …and reopening replays the WAL.
	m, err = OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := m.View()
	if st.Index.NumTriples() != 4 { // 4 +1 insert -1 delete
		t.Fatalf("recovered triples = %d, want 4", st.Index.NumTriples())
	}
	if got := countMatches(t, st, "<http://ex/dave>", "?", "?"); got != 1 {
		t.Fatalf("recovered insert lost: %d", got)
	}
	if got := countMatches(t, st, "<http://ex/alice>", "<http://ex/likes>", "?"); got != 0 {
		t.Fatalf("recovered delete lost: %d matches", got)
	}

	// Record the full result set, force a merge, and compare.
	before := allLines(t, st)
	if err := m.Merge(); err != nil {
		t.Fatal(err)
	}
	st = m.View()
	if dyn, ok := st.Index.(*core.DynamicSnapshot); !ok || dyn.LogSize() != 0 {
		t.Fatalf("log not folded: %T", st.Index)
	}
	after := allLines(t, st)
	if before != after {
		t.Fatalf("merge changed query results:\nbefore: %s\nafter: %s", before, after)
	}
	if fi, err := os.Stat(path + WALSuffix); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not truncated after merge: %v, %d bytes", err, fi.Size())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The rewritten store file is complete and self-contained.
	cold, err = Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Index.NumTriples() != 4 {
		t.Fatalf("merged store file has %d triples, want 4", cold.Index.NumTriples())
	}
	if allLines(t, cold) != after {
		t.Fatal("merged store file disagrees with the served view")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind by merge")
	}
}

// allLines renders the full content of a view as sorted N-Triples text,
// the comparison key for "unchanged query results" across merges (IDs
// are remapped, strings are not).
func allLines(t *testing.T, st *Store) string {
	t.Helper()
	it := st.Index.Select(core.Pattern{S: core.Wildcard, P: core.Wildcard, O: core.Wildcard})
	var lines []string
	for {
		tr, ok := it.Next()
		if !ok {
			break
		}
		lines = append(lines, fmt.Sprintf("%s %s %s .", st.Render(tr.S), st.RenderPredicate(tr.P), st.Render(tr.O)))
	}
	// The emission order is ID-dependent; sort to compare across remaps.
	for i := 1; i < len(lines); i++ {
		for j := i; j > 0 && lines[j] < lines[j-1]; j-- {
			lines[j], lines[j-1] = lines[j-1], lines[j]
		}
	}
	return strings.Join(lines, "\n")
}

// TestMutableThresholdMerge drives enough inserts through a tiny
// threshold to trigger automatic merges, checking the folded store keeps
// every triple queryable by term.
func TestMutableThresholdMerge(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp)
	m, err := OpenMutable(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sawMerge := false
	for i := 0; i < 12; i++ {
		res, err := m.Insert(
			fmt.Sprintf("<http://ex/new%d>", i),
			"<http://ex/knows>",
			"<http://ex/alice>")
		if err != nil {
			t.Fatal(err)
		}
		sawMerge = sawMerge || res.Merged
	}
	if !sawMerge || m.Merges() == 0 {
		t.Fatalf("threshold 5 never merged across 12 inserts (merges=%d)", m.Merges())
	}
	st := m.View()
	if st.Index.NumTriples() != 16 {
		t.Fatalf("triples = %d, want 16", st.Index.NumTriples())
	}
	for i := 0; i < 12; i++ {
		if got := countMatches(t, st, fmt.Sprintf("<http://ex/new%d>", i), "?", "?"); got != 1 {
			t.Fatalf("new%d lost across merges: %d matches", i, got)
		}
	}
}

// TestMutableSingleProcessLock pins the flock: while one Mutable holds
// the store, a second writing open fails fast instead of silently
// diverging, and a lock-free ReadView still works.
func TestMutableSingleProcessLock(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp)
	m, err := OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMutable(path, 0); err == nil {
		t.Fatal("second writing open succeeded while the first holds the lock")
	}
	if _, err := m.Insert("<http://ex/x>", "<http://ex/knows>", "<http://ex/alice>"); err != nil {
		t.Fatal(err)
	}
	// Reads stay possible alongside the writer.
	st, err := ReadView(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := countMatches(t, st, "<http://ex/x>", "?", "?"); got != 1 {
		t.Fatalf("ReadView misses the pending write: %d", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing releases the lock.
	m2, err := OpenMutable(path, 0)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	m2.Close()
}

// TestReadViewDoesNotMerge pins ReadView's non-destructive contract:
// even a WAL larger than the default merge threshold is replayed
// without rewriting the store file or truncating the WAL.
func TestReadViewDoesNotMerge(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp)
	m, err := OpenMutable(path, -1) // manual merging: let the WAL grow
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := m.Insert(fmt.Sprintf("<http://ex/r%d>", i), "<http://ex/knows>", "<http://ex/alice>"); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	walBefore, err := os.ReadFile(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	storeBefore, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadView(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Index.NumTriples() != 12 {
		t.Fatalf("ReadView triples = %d, want 12", st.Index.NumTriples())
	}
	walAfter, _ := os.ReadFile(path + WALSuffix)
	storeAfter, _ := os.Stat(path)
	if string(walAfter) != string(walBefore) {
		t.Fatal("ReadView modified the WAL")
	}
	if storeAfter.Size() != storeBefore.Size() || storeAfter.ModTime() != storeBefore.ModTime() {
		t.Fatal("ReadView rewrote the store file")
	}
}

// TestMutableRejectedInsertLeaksNoTerms pins the two-phase resolution:
// an insert rejected on a later term must not have admitted an earlier
// term into the overlay dictionary.
func TestMutableRejectedInsertLeaksNoTerms(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp)
	m, err := OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Subject is new; predicate is an (invalid) literal.
	if _, err := m.Insert("<http://ex/stray>", `"notaniri"`, "<http://ex/alice>"); err == nil {
		t.Fatal("literal predicate accepted")
	}
	if _, err := m.View().ParseTerm("<http://ex/stray>", false); err == nil {
		t.Fatal("rejected insert leaked its subject into the dictionary")
	}
	// The term is admitted by a subsequently valid insert.
	if res, err := m.Insert("<http://ex/stray>", "<http://ex/knows>", "<http://ex/alice>"); err != nil || !res.Changed {
		t.Fatalf("valid insert after rejection: %+v, %v", res, err)
	}
}

// TestMutableTornWALTail simulates a crash mid-append: an unterminated
// final record must be skipped on replay and truncated away so new
// appends cannot weld onto it.
func TestMutableTornWALTail(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp)
	m, err := OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert("<http://ex/ok>", "<http://ex/knows>", "<http://ex/alice>"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	// Tear the tail: a partial record without its newline.
	f, err := os.OpenFile(path+WALSuffix, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("I <http://ex/torn> <http://ex/kn"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m, err = OpenMutable(path, 0)
	if err != nil {
		t.Fatalf("torn tail failed the open: %v", err)
	}
	st := m.View()
	if got := countMatches(t, st, "<http://ex/ok>", "?", "?"); got != 1 {
		t.Fatalf("complete record lost: %d", got)
	}
	if _, err := st.ParseTerm("<http://ex/torn>", false); err == nil {
		t.Fatal("torn record was applied")
	}
	// The torn bytes are gone: a fresh append starts a clean record that
	// the next open replays.
	if _, err := m.Insert("<http://ex/after>", "<http://ex/knows>", "<http://ex/bob>"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m, err = OpenMutable(path, 0)
	if err != nil {
		t.Fatalf("reopen after post-torn append: %v", err)
	}
	defer m.Close()
	if got := countMatches(t, m.View(), "<http://ex/after>", "?", "?"); got != 1 {
		t.Fatalf("append after torn tail lost: %d", got)
	}
}

// TestMutableWALChurnTriggersMerge pins the walChurnFactor trigger:
// alternating insert/delete of the same triple keeps the logical log
// tiny but must still bound the WAL via a forced merge.
func TestMutableWALChurnTriggersMerge(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp)
	const threshold = 8
	m, err := OpenMutable(path, threshold)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3*walChurnFactor*threshold; i++ {
		var err error
		if i%2 == 0 {
			_, err = m.Insert("<http://ex/churn>", "<http://ex/knows>", "<http://ex/alice>")
		} else {
			_, err = m.Delete("<http://ex/churn>", "<http://ex/knows>", "<http://ex/alice>")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if m.Merges() == 0 {
		t.Fatal("cancelling churn never merged; WAL growth is unbounded")
	}
	fi, err := os.Stat(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	// Each record is ~60 bytes; the WAL must stay within one churn
	// window of the threshold, not accumulate all writes.
	if fi.Size() > int64(walChurnFactor*threshold)*128 {
		t.Fatalf("WAL grew to %d bytes despite merges", fi.Size())
	}
}

// TestMutableRawIDs writes with raw integer IDs: each resolves through
// the dictionary to its term, the WAL records the N-Triples statement,
// and the write survives a restart and a merge. An ID the dictionary
// does not hold is refused.
func TestMutableRawIDs(t *testing.T) {
	path := buildTestStore(t, t.TempDir(), core.Layout3T)
	m, err := OpenMutable(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := m.View().ParsePattern("<http://ex/carol>", "<http://ex/knows>", "<http://ex/bob>")
	if err != nil {
		t.Fatal(err)
	}
	s, p, o := fmt.Sprint(pat.S), fmt.Sprint(pat.P), fmt.Sprint(pat.O)
	if res, err := m.Insert(s, p, o); err != nil || !res.Changed {
		t.Fatalf("raw-ID insert: %+v, %v", res, err)
	}
	if _, err := m.Insert(s, p, "1000"); !errors.Is(err, ErrTerm) {
		t.Fatalf("insert of an ID outside the dictionary: %v, want ErrTerm", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(path + WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(wal), " 1 I <http://ex/carol> <http://ex/knows> <http://ex/bob> .\n") {
		t.Fatalf("WAL %q does not record the raw-ID insert as its terms", wal)
	}
	m, err = OpenMutable(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if n := countMatches(t, m.View(), "<http://ex/carol>", "<http://ex/knows>", "<http://ex/bob>"); n != 1 {
		t.Fatalf("raw-ID insert after restart: %d matches", n)
	}
	if err := m.Merge(); err != nil {
		t.Fatal(err)
	}
	if n := countMatches(t, m.View(), "<http://ex/carol>", "<http://ex/knows>", "<http://ex/bob>"); n != 1 {
		t.Fatalf("raw-ID insert after the merge: %d matches", n)
	}
}

// TestPrepareRebuild pins the rebuild guard: a WAL flocked by a live
// writer refuses the rebuild, a WAL with pending records refuses, an
// empty unlocked leftover is removed, a missing WAL is fine.
func TestPrepareRebuild(t *testing.T) {
	st := buildSample(t, core.Layout2Tp)
	path := filepath.Join(t.TempDir(), "store.idx")
	if err := Write(path, st); err != nil {
		t.Fatal(err)
	}
	if err := PrepareRebuild(path); err != nil {
		t.Fatalf("missing WAL: %v", err)
	}

	// Live writer: its flock must block the rebuild.
	m, err := OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := PrepareRebuild(path); err == nil {
		m.Close()
		t.Fatal("rebuild allowed over a live flocked WAL")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Closed writer, empty WAL: removed.
	if err := PrepareRebuild(path); err != nil {
		t.Fatalf("empty WAL: %v", err)
	}
	if _, err := os.Stat(path + WALSuffix); !os.IsNotExist(err) {
		t.Fatalf("empty WAL not removed: %v", err)
	}

	// Pending records: refused.
	m, err = OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert("<http://ex/x>", "<http://ex/y>", "<http://ex/z>"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := PrepareRebuild(path); err == nil {
		t.Fatal("rebuild allowed over pending WAL records")
	}
}

// TestMutableObjectBecomesSubject inserts a triple whose subject is a
// term of the SO dictionary's second run, one that was only an object.
// The base SPO trie has no root for its ID, so the log serves the
// triple until the merge renumbers the term into the subjects; every
// layout must give the same answers before the merge, after it and
// after a reopen, including a path join whose middle variable binds the
// term as object of one pattern and subject of the next.
func TestMutableObjectBecomesSubject(t *testing.T) {
	nt := `<http://ex/a> <http://ex/knows> <http://ex/b> .
<http://ex/b> <http://ex/knows> <http://ex/c> .
<http://ex/c> <http://ex/knows> <http://ex/d> .
<http://ex/a> <http://ex/likes> <http://ex/d> .
<http://ex/e> <http://ex/knows> <http://ex/a> .
`
	insert := [3]string{"<http://ex/d>", "<http://ex/knows>", "<http://ex/e>"}
	// The oracle: the triples as strings, and the knows-paths of length
	// two over them.
	var triples [][3]string
	for _, line := range strings.Split(strings.TrimSpace(nt), "\n") {
		f := strings.Fields(line)
		triples = append(triples, [3]string{f[0], f[1], f[2]})
	}
	triples = append(triples, insert)
	var want, paths []string
	for _, x := range triples {
		want = append(want, strings.Join(x[:], " ")+" .")
		for _, y := range triples {
			if x[1] == insert[1] && y[1] == insert[1] && x[2] == y[0] {
				paths = append(paths, x[0]+" "+y[2])
			}
		}
	}
	sort.Strings(want)
	sort.Strings(paths)
	const query = `SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/knows> ?z . }`

	for _, layout := range []core.Layout{core.Layout3T, core.LayoutCC, core.Layout2Tp, core.Layout2To} {
		t.Run(layout.String(), func(t *testing.T) {
			build := func(nt, path string) {
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
			dir := t.TempDir()
			path := filepath.Join(dir, "test.idx")
			build(nt, path)
			m, err := OpenMutable(path, -1)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { m.Close() }()
			// subjectID returns d's ID in the view and the first ID past
			// the base's subjects.
			subjectID := func(st *Store) (int, int) {
				id, ok := st.Dicts.SO.Locate(insert[0])
				if !ok {
					t.Fatal("d is not in the dictionary")
				}
				return id, m.base.Dicts.SO.(*dict.Dict).FirstRun()
			}
			check := func(when string, st *Store) {
				t.Helper()
				if got := allLines(t, st); got != strings.Join(want, "\n") {
					t.Fatalf("%s: triples\n%s\nwant\n%s", when, got, strings.Join(want, "\n"))
				}
				if got := countMatches(t, st, insert[0], "?", "?"); got != 1 {
					t.Fatalf("%s: d is the subject of %d triples, want 1", when, got)
				}
				if got := solutions(t, st, query); got != strings.Join(paths, "\n") {
					t.Fatalf("%s: paths\n%s\nwant\n%s", when, got, strings.Join(paths, "\n"))
				}
			}
			if id, k := subjectID(m.View()); id < k {
				t.Fatalf("d has ID %d before it is a subject, below k=%d", id, k)
			}
			if _, err := m.Insert(insert[0], insert[1], insert[2]); err != nil {
				t.Fatal(err)
			}
			check("before the merge", m.View())
			if err := m.Merge(); err != nil {
				t.Fatal(err)
			}
			check("after the merge", m.View())
			if id, k := subjectID(m.View()); id >= k {
				t.Fatalf("d has ID %d after the merge, not below k=%d", id, k)
			}
			// The merge moved d into the subjects as a build of the same
			// triples numbers it.
			built := filepath.Join(dir, "built.idx")
			build(nt+strings.Join(insert[:], " ")+" .\n", built)
			if a, b := readFile(t, path), readFile(t, built); !bytes.Equal(a, b) {
				t.Fatalf("merged file (%d bytes) differs from the built one (%d bytes)", len(a), len(b))
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if m, err = OpenMutable(path, -1); err != nil {
				t.Fatal(err)
			}
			check("after a reopen", m.View())
			rep, err := Verify(path)
			if err != nil || !rep.OK {
				t.Fatalf("Verify of the merged store: %+v, %v", rep, err)
			}
		})
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// solutions runs a SELECT query on the view and returns its solutions
// as sorted lines of space-separated terms.
func solutions(t *testing.T, st *Store, qs string) string {
	t.Helper()
	q, err := st.ParseQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sparql.Compile(q, sparql.Plan(q))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	if _, err := sparql.Run(context.Background(), plan, st.Index, sparql.Options{}, sparql.EachRow(func(row []core.ID) {
		terms := make([]string, len(row))
		for i, id := range row {
			terms[i] = st.Render(id)
		}
		lines = append(lines, strings.Join(terms, " "))
	})); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
