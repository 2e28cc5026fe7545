package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/rdf"
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
	path := filepath.Join(dir, "test.idx")
	if err := Write(path, &Store{Index: x, Dicts: dicts}); err != nil {
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

// TestMutableIntegerStore exercises the dictionary-less path: raw IDs in
// the write API and the WAL.
func TestMutableIntegerStore(t *testing.T) {
	dir := t.TempDir()
	d := core.NewDataset([]core.Triple{{S: 0, P: 0, O: 0}, {S: 1, P: 0, O: 2}})
	x, err := core.Build(d, core.Layout3T)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "int.idx")
	if err := Write(path, &Store{Index: x}); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m.Insert("7", "1", "9"); err != nil || !res.Changed {
		t.Fatalf("integer insert: %+v, %v", res, err)
	}
	if _, err := m.Insert("<http://ex/a>", "<http://ex/b>", "<http://ex/c>"); err == nil {
		t.Fatal("dictionary term accepted by integer-only store")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, err = OpenMutable(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.View()
	if st.Index.NumTriples() != 3 {
		t.Fatalf("recovered integer store has %d triples", st.Index.NumTriples())
	}
	if !st.Index.(*core.DynamicSnapshot).Lookup(core.Triple{S: 7, P: 1, O: 9}) {
		t.Fatal("integer insert lost across restart")
	}
	if err := m.Merge(); err != nil {
		t.Fatal(err)
	}
	if m.View().Index.NumTriples() != 3 {
		t.Fatal("integer merge lost a triple")
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
