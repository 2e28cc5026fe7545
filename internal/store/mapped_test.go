package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/rdf"
)

// mapsFiles is whether Read maps store files on this platform
// (mmap_linux.go) rather than reading them into memory.
const mapsFiles = runtime.GOOS == "linux"

// hugeMagicPrefix is a file whose magic length prefix claims about 8 GiB.
var hugeMagicPrefix = []byte{0xff, 0xff, 0xff, 0xff, 0x1f, 'R', 'D', 'F'}

// TestHugeMagicPrefix: opening a file whose magic length prefix claims
// gigabytes must fail as corruption, not allocate the claim (which ended
// the process with an unrecoverable out-of-memory error).
func TestHugeMagicPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.idx")
	if err := os.WriteFile(path, hugeMagicPrefix, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("Read: %v, want ErrCorrupt", err)
	}
	if _, err := OpenMutable(path, 0); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("OpenMutable: %v, want ErrCorrupt", err)
	}
}

// TestWriteReplacesMappedStore writes a new store over the path of one
// that is open and mapped: the open store keeps answering its old data
// (Write renamed a new file into place instead of rewriting the mapped
// one), and a fresh Read returns the new store.
func TestWriteReplacesMappedStore(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp) // alice knows bob
	old, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(path, buildSample(t, core.Layout3T)); err != nil {
		t.Fatal(err)
	}
	if n := countMatches(t, old, "<http://ex/alice>", "?", "?"); n != 2 {
		t.Fatalf("old store: alice has %d triples, want 2", n)
	}
	if _, err := old.ParseTerm(`"cheese"`, false); err != nil {
		t.Fatalf("old store lost its dictionary: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index.Layout() != core.Layout3T {
		t.Fatalf("new store layout %v, want 3T", got.Index.Layout())
	}
	if _, err := got.ParseTerm(`"30"`, false); err != nil {
		t.Fatalf("new store: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// mappedIn reports whether the file now at path is mapped into this
// process; a mapping of a file since replaced at path does not count.
func mappedIn(t *testing.T, path string) bool {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.HasSuffix(line, " "+path) {
			return true
		}
	}
	return false
}

// allShapes returns one pattern of each of the eight shapes over IDs
// drawn from [0, n).
func allShapes(rng *rand.Rand, n int) []core.Pattern {
	id := func() int { return rng.Intn(n) }
	return []core.Pattern{
		core.NewPattern(id(), id(), id()),
		core.NewPattern(id(), id(), -1),
		core.NewPattern(id(), -1, id()),
		core.NewPattern(id(), -1, -1),
		core.NewPattern(-1, id(), id()),
		core.NewPattern(-1, id(), -1),
		core.NewPattern(-1, -1, id()),
		core.NewPattern(-1, -1, -1),
	}
}

// TestMappedStoreLifetime pins the lifetime argument of the mapped open
// (DESIGN.md "On-disk format v3 and the mapped open"): a store stays
// mapped while anything decoded from it is reachable, and once every
// reference is dropped — the store, its iterators and the selection
// states its index pooled — the collector unmaps the file. The same
// holds across a merge: the file it replaces is unmapped once the views
// over it are dropped, though its index's pools still held states, and
// the merged file serves what a fresh build does.
func TestMappedStoreLifetime(t *testing.T) {
	if !mapsFiles {
		t.Skip("store files are read into memory on this platform")
	}
	rng := rand.New(rand.NewSource(27))
	st := randomStore(t, rng, 3000, 60, 6, core.Layout2Tp)
	oracle := st.Index
	path := filepath.Join(t.TempDir(), "store.idx")
	if err := Write(path, st); err != nil {
		t.Fatal(err)
	}
	// drain answers every shape, which leaves states in x's pools, and
	// compares each stream with the oracle's.
	drain := func(x core.Index) {
		for _, p := range allShapes(rng, 60) {
			got := x.Select(p).Collect(-1)
			want := oracle.Select(p).Collect(-1)
			if len(got) != len(want) {
				t.Fatalf("pattern %v: %d results, oracle %d", p, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pattern %v: result %d = %v, oracle %v", p, i, got[i], want[i])
				}
			}
		}
	}
	collect := func() {
		runtime.GC()
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // finalizers run asynchronously
	}

	// Only the index is kept, not the Store: its tries own the mapping.
	x := func() core.Index {
		st, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Integrity.Mapped || !mappedIn(t, path) {
			t.Fatal("Read did not map the store file")
		}
		return st.Index
	}()
	collect()
	if !mappedIn(t, path) {
		t.Fatal("the store file was unmapped while its index was reachable")
	}
	drain(x)
	// x is dead from here on. Its pools hold states over its tries until
	// two collections pass without a selection.
	for deadline := time.Now().Add(10 * time.Second); mappedIn(t, path); collect() {
		if time.Now().After(deadline) {
			t.Fatal("the store file is still mapped after every reference was dropped")
		}
	}

	m, err := OpenMutable(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	old := m.View()
	for i := 0; i < 3; i++ {
		drain(old.Index)
	}
	// Deleting a stored triple and inserting it back leaves the triples
	// as they were, so the merged file answers what the oracle does.
	tr := oracle.Select(core.NewPattern(-1, -1, -1)).Collect(1)[0]
	s, p, o := old.Render(tr.S), old.RenderPredicate(tr.P), old.Render(tr.O)
	if _, err := m.Delete(s, p, o); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(s, p, o); err != nil {
		t.Fatal(err)
	}
	if err := m.Merge(); err != nil {
		t.Fatal(err)
	}
	replaced := path + " (deleted)"
	if !mappedIn(t, replaced) || !mappedIn(t, path) {
		t.Fatal("the merge did not map its file beside the one a view still serves")
	}
	drain(old.Index)
	old = nil
	for deadline := time.Now().Add(10 * time.Second); mappedIn(t, replaced); collect() {
		if time.Now().After(deadline) {
			t.Fatal("the replaced store file is still mapped after its views were dropped")
		}
	}
	if !mappedIn(t, path) {
		t.Fatal("the merged store file was unmapped while the store serves it")
	}
	for i := 0; i < 3; i++ {
		drain(m.View().Index)
	}
}

// TestMappedOpenHeap pins what a mapped open adds to the live heap: the
// index and the dictionaries are served from the file, so the heap grows
// only by the decoded directories, well under a tenth of the file. A
// heap allocation the file's size, such as a copy of it, fails the test.
// A merge is held to the same bound: its views serve the mapping of the
// file it wrote, not the index it built.
func TestMappedOpenHeap(t *testing.T) {
	if !mapsFiles {
		t.Skip("store files are read into memory on this platform")
	}
	// The socket benchmark's shape of data: dbpedia-like triples over
	// IRIs with long shared prefixes, a third of the objects literals.
	g, err := gen.GeneratePreset("dbpedia", 100000, 33)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tr := range g.Triples {
		fmt.Fprintf(&sb, "<http://dbpedia.org/resource/E%d> <http://dbpedia.org/ontology/p%d> ", tr.S, tr.P)
		if tr.O%3 == 0 {
			fmt.Fprintf(&sb, "\"Label of catalogue item %d\"@en .\n", tr.O)
		} else {
			fmt.Fprintf(&sb, "<http://dbpedia.org/resource/E%d> .\n", tr.O)
		}
	}
	statements, err := rdf.ParseAll(strings.NewReader(sb.String()))
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
	path := filepath.Join(t.TempDir(), "store.idx")
	if err := Write(path, &Store{Index: x, Dicts: dicts}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	g, statements, d, dicts, x = nil, nil, nil, nil, nil

	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	st, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	growth := live() - before
	if !st.Integrity.Mapped {
		t.Fatal("Read did not map the store file")
	}
	if n := countMatches(t, st, "?", "?", "?"); n == 0 {
		t.Fatal("the mapped store answers nothing")
	}
	t.Logf("file %d bytes, heap growth across Read %d bytes (%.1f%%)", fi.Size(), growth, 100*float64(growth)/float64(fi.Size()))
	if growth > fi.Size()/10 {
		t.Errorf("Read grew the live heap by %d bytes, over a tenth of the %d-byte file", growth, fi.Size())
	}
	runtime.KeepAlive(st)

	m, err := OpenMutable(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 8; i++ {
		if _, err := m.Insert(fmt.Sprintf("<http://dbpedia.org/resource/New%d>", i), "<http://dbpedia.org/ontology/p1>", "<http://dbpedia.org/resource/E1>"); err != nil {
			t.Fatal(err)
		}
	}
	before = live()
	if err := m.Merge(); err != nil {
		t.Fatal(err)
	}
	growth = live() - before
	if fi, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if !m.View().Integrity.Mapped || !mappedIn(t, path) {
		t.Fatal("the merged store is not served from the mapping of its file")
	}
	t.Logf("merged file %d bytes, heap growth across Merge %d bytes (%.1f%%)", fi.Size(), growth, 100*float64(growth)/float64(fi.Size()))
	if growth > fi.Size()/10 {
		t.Errorf("Merge grew the live heap by %d bytes, over a tenth of the %d-byte file", growth, fi.Size())
	}
}
