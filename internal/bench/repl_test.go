package bench

import (
	"path/filepath"
	"testing"

	"rdfindexes/internal/gen"
	"rdfindexes/internal/store"
)

// TestReplPristineVerifies checks that the replication experiment's
// starting store is one store.Verify accepts: its synthetic SO
// dictionary holds the subjects as its first run, so the index's roots
// match the dictionary's subject count.
func TestReplPristineVerifies(t *testing.T) {
	d, err := gen.GeneratePreset("dbpedia", 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pristine.idx")
	if err := writePristine(path, d, updateStream(d, 200, 12)); err != nil {
		t.Fatal(err)
	}
	rep, err := store.Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("Verify of the pristine store: %+v", rep.Sections)
	}
}
