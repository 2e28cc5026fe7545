package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestServingPathPoolHygieneClean pins the audit result for the
// serving stack's pooling code: the gzip-writer release in
// internal/server/protocol.go (Get on one branch, Put behind a nil
// guard) and the store's pooled renderers verify clean under the real
// vettool pipeline, with no suppressions beyond the
// documented ownership-transfer //rdf:allow annotations. If a future
// edit introduces a leaky early return, a retained pooled value, or a
// use-after-Put in these packages, this test fails even when CI's lint
// job is skipped.
func TestServingPathPoolHygieneClean(t *testing.T) {
	modRoot := findModRootClean(t)
	tool := filepath.Join(t.TempDir(), "rdflint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/rdflint")
	build.Dir = modRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rdflint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool,
		"./internal/server/...", "./internal/store/...")
	vet.Dir = modRoot
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("serving-path packages are no longer rdflint-clean: %v\n%s", err, out)
	}
}

func findModRootClean(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, statErr := os.Stat(filepath.Join(dir, "go.mod")); statErr == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
