package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// recorder is a plan that lets every operation through and keeps what
// it saw.
type recorder struct{ ops []Op }

func (r *recorder) plan(op Op) Fault {
	r.ops = append(r.ops, op)
	return None
}

// readFile returns the file's bytes, failing the test on error.
func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEveryOpKindReachesPlan drives each faultable entry point once and
// checks the plan saw each with its kind, its path and a 1-based,
// gapless sequence number, while the operations themselves took effect.
func TestEveryOpKindReachesPlan(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	in := NewInjector(OS{})
	var rec recorder
	in.SetPlan(rec.plan)

	f, err := in.Create(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(" world"); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.Rename(a, b); err != nil {
		t.Fatal(err)
	}
	g, err := in.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	h, err := in.OpenFile(b, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if got := readFile(t, b); got != "hello" {
		t.Fatalf("file holds %q, want %q", got, "hello")
	}
	if err := in.Remove(b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(b); !os.IsNotExist(err) {
		t.Fatalf("removed file still there: %v", err)
	}

	want := []Op{
		{OpCreate, a, 1}, {OpWrite, a, 2}, {OpWrite, a, 3}, {OpSync, a, 4},
		{OpTruncate, a, 5}, {OpRename, a, 6}, {OpOpen, b, 7}, {OpOpen, b, 8},
		{OpRemove, b, 9},
	}
	if !reflect.DeepEqual(rec.ops, want) {
		t.Fatalf("plan saw\n%v\nwant\n%v", rec.ops, want)
	}
	if in.Ops() != len(want) || in.Crashed() {
		t.Fatalf("Ops() = %d, Crashed() = %v; want %d, false", in.Ops(), in.Crashed(), len(want))
	}
}

// TestCrashAtOp counts operations across files and kinds: the first n-1
// succeed, the n-th fails with ErrCrashed and kills the injector, and
// Ops stops counting there.
func TestCrashAtOp(t *testing.T) {
	for n := 1; n <= 4; n++ {
		path := filepath.Join(t.TempDir(), "f")
		in := NewInjector(OS{})
		in.CrashAtOp(n)
		steps := []func() error{
			func() error { _, err := in.Create(path); return err },
			func() error { _, err := in.OpenFile(path, os.O_WRONLY, 0); return err },
			func() error { return in.Rename(path, path+".moved") },
			func() error { return in.Remove(path + ".moved") },
		}
		for i, step := range steps {
			err := step()
			switch {
			case i+1 < n && err != nil:
				t.Fatalf("CrashAtOp(%d): op %d failed before the crash point: %v", n, i+1, err)
			case i+1 >= n && !errors.Is(err, ErrCrashed):
				t.Fatalf("CrashAtOp(%d): op %d returned %v, want ErrCrashed", n, i+1, err)
			case i+1 < n && in.Crashed():
				t.Fatalf("CrashAtOp(%d): crashed at op %d", n, i+1)
			}
		}
		if !in.Crashed() || in.Ops() != n {
			t.Fatalf("CrashAtOp(%d): Crashed() = %v, Ops() = %d", n, in.Crashed(), in.Ops())
		}
	}
}

// TestErrCrashedAfterCrash: once a crash fired, every operation, on the
// injector and on files it opened before, fails with ErrCrashed and
// leaves the filesystem alone.
func TestErrCrashedAfterCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	in := NewInjector(OS{})
	f, err := in.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	in.SetPlan(func(Op) Fault { return Crash })
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing Sync: %v", err)
	}
	in.SetPlan(nil) // the plan no longer matters: the process is dead
	ops := in.Ops()
	checks := map[string]error{}
	_, checks["Create"] = in.Create(filepath.Join(dir, "g"))
	_, checks["Open"] = in.Open(path)
	_, checks["OpenFile"] = in.OpenFile(path, os.O_RDWR, 0)
	checks["Rename"] = in.Rename(path, filepath.Join(dir, "h"))
	checks["Remove"] = in.Remove(path)
	_, checks["Write"] = f.Write([]byte("lost"))
	_, checks["WriteString"] = f.WriteString("lost")
	checks["Sync"] = f.Sync()
	checks["Truncate"] = f.Truncate(0)
	for name, err := range checks {
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("%s after the crash: %v, want ErrCrashed", name, err)
		}
	}
	f.Close()
	if in.Ops() != ops {
		t.Fatalf("operations after the crash were counted: %d -> %d", ops, in.Ops())
	}
	if got := readFile(t, path); got != "kept" {
		t.Fatalf("file holds %q after the crash, want %q", got, "kept")
	}
	if _, err := os.Stat(filepath.Join(dir, "g")); !os.IsNotExist(err) {
		t.Fatalf("Create after the crash made a file: %v", err)
	}
}

// TestShortWriteAndError: ShortWrite applies the first half of a write
// and fails it with ErrInjected; Error fails an operation without
// touching state, and ShortWrite on an operation other than a write
// does the same. Neither kills the injector.
func TestShortWriteAndError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	in := NewInjector(OS{})
	f, err := in.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	in.SetPlan(func(op Op) Fault { return ShortWrite })
	n, err := f.Write([]byte("abcdefgh"))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: n=%d err=%v, want 4 and ErrInjected", n, err)
	}
	if err := in.Rename(path, path+".moved"); !errors.Is(err, ErrInjected) {
		t.Fatalf("ShortWrite on a rename: %v, want ErrInjected", err)
	}

	in.SetPlan(func(op Op) Fault { return Error })
	if n, err := f.Write([]byte("xyz")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("failed write: n=%d err=%v, want 0 and ErrInjected", n, err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed sync: %v", err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed truncate: %v", err)
	}
	if err := in.Remove(path); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed remove: %v", err)
	}
	if _, err := in.Create(filepath.Join(dir, "g")); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed create: %v", err)
	}

	if in.Crashed() {
		t.Fatal("an injected error killed the injector")
	}
	if got := readFile(t, path); got != "abcd" {
		t.Fatalf("file holds %q, want the short write's half %q", got, "abcd")
	}
	if _, err := os.Stat(filepath.Join(dir, "g")); !os.IsNotExist(err) {
		t.Fatalf("failed create made a file: %v", err)
	}
	in.SetPlan(nil)
	if _, err := f.Write([]byte("!")); err != nil {
		t.Fatalf("write after the faults: %v", err)
	}
}

// TestDropUnsynced: a crash with DropUnsynced rewinds every open file to
// its length at the last Sync (or at open, for bytes already there, or
// at a Truncate below it), and the crashing write itself lands nothing;
// without DropUnsynced the unsynced bytes and half the crashing write
// stay.
func TestDropUnsynced(t *testing.T) {
	for _, drop := range []bool{true, false} {
		dir := t.TempDir()
		synced, old, cut := filepath.Join(dir, "synced"), filepath.Join(dir, "old"), filepath.Join(dir, "cut")
		if err := os.WriteFile(old, []byte("on disk"), 0o644); err != nil {
			t.Fatal(err)
		}
		in := NewInjector(OS{})
		in.DropUnsynced = drop

		f, err := in.Create(synced)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("durable"))
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Write([]byte(" pending"))

		g, err := in.OpenFile(old, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		g.Write([]byte(" appended"))

		h, err := in.Create(cut)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte("0123456789"))
		h.Sync()
		if err := h.Truncate(4); err != nil {
			t.Fatal(err)
		}
		h.Seek(0, io.SeekEnd) // truncation does not move the offset
		h.Write([]byte("xx"))

		in.CrashAtOp(in.Ops() + 1)
		if _, err := f.Write([]byte("!!")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("crashing write: %v", err)
		}
		want := map[string]string{synced: "durable", old: "on disk", cut: "0123"}
		if !drop {
			want = map[string]string{synced: "durable pending!", old: "on disk appended", cut: "0123xx"}
		}
		for path, w := range want {
			if got := readFile(t, path); got != w {
				t.Errorf("DropUnsynced=%v: %s holds %q, want %q", drop, filepath.Base(path), got, w)
			}
		}
		f.Close()
		g.Close()
		h.Close()
	}
}
