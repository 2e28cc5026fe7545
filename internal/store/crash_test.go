package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rdfindexes/internal/core"
	"rdfindexes/internal/faultfs"
)

// tortureOp is one step of the crash-torture workload: an insert, a
// delete, or an explicit merge.
type tortureOp struct {
	kind    byte // 'I', 'D', 'M'
	s, p, o string
}

// tortureWorkload mixes inserts of new terms, a delete of a base
// triple, churn on a fresh triple, and an explicit merge; with a merge
// threshold of 3 the later writes also trigger an automatic merge, so
// the crash sweep covers WAL appends, syncs, the store rewrite, the
// rename, and the WAL truncation.
func tortureWorkload() []tortureOp {
	return []tortureOp{
		{'I', "<http://ex/t1>", "<http://ex/knows>", "<http://ex/alice>"},
		{'I', "<http://ex/t2>", "<http://ex/knows>", `"v2"`},
		{'D', "<http://ex/alice>", "<http://ex/knows>", "<http://ex/bob>"},
		{'M', "", "", ""},
		{'I', "<http://ex/t3>", "<http://ex/admires>", "<http://ex/t1>"},
		{'D', "<http://ex/t2>", "<http://ex/knows>", `"v2"`},
		{'I', "<http://ex/t4>", "<http://ex/knows>", "<http://ex/t2>"},
	}
}

// dumpTriples renders the view's full logical triple set.
func dumpTriples(t *testing.T, st *Store) map[string]bool {
	t.Helper()
	pat, err := st.ParsePattern("?", "?", "?")
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool)
	it := st.Index.Select(pat)
	for {
		tr, ok := it.Next()
		if !ok {
			break
		}
		set[st.Render(tr.S)+" "+st.RenderPredicate(tr.P)+" "+st.Render(tr.O)] = true
	}
	return set
}

// applyExpected advances the oracle triple set by one workload op.
func applyExpected(set map[string]bool, op tortureOp) map[string]bool {
	next := make(map[string]bool, len(set)+1)
	for k := range set {
		next[k] = true
	}
	key := op.s + " " + op.p + " " + op.o
	switch op.kind {
	case 'I':
		next[key] = true
	case 'D':
		delete(next, key)
	}
	return next
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// runTortureWorkload opens the store and drives the workload until the
// first failure, returning how many ops were acknowledged and whether
// one was in flight when the failure hit.
func runTortureWorkload(path string, ops []tortureOp) (acked int, inFlight bool) {
	m, err := OpenMutable(path, 3)
	if err != nil {
		return 0, false
	}
	defer m.Close()
	for _, op := range ops {
		switch op.kind {
		case 'I':
			_, err = m.Insert(op.s, op.p, op.o)
		case 'D':
			_, err = m.Delete(op.s, op.p, op.o)
		case 'M':
			err = m.Merge()
		}
		if err != nil {
			return acked, true
		}
		acked++
	}
	return acked, false
}

// TestCrashTorture simulates a crash at every faultable filesystem
// operation of an insert/delete/merge workload — in both crash models:
// writes-survive (the filesystem kept everything already issued) and
// unsynced-dropped (power failure discarded everything not fsynced) —
// and asserts that the store reopens cleanly each time with no
// acknowledged write lost: the recovered triple set must equal the
// oracle set after exactly the acknowledged ops, except that the single
// in-flight op may additionally have landed (it became durable before
// its acknowledgment could be delivered — a lost ack, not a lost or
// phantom write).
func TestCrashTorture(t *testing.T) {
	ops := tortureWorkload()
	for _, drop := range []bool{false, true} {
		name := "writes-survive"
		if drop {
			name = "unsynced-dropped"
		}
		t.Run(name, func(t *testing.T) {
			// Clean instrumented pass: learn the total operation count and
			// the oracle end state.
			path := buildTestStore(t, t.TempDir(), core.Layout2Tp)
			inj := faultfs.NewInjector(faultfs.OS{})
			inj.DropUnsynced = drop
			fsys = inj
			acked, inFlight := runTortureWorkload(path, ops)
			fsys = faultfs.OS{}
			if acked != len(ops) || inFlight {
				t.Fatalf("clean pass failed: acked %d of %d", acked, len(ops))
			}
			totalOps := inj.Ops()
			if totalOps < 20 {
				t.Fatalf("suspiciously few faultable ops (%d); is fsys wired through the write paths?", totalOps)
			}

			// Oracle states: expected[i] is the triple set after i acked ops.
			expected := make([]map[string]bool, len(ops)+1)
			st, err := Read(path)
			if err != nil {
				t.Fatal(err)
			}
			base := dumpTriples(t, st)
			// The clean pass ends with every op applied; rebuild the
			// initial set by replaying the oracle backwards from a fresh
			// store instead — simpler: build a fresh store per crash point
			// below, and derive expected[0] from it once here.
			freshPath := buildTestStore(t, t.TempDir(), core.Layout2Tp)
			fresh, err := Read(freshPath)
			if err != nil {
				t.Fatal(err)
			}
			expected[0] = dumpTriples(t, fresh)
			for i, op := range ops {
				expected[i+1] = applyExpected(expected[i], op)
			}
			if !sameSet(base, expected[len(ops)]) {
				t.Fatalf("oracle diverges from the clean pass: %v vs %v", base, expected[len(ops)])
			}

			for crashAt := 1; crashAt <= totalOps; crashAt++ {
				t.Run(fmt.Sprintf("op%03d", crashAt), func(t *testing.T) {
					path := buildTestStore(t, t.TempDir(), core.Layout2Tp)
					inj := faultfs.NewInjector(faultfs.OS{})
					inj.DropUnsynced = drop
					inj.CrashAtOp(crashAt)
					fsys = inj
					acked, inFlight := runTortureWorkload(path, ops)
					fsys = faultfs.OS{}
					if !inj.Crashed() {
						t.Fatalf("crash point %d never fired (%d ops observed)", crashAt, inj.Ops())
					}

					m, err := OpenMutable(path, 3)
					if err != nil {
						t.Fatalf("store did not reopen after crash at op %d (acked %d): %v", crashAt, acked, err)
					}
					defer m.Close()
					if rec := m.Recovery(); rec.Corrupt {
						t.Fatalf("crash at op %d left a WAL the replay flags as corrupt: %+v", crashAt, rec)
					}
					got := dumpTriples(t, m.View())
					if sameSet(got, expected[acked]) {
						return
					}
					if inFlight && acked < len(ops) && sameSet(got, expected[acked+1]) {
						return // the in-flight op landed; only its ack was lost
					}
					t.Fatalf("crash at op %d: reopened set %v matches neither %d acked ops %v nor acked+in-flight %v",
						crashAt, got, acked, expected[acked], expected[acked+1])
				})
			}
		})
	}
}

// TestInstallSnapshotFaults fails the steps of snapshot catch-up that
// change the disk — the WAL truncate, the WAL sync and the rename — and
// checks that the store file, the WAL position and the in-memory state
// stay at one epoch, before and after a reopen. The WAL's records belong
// to the base the file holds; were the snapshot renamed in with them
// still in the WAL, a reopen would replay them over the leader's state
// and bring back triples the leader deleted. A merge whose WAL sync
// fails after the truncate must likewise start its next epoch, or the
// next acknowledged write is framed past the empty WAL and lost.
func TestInstallSnapshotFaults(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "snap.idx")
	if err := Write(snapPath, buildSample(t, core.Layout3T)); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	// open returns a store at its base plus two WAL records, with every
	// file operation going through inj.
	open := func(t *testing.T, inj *faultfs.Injector) (*Mutable, string, uint64) {
		t.Helper()
		path := buildTestStore(t, t.TempDir(), core.Layout2Tp)
		fp, err := FileFingerprint(path)
		if err != nil {
			t.Fatal(err)
		}
		fsys = inj
		t.Cleanup(func() { fsys = faultfs.OS{} })
		m, err := OpenMutable(path, -1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		for _, s := range []string{"<http://ex/dave>", "<http://ex/erin>"} {
			if _, err := m.Insert(s, "<http://ex/knows>", "<http://ex/alice>"); err != nil {
				t.Fatal(err)
			}
		}
		return m, path, fp
	}
	failOn := func(kind faultfs.OpKind, path string) func(faultfs.Op) faultfs.Fault {
		return func(op faultfs.Op) faultfs.Fault {
			if op.Kind == kind && op.Path == path {
				return faultfs.Error
			}
			return faultfs.None
		}
	}
	// check asserts the file's fingerprint, the WAL position and how many
	// of the two WAL-only triples the view serves, then how many a reopen
	// serves. A failure past the truncate publishes nothing: the view on
	// show keeps serving until the next write.
	check := func(t *testing.T, m *Mutable, path string, fp, seq uint64, served, reopened int) {
		t.Helper()
		if got, err := FileFingerprint(path); err != nil || got != fp {
			t.Errorf("store file fingerprint %016x (%v), want %016x", got, err, fp)
		}
		if got := m.WALSeq(); got != seq {
			t.Errorf("WALSeq = %d, want %d", got, seq)
		}
		if _, err := os.Stat(path + ".snap.tmp"); !os.IsNotExist(err) {
			t.Errorf("snapshot temp file left behind: %v", err)
		}
		if n := countMatches(t, m.View(), "?", "?", "<http://ex/alice>"); n != served {
			t.Errorf("view serves %d of the WAL's triples, want %d", n, served)
		}
		m.Close()
		fsys = faultfs.OS{}
		r, err := OpenMutable(path, -1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if n := countMatches(t, r.View(), "?", "?", "<http://ex/alice>"); n != reopened {
			t.Errorf("reopened store serves %d of the WAL's triples, want %d", n, reopened)
		}
	}

	t.Run("truncate", func(t *testing.T) {
		inj := faultfs.NewInjector(faultfs.OS{})
		m, path, fp := open(t, inj)
		inj.SetPlan(failOn(faultfs.OpTruncate, path+WALSuffix))
		if err := m.InstallSnapshot(bytes.NewReader(snap), int64(len(snap))); err == nil {
			t.Fatal("InstallSnapshot succeeded through a failed WAL truncate")
		}
		check(t, m, path, fp, 2, 2, 2) // nothing changed
	})
	for _, tc := range []struct {
		name   string
		kind   faultfs.OpKind
		suffix string
	}{
		{"sync", faultfs.OpSync, WALSuffix},
		{"rename", faultfs.OpRename, ".snap.tmp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.OS{})
			m, path, fp := open(t, inj)
			inj.SetPlan(failOn(tc.kind, path+tc.suffix))
			if err := m.InstallSnapshot(bytes.NewReader(snap), int64(len(snap))); err == nil {
				t.Fatalf("InstallSnapshot succeeded through a failed %s", tc.kind)
			}
			check(t, m, path, fp, 0, 2, 0) // the old base at the top of its epoch
		})
	}
	t.Run("merge-sync", func(t *testing.T) {
		inj := faultfs.NewInjector(faultfs.OS{})
		m, path, _ := open(t, inj)
		inj.SetPlan(failOn(faultfs.OpSync, path+WALSuffix))
		if err := m.Merge(); err == nil {
			t.Fatal("Merge succeeded through a failed WAL sync")
		}
		inj.SetPlan(nil)
		if _, err := m.Insert("<http://ex/frank>", "<http://ex/knows>", "<http://ex/alice>"); err != nil {
			t.Fatal(err)
		}
		fp, err := FileFingerprint(path)
		if err != nil {
			t.Fatal(err)
		}
		check(t, m, path, fp, 1, 3, 3) // the merged base and the write after it
	})
	t.Run("clean", func(t *testing.T) {
		m, path, _ := open(t, faultfs.NewInjector(faultfs.OS{}))
		if err := m.InstallSnapshot(bytes.NewReader(snap), int64(len(snap))); err != nil {
			t.Fatal(err)
		}
		if st := m.View(); st.Integrity.Mapped != mapsFiles || st.Index.Layout() != core.Layout3T {
			t.Errorf("installed view: mapped %v, layout %v", st.Integrity.Mapped, st.Index.Layout())
		}
		fp, err := FileFingerprint(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		check(t, m, path, fp, 0, 1, 1) // the snapshot: carol knows alice
	})
}
