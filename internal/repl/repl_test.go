package repl

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/store"
)

// Tight timings so reconnect/backoff/heartbeat paths run in
// milliseconds under test.
func testLeaderOptions() LeaderOptions {
	return LeaderOptions{HeartbeatInterval: 5 * time.Millisecond, HelloTimeout: time.Second}
}

func testFollowerOptions() FollowerOptions {
	return FollowerOptions{
		ReadTimeout:     250 * time.Millisecond,
		SnapshotTimeout: 5 * time.Second,
		BackoffMin:      time.Millisecond,
		BackoffMax:      20 * time.Millisecond,
	}
}

// buildSeedStore writes a small dictionary store and returns its path.
func buildSeedStore(t *testing.T, dir string) string {
	t.Helper()
	nt := `<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/bob> <http://ex/knows> <http://ex/carol> .
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
	path := filepath.Join(dir, "leader.idx")
	if err := store.Write(path, &store.Store{Index: x, Dicts: dicts}); err != nil {
		t.Fatal(err)
	}
	return path
}

// startLeader opens the store for writing, attaches a leader, and
// serves it on a loopback listener.
func startLeader(t *testing.T, path string, threshold int) (*store.Mutable, *Leader, string) {
	t.Helper()
	mut, err := store.OpenMutable(path, threshold)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLeader(mut, testLeaderOptions())
	if err != nil {
		mut.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go l.Serve(ln)
	t.Cleanup(func() {
		l.Close()
		mut.Close()
	})
	return mut, l, ln.Addr().String()
}

// startFollower opens (bootstrapping if needed) and runs a follower in
// the background.
func startFollower(t *testing.T, path, addr string) (*Follower, context.CancelFunc) {
	t.Helper()
	f, err := OpenFollower(path, addr, testFollowerOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		f.Close()
	})
	return f, cancel
}

// waitConverged polls until the follower holds exactly the leader's
// state: same WAL position, same base file fingerprint, same triple
// count.
func waitConverged(t *testing.T, leader *store.Mutable, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		lSeq, fSeq := leader.WALSeq(), f.Mutable().WALSeq()
		lFp, _ := store.FileFingerprint(leader.Path())
		fFp, _ := store.FileFingerprint(f.Mutable().Path())
		lN := leader.View().Index.NumTriples()
		fN := f.Mutable().View().Index.NumTriples()
		if lSeq == fSeq && lFp == fFp && lN == fN {
			return
		}
		last = fmt.Sprintf("leader seq=%d fp=%016x n=%d; follower seq=%d fp=%016x n=%d",
			lSeq, lFp, lN, fSeq, fFp, fN)
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower did not converge: %s", last)
}

func insertN(t *testing.T, mut *store.Mutable, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		s := fmt.Sprintf("<http://ex/s%d>", i)
		o := fmt.Sprintf("<http://ex/o%d>", i)
		if _, err := mut.Insert(s, "<http://ex/p>", o); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

func TestReplicateBootstrapAndTail(t *testing.T) {
	dir := t.TempDir()
	leaderPath := buildSeedStore(t, dir)
	mut, l, addr := startLeader(t, leaderPath, -1)

	insertN(t, mut, 0, 5) // records before the follower exists

	f, _ := startFollower(t, filepath.Join(dir, "replica.idx"), addr)
	waitConverged(t, mut, f)
	if got := f.Stats().SnapshotsInstalled; got < 1 {
		t.Fatalf("bootstrap should install a snapshot, got %d", got)
	}

	insertN(t, mut, 5, 5) // live tail
	waitConverged(t, mut, f)

	st := f.Mutable().View()
	pat, err := st.ParsePattern("<http://ex/s7>", "<http://ex/p>", "<http://ex/o7>")
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Index.Select(pat).Count(); n != 1 {
		t.Fatalf("replicated triple lookup = %d, want 1", n)
	}
	// Ready flips once a heartbeat confirms the commit offset.
	deadline := time.Now().Add(5 * time.Second)
	for !f.Ready() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !f.Ready() {
		t.Fatal("follower never became ready")
	}
	if ls := l.Stats(); ls.RecordsShipped < 10 {
		t.Fatalf("leader shipped %d records, want >= 10", ls.RecordsShipped)
	}
}

// TestBootstrapReceive feeds a follower bootstrapping onto a missing
// store file a short stream, a stream with one flipped byte and a good
// snapshot, each from a one-shot leader stand-in. A bad stream fails the
// open and leaves neither the store file nor a temp file, so the next
// open bootstraps cleanly.
func TestBootstrapReceive(t *testing.T) {
	dir := t.TempDir()
	snap, err := os.ReadFile(buildSeedStore(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x10
	path := filepath.Join(dir, "replica.idx")
	for _, c := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"short", snap[:len(snap)-7], false},
		{"flipped", flipped, false},
		{"good", snap, true},
	} {
		opts := testFollowerOptions()
		served := make(chan struct{})
		opts.Dial = func(string) (net.Conn, error) {
			conn, peer := net.Pipe()
			go func() {
				defer close(served)
				defer peer.Close()
				if _, err := readFrame(peer); err != nil {
					return
				}
				if writeFrame(peer, encodeSnapshotHeader(1, 1, uint64(len(snap)))) == nil {
					peer.Write(c.body)
				}
			}()
			return conn, nil
		}
		f, err := OpenFollower(path, "stand-in", opts)
		<-served // the bootstrap closed its end, so the stand-in is done
		if !c.ok {
			if err == nil {
				f.Close()
				t.Fatalf("%s: the bootstrap succeeded", c.name)
			}
			for _, p := range []string{path, path + ".snap.tmp"} {
				if _, serr := os.Stat(p); !os.IsNotExist(serr) {
					t.Fatalf("%s: %s left behind (%v)", c.name, p, serr)
				}
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		defer f.Close()
		if n := f.Mutable().View().Index.NumTriples(); n != 2 {
			t.Fatalf("bootstrapped store holds %d triples, want 2", n)
		}
		if got := f.Stats().SnapshotsInstalled; got != 1 {
			t.Fatalf("SnapshotsInstalled = %d, want 1", got)
		}
	}
}

func TestFollowerResumesWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	leaderPath := buildSeedStore(t, dir)
	mut, _, addr := startLeader(t, leaderPath, -1)
	replicaPath := filepath.Join(dir, "replica.idx")

	f, err := OpenFollower(replicaPath, addr, testFollowerOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	insertN(t, mut, 0, 5)
	waitConverged(t, mut, f)
	cancel()
	<-done
	f.Close()

	insertN(t, mut, 5, 3) // written while the follower is down

	f2, _ := startFollower(t, replicaPath, addr)
	waitConverged(t, mut, f2)
	if got := f2.Stats().SnapshotsInstalled; got != 0 {
		t.Fatalf("resume from a live position took %d snapshots, want 0", got)
	}
	if got := f2.Mutable().WALSeq(); got != 8 {
		t.Fatalf("follower WAL seq = %d, want 8", got)
	}
}

func TestMergePropagatesAsEpochEnd(t *testing.T) {
	dir := t.TempDir()
	leaderPath := buildSeedStore(t, dir)
	mut, _, addr := startLeader(t, leaderPath, -1)

	f, _ := startFollower(t, filepath.Join(dir, "replica.idx"), addr)
	insertN(t, mut, 0, 4)
	waitConverged(t, mut, f)
	before := f.Stats().SnapshotsInstalled

	if err := mut.Merge(); err != nil {
		t.Fatal(err)
	}
	insertN(t, mut, 4, 3)
	waitConverged(t, mut, f)

	if f.Mutable().WALSeq() != 3 {
		t.Fatalf("follower seq after merge = %d, want 3", f.Mutable().WALSeq())
	}
	if got := f.Stats().SnapshotsInstalled - before; got != 0 {
		t.Fatalf("in-stream merge took %d snapshots, want 0 (local merge replay)", got)
	}
}

func TestSnapshotCatchUpAfterRetentionLoss(t *testing.T) {
	dir := t.TempDir()
	leaderPath := buildSeedStore(t, dir)
	mut, _, addr := startLeader(t, leaderPath, -1)
	replicaPath := filepath.Join(dir, "replica.idx")

	f, err := OpenFollower(replicaPath, addr, testFollowerOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	insertN(t, mut, 0, 3)
	waitConverged(t, mut, f)
	cancel()
	<-done
	f.Close()

	// Two merges while the follower is away: its position falls out of
	// the two-epoch retention window, forcing full-snapshot catch-up.
	insertN(t, mut, 3, 3)
	if err := mut.Merge(); err != nil {
		t.Fatal(err)
	}
	insertN(t, mut, 6, 3)
	if err := mut.Merge(); err != nil {
		t.Fatal(err)
	}
	insertN(t, mut, 9, 2)

	f2, _ := startFollower(t, replicaPath, addr)
	waitConverged(t, mut, f2)
	if got := f2.Stats().SnapshotsInstalled; got < 1 {
		t.Fatalf("retention loss should force a snapshot, got %d", got)
	}
	if n := f2.Mutable().View().Index.NumTriples(); n != 13 {
		t.Fatalf("follower triples = %d, want 13", n)
	}
}

func TestFollowerSurvivesLeaderRestart(t *testing.T) {
	dir := t.TempDir()
	leaderPath := buildSeedStore(t, dir)

	mut, err := store.OpenMutable(leaderPath, -1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLeader(mut, testLeaderOptions())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go l.Serve(ln)

	f, _ := startFollower(t, filepath.Join(dir, "replica.idx"), addr)
	insertN(t, mut, 0, 4)
	waitConverged(t, mut, f)

	// Kill the leader mid-stream and bring a new one up on the same
	// address — the follower must reconnect and resume unattended.
	l.Close()
	mut.Close()
	mut2, err := store.OpenMutable(leaderPath, -1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := NewLeader(mut2, testLeaderOptions())
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go l2.Serve(ln2)
	t.Cleanup(func() {
		l2.Close()
		mut2.Close()
	})

	insertN(t, mut2, 4, 4)
	waitConverged(t, mut2, f)
	if got := f.Stats().Reconnects; got < 1 {
		t.Fatalf("follower reconnects = %d, want >= 1", got)
	}
}

func TestFrameRoundtripAndDamage(t *testing.T) {
	var buf strings.Builder
	line := []byte("deadbeef 1 I <a> <b> <c> .\n")
	if err := writeFrame(&buf, encodeRecord(7, 9, line)); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	fp, gen, got, err := decodeRecord(payload)
	if err != nil || fp != 7 || gen != 9 || string(got) != string(line) {
		t.Fatalf("record roundtrip = (%d,%d,%q,%v)", fp, gen, got, err)
	}

	// Flip one payload byte: the frame checksum must catch it.
	raw := []byte(buf.String())
	raw[10] ^= 0x40
	if _, err := readFrame(strings.NewReader(string(raw))); err == nil {
		t.Fatal("corrupt frame passed checksum")
	}

	// Truncated stream must surface as an error, not a short frame.
	if _, err := readFrame(strings.NewReader(buf.String()[:5])); err == nil {
		t.Fatal("truncated frame did not error")
	}
}
