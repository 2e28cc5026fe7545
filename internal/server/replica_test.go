package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rdfindexes/internal/repl"
	"rdfindexes/internal/store"
)

// TestMinGenToken exercises the read-your-writes consistency token on a
// single (leader) server: a write returns a generation, a read carrying
// min-gen at or below it succeeds, a min-gen from the future answers
// 503 + Retry-After, and a malformed token is the client's 400.
func TestMinGenToken(t *testing.T) {
	dir := t.TempDir()
	m := mutableStore(t, dir, 10, 2, 0)
	srv := NewMutable(m, Options{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postUpdate(t, ts, dataUpdate("INSERT", "<http://ex/minGen>", "<http://ex/knows>", "<http://ex/p0>"))
	if resp.StatusCode != 200 {
		t.Fatalf("insert: %d %q", resp.StatusCode, body)
	}
	var wr store.WriteResult
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Generation == 0 {
		t.Fatalf("write result carries no generation: %+v", wr)
	}
	if h := resp.Header.Get(generationHeader); h != strconv.FormatUint(wr.Generation, 10) {
		t.Fatalf("write %s header %q, body generation %d", generationHeader, h, wr.Generation)
	}

	q := limitOne + "&min-gen="
	if resp, body = get(t, ts, q+strconv.FormatUint(wr.Generation, 10)); resp.StatusCode != 200 {
		t.Fatalf("satisfied min-gen: %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get(generationHeader) == "" {
		t.Fatalf("read without a %s token", generationHeader)
	}
	resp, body = get(t, ts, q+strconv.FormatUint(wr.Generation+100, 10))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("future min-gen: %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("stale 503 without Retry-After")
	}
	if resp, body = get(t, ts, q+"banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed min-gen: %d %q", resp.StatusCode, body)
	}

	var stats Stats
	_, body = get(t, ts, "/stats")
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.RejectedStale != 1 {
		t.Fatalf("stale rejection not counted: %+v", stats)
	}
}

// TestReplicaServing wires a real leader + follower pair and serves the
// follower: writes are refused with the leader's address, /readyz
// tracks catch-up, reads answer with the leader's generation token, and
// a min-gen ahead of the applied generation is refused rather than
// served stale.
func TestReplicaServing(t *testing.T) {
	dir := t.TempDir()
	m := mutableStore(t, dir, 10, 2, -1)
	leader, err := repl.NewLeader(m, repl.LeaderOptions{HeartbeatInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go leader.Serve(ln)
	defer leader.Close()

	f, err := repl.OpenFollower(dir+"/replica.idx", ln.Addr().String(), repl.FollowerOptions{
		ReadTimeout: 250 * time.Millisecond,
		BackoffMin:  time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	defer f.Close()

	srv := NewMutable(f.Mutable(), Options{Workers: 2, Replica: f})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Writes belong on the leader.
	resp, body := postUpdate(t, ts, dataUpdate("INSERT", "<http://ex/a>", "<http://ex/knows>", "<http://ex/p0>"))
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica insert: %d %q", resp.StatusCode, body)
	}
	if got := resp.Header.Get(leaderHeader); got != ln.Addr().String() {
		t.Fatalf("%s = %q, want %q", leaderHeader, got, ln.Addr())
	}

	// Readiness follows catch-up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = get(t, ts, "/readyz")
		if resp.StatusCode == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never became ready: %d %q", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Write on the leader, then read-your-writes through the replica.
	res, err := m.Insert("<http://ex/rw>", "<http://ex/knows>", "<http://ex/p0>")
	if err != nil {
		t.Fatal(err)
	}
	q := limitOne + "&min-gen=" + strconv.FormatUint(res.Generation, 10)
	for {
		resp, body = get(t, ts, q)
		if resp.StatusCode == 200 {
			break
		}
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("catch-up read: %d %q hdr %v", resp.StatusCode, body, resp.Header)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never applied generation %d: %d %q", res.Generation, resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp.Header.Get(generationHeader) == "" {
		t.Fatalf("replica read without a %s token", generationHeader)
	}

	// A token from far in the future stays refused, never served stale.
	resp, body = get(t, ts, limitOne+"&min-gen="+strconv.FormatUint(res.Generation+1000, 10))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("future min-gen on replica: %d %q", resp.StatusCode, body)
	}

	// /stats surfaces the replication role.
	var stats Stats
	_, body = get(t, ts, "/stats")
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Replication == nil || !stats.Replication.Connected {
		t.Fatalf("replica stats missing replication block: %s", body)
	}
}
