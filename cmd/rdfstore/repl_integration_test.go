package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles the rdfstore binary for the multi-process
// replication test: real processes over localhost, not in-process
// handler calls, so process death is a real TCP reset.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rdfstore")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// serveProc is one running `rdfstore serve` child with the addresses
// parsed off its startup banner.
type serveProc struct {
	cmd      *exec.Cmd
	httpAddr string // "serving ... on ADDR"
	replAddr string // "replication leader listening on ADDR" (leaders only)
}

// startServe launches `rdfstore serve` with the given flags and blocks
// until the serving banner announces the bound HTTP address.
func startServe(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	p := &serveProc{cmd: exec.Command(bin, args...)}
	p.cmd.Stderr = os.Stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})

	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if addr, ok := strings.CutPrefix(line, "replication leader listening on "); ok {
				p.replAddr = addr
			}
			if i := strings.Index(line, ") on "); strings.HasPrefix(line, "serving ") && i >= 0 {
				p.httpAddr = line[i+len(") on "):]
				ready <- nil
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("rdfstore %s never announced its serving address", strings.Join(args, " "))
	}
	return p
}

// httpGet fetches a URL with a short timeout, returning status and body.
func httpGet(t *testing.T, rawURL string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(rawURL)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// waitStatus polls url until it answers with want, failing the test at
// the deadline.
func waitStatus(t *testing.T, rawURL string, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := httpGet(t, rawURL)
		if code == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: still %d (%q), want %d", what, code, body, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestReplicationMultiProcess is the CI failover scenario: a leader and
// a follower run as separate OS processes over localhost, the follower
// bootstraps its store over the replication link, writes stream through
// live, the leader is SIGKILLed mid-stream (follower keeps serving its
// last verified view and reports not-ready), a successor leader binds
// the same replication address, and the follower reconnects and
// converges on the post-failover writes without manual intervention.
func TestReplicationMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test: builds the binary and spawns servers")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	nt := filepath.Join(dir, "data.nt")
	if err := os.WriteFile(nt, []byte(sampleNT), 0o644); err != nil {
		t.Fatal(err)
	}
	leaderIdx := filepath.Join(dir, "leader.idx")
	replicaIdx := filepath.Join(dir, "replica.idx")
	runOK(t, "build", "-in", nt, "-layout", "2Tp", "-out", leaderIdx)

	leader := startServe(t, bin, "serve", "-store", leaderIdx,
		"-addr", "127.0.0.1:0", "-replicate-addr", "127.0.0.1:0")
	if leader.replAddr == "" {
		t.Fatal("leader did not announce a replication address")
	}
	// The follower has no store file: it bootstraps over the link.
	follower := startServe(t, bin, "serve", "-store", replicaIdx,
		"-addr", "127.0.0.1:0", "-follow", leader.replAddr)

	insert := func(httpAddr string, i int) (int, string) {
		update := fmt.Sprintf("INSERT DATA { <http://ex/new%d> <http://ex/knows> <http://ex/alice> . }", i)
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Post("http://"+httpAddr+"/sparql", "application/sparql-update", strings.NewReader(update))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for i := 0; i < 8; i++ {
		if code, body := insert(leader.httpAddr, i); code != 200 {
			t.Fatalf("leader insert %d: %d %q", i, code, body)
		}
	}

	// Writes on the replica are refused toward the leader.
	waitStatus(t, "http://"+follower.httpAddr+"/readyz", 200, "follower readiness")
	if code, body := insert(follower.httpAddr, 99); code != http.StatusForbidden {
		t.Fatalf("replica accepted a write: %d %q", code, body)
	}
	// A query naming a term answers 400 until the term exists.
	probe := "http://" + follower.httpAddr + "/sparql?query=" +
		url.QueryEscape("SELECT ?p ?o WHERE { <http://ex/new7> ?p ?o . }")
	waitStatus(t, probe, 200, "replicated triple on follower")

	// Hard failover: SIGKILL, no drain, no WAL close.
	if err := leader.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	leader.cmd.Wait()
	waitStatus(t, "http://"+follower.httpAddr+"/readyz", 503, "follower noticing dead leader")
	if code, body := httpGet(t, probe); code != 200 {
		t.Fatalf("follower stopped serving during failover: %d %q", code, body)
	}

	// Successor leader on the same replication address and store; the
	// follower's backoff loop finds it and resumes.
	leader = startServe(t, bin, "serve", "-store", leaderIdx,
		"-addr", "127.0.0.1:0", "-replicate-addr", leader.replAddr)
	for i := 8; i < 12; i++ {
		if code, body := insert(leader.httpAddr, i); code != 200 {
			t.Fatalf("successor insert %d: %d %q", i, code, body)
		}
	}
	waitStatus(t, "http://"+follower.httpAddr+"/readyz", 200, "follower re-catching up")
	probe = "http://" + follower.httpAddr + "/sparql?query=" +
		url.QueryEscape("SELECT ?p ?o WHERE { <http://ex/new11> ?p ?o . }")
	waitStatus(t, probe, 200, "post-failover triple on follower")

	// Clean shutdown releases the flocks.
	for _, p := range []*serveProc{follower, leader} {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("serve did not exit cleanly: %v", err)
		}
	}
}
