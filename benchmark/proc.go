package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildBinaries compiles the two commands the benchmark drives as black
// boxes. The repository root is the parent of the benchmark's module.
func buildBinaries(root, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/rdfgen", "./cmd/rdfstore")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/rdfgen and cmd/rdfstore in %s: %v\n%s", root, err, out)
	}
	return nil
}

// server is one `rdfstore serve` child process.
type server struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	startup time.Duration // exec -> first /readyz 200
	exited  chan struct{} // closed once the process has ended
}

// startServer execs `rdfstore serve` on a free loopback port and waits for
// /readyz to answer 200. The time from exec to that answer is what an
// operator pays per restart: store.Read, the checksum pass, the Locate
// hash build and, on a mutable store, WAL replay.
func startServer(bin, storePath string, logw io.Writer, extra ...string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	args := append([]string{"serve", "-store", storePath, "-addr", addr}, extra...)
	s := &server{cmd: exec.Command(bin, args...), base: "http://" + addr, exited: make(chan struct{})}
	s.cmd.Stdout, s.cmd.Stderr = logw, logw
	// Should this process die without running its deferred stop, the
	// kernel ends the server with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()

	probe := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.startup = time.Since(t0)
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("rdfstore serve exited before it was ready: %v", s.cmd.ProcessState)
		default:
		}
		if time.Since(t0) > 60*time.Second {
			s.kill()
			return nil, fmt.Errorf("rdfstore serve not ready after 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks for a graceful shutdown and waits for the process to end.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.kill()
	}
}

// kill ends the process with SIGKILL, the crash the durability check
// simulates: the WAL's last records are only in the OS page cache.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// residentBytes reads VmRSS from /proc/<pid>/status.
func (s *server) residentBytes() (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// metrics scrapes /metrics into a map keyed by the sample's full name,
// labels included, e.g. `rdf_cache_events_total{cache="result",event="hit"}`.
func (s *server) metrics() (map[string]float64, error) {
	body, err := httpGet(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// cacheHitRatio is the result cache's hits / (hits + misses) between two
// /metrics scrapes.
func cacheHitRatio(before, after map[string]float64) float64 {
	const hit = `rdf_cache_events_total{cache="result",event="hit"}`
	const miss = `rdf_cache_events_total{cache="result",event="miss"}`
	h := after[hit] - before[hit]
	m := after[miss] - before[miss]
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}
