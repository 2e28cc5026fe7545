package bench

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/gen"
	"rdfindexes/internal/repl"
	"rdfindexes/internal/store"
)

// replFollowerCounts are the fan-out widths of the replication
// experiment.
var replFollowerCounts = []int{1, 2, 4, 8}

// replClientsPerFollower is the reader fleet driving each replica while
// the aggregate throughput is measured.
const replClientsPerFollower = 2

// ReplFanOut measures WAL-shipping replication end to end on a 2Tp
// store: the time to bootstrap N followers over full-snapshot streams,
// the leader's write throughput while shipping to all of them, the lag
// from the last acknowledged write until every follower has applied it,
// and the aggregate read throughput of the replica fleet. Each follower
// owns a full copy, so reads should scale near-linearly with N — the
// Broccoli-style many-cheap-frontends serving shape — while the
// shipping overhead on the write path stays flat (the hub fans one
// event log out to every subscriber).
func ReplFanOut(cfg Config) ([]*Table, error) {
	cfg = cfg.normalize()
	d, err := gen.GeneratePreset("dbpedia", cfg.Triples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pats := ParallelWorkload(d, cfg.Queries, cfg.Seed+11)
	writes := updateStream(d, cfg.Queries, cfg.Seed+12)

	dir, err := os.MkdirTemp("", "replbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	x, err := core.Build(d, core.Layout2Tp)
	if err != nil {
		return nil, err
	}
	// The writes name their terms by raw ID, fresh subjects and objects
	// past d's ID spaces included; the SO dictionary covers those too, so
	// every insert resolves to a term.
	no := d.NO
	for _, t := range writes {
		no = max(no, int(t.S)+1, int(t.O)+1)
	}
	dicts, err := SynthDicts(&core.Dataset{NS: d.NS, NP: d.NP, NO: no})
	if err != nil {
		return nil, err
	}
	pristine := filepath.Join(dir, "pristine.idx")
	if err := store.Write(pristine, &store.Store{Index: x, Dicts: dicts}); err != nil {
		return nil, err
	}
	pristineBytes, err := os.ReadFile(pristine)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Replication fan-out: one leader shipping its WAL to N read replicas",
		Note: fmt.Sprintf("%s base triples, %d writes shipped, %d reader goroutines per replica",
			N(d.Len()), len(writes), replClientsPerFollower),
		Header: []string{"followers", "bootstrap ms", "writes/sec", "lag ms", "agg read q/s", "scaling"},
	}
	var baseRead float64
	for _, n := range replFollowerCounts {
		// Each width gets a fresh leader copy: reusing one store would turn
		// the repeated write stream into WAL-less no-ops from the second
		// run on, and nothing would ship.
		leaderPath := filepath.Join(dir, fmt.Sprintf("leader%d.idx", n))
		if err := os.WriteFile(leaderPath, pristineBytes, 0o644); err != nil {
			return nil, err
		}
		boot, wps, lag, read, err := replRun(dir, leaderPath, n, writes, pats)
		if err != nil {
			return nil, err
		}
		if baseRead == 0 {
			baseRead = read
		}
		t.Add(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", float64(boot.Microseconds())/1000),
			F(wps),
			fmt.Sprintf("%.1f", float64(lag.Microseconds())/1000),
			F(read),
			F(read/baseRead))
	}
	return []*Table{t}, nil
}

// replRun stands up one leader + n followers, drives the write stream,
// and returns bootstrap time, leader writes/sec while shipping,
// post-write convergence lag, and the fleet's aggregate read q/s.
func replRun(dir, leaderPath string, n int, writes []core.Triple, pats []core.Pattern) (boot time.Duration, wps float64, lag time.Duration, readQPS float64, err error) {
	m, err := store.OpenMutable(leaderPath, -1)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer m.Close()
	leader, err := repl.NewLeader(m, repl.LeaderOptions{HeartbeatInterval: 10 * time.Millisecond})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		leader.Close()
		return 0, 0, 0, 0, err
	}
	go leader.Serve(ln)
	defer leader.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := repl.FollowerOptions{
		ReadTimeout: time.Second,
		BackoffMin:  time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
	followers := make([]*repl.Follower, n)
	bootStart := time.Now()
	for i := range followers {
		path := filepath.Join(dir, fmt.Sprintf("replica%d_of_%d.idx", i, n))
		f, ferr := repl.OpenFollower(path, ln.Addr().String(), opts)
		if ferr != nil {
			return 0, 0, 0, 0, ferr
		}
		followers[i] = f
		defer f.Close()
		go f.Run(ctx)
	}
	for !replAllReady(followers) {
		time.Sleep(time.Millisecond)
	}
	boot = time.Since(bootStart)

	wstart := time.Now()
	for _, tr := range writes {
		if _, werr := m.Insert(
			fmt.Sprintf("%d", tr.S), fmt.Sprintf("%d", tr.P), fmt.Sprintf("%d", tr.O)); werr != nil {
			return 0, 0, 0, 0, werr
		}
	}
	wps = float64(len(writes)) / time.Since(wstart).Seconds()
	target := m.WALSeq()
	lstart := time.Now()
	for {
		caught := true
		for _, f := range followers {
			if f.Mutable().WALSeq() < target {
				caught = false
				break
			}
		}
		if caught {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	lag = time.Since(lstart)

	qps := make([]float64, n)
	var wg sync.WaitGroup
	for i, f := range followers {
		wg.Add(1)
		go func(i int, st *store.Store) {
			defer wg.Done()
			qps[i] = ThroughputAt(st.Index, pats, replClientsPerFollower, 2)
		}(i, f.Mutable().View())
	}
	wg.Wait()
	for _, q := range qps {
		readQPS += q
	}
	return boot, wps, lag, readQPS, nil
}

// replAllReady reports whether every follower is connected and caught
// up to the leader's commit offset.
func replAllReady(fs []*repl.Follower) bool {
	for _, f := range fs {
		if !f.Ready() {
			return false
		}
	}
	return true
}
