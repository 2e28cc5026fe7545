// Command benchmark is the repository's end-to-end benchmark: it builds a
// store from seeded data, serves it from a separate `rdfstore serve`
// process, loads it over loopback sockets, checks every answer against an
// independent naive evaluator, and prints each metric by name and unit.
// BENCHMARK.json at the repository root is its contract; README.md in
// this directory explains the workloads, the metrics and the ladder.
//
//	go -C benchmark run . --workload point-cold --seed 1 --seconds 12 --trace 0
//	go -C benchmark run . --workload point-cold --seed 1 --seconds 12 --trace 1
//	go -C benchmark run . --agree --seed 1
//
// This half is a black box: it touches the system only through the
// cmd/rdfgen and cmd/rdfstore binaries, HTTP and /proc, and imports no
// package of the repository, so an API refactor cannot stop the
// end-to-end numbers from being produced. The white-box half, the
// per-layer ladder, is the child program in ./ladder.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root
	benchDir string // this module's directory
}

// metric is one measured value, printed as measured.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var agree bool
	flag.StringVar(&cfg.workload, "workload", "", "one of "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the data, the queries and their order")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "seconds of measurement")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the per-layer ladder")
	flag.BoolVar(&agree, "agree", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	if cfg.benchDir, err = os.Getwd(); err == nil {
		cfg.root = filepath.Dir(cfg.benchDir)
		if agree {
			err = runAgree(cfg)
		} else {
			var res *result
			if res, err = run(cfg); err == nil {
				line, _ := json.Marshal(res)
				fmt.Println(string(line))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// setupStarts is how many times a run starts the server to take its
// start-up time; the last start serves the run.
const setupStarts = 15

func run(cfg config) (*result, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("--workload must be one of %v", workloadNames)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	buildDir := filepath.Join(cfg.root, ".bench_build")
	outDir := filepath.Join(cfg.benchDir, "out")
	work := filepath.Join(buildDir, "run-"+strconv.Itoa(os.Getpid()))
	for _, d := range []string{filepath.Join(buildDir, "bin"), outDir, work} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(work)
	if err := buildBinaries(cfg.root, filepath.Join(buildDir, "bin")); err != nil {
		return nil, err
	}
	rdfgen := filepath.Join(buildDir, "bin", "rdfgen")
	rdfstore := filepath.Join(buildDir, "bin", "rdfstore")

	// Data, store and reference evaluator. The store builds in a child
	// process while this one indexes the same triples for the evaluator.
	t0 := time.Now()
	dataPath, storePath := filepath.Join(work, "data.nt"), filepath.Join(work, "store.idx")
	data, err := generate(rdfgen, datasetTriples, cfg.seed, filepath.Join(work, "raw.nt"), dataPath)
	if err != nil {
		return nil, err
	}
	build := exec.Command(rdfstore, "build", "-in", dataPath, "-layout", "2Tp", "-out", storePath)
	buildOut := make(chan error, 1)
	go func() {
		out, err := build.CombinedOutput()
		if err != nil {
			err = fmt.Errorf("rdfstore build: %v: %s", err, out)
		}
		buildOut <- err
	}()
	nv := newNaive(data.triples)
	wl, wlErr := buildWorkload(cfg.workload, nv, rand.New(rand.NewSource(cfg.seed)))
	if err := <-buildOut; err != nil {
		return nil, err
	}
	if wlErr != nil {
		return nil, wlErr
	}
	os.Remove(dataPath)
	storeInfo, err := os.Stat(storePath)
	if err != nil {
		return nil, err
	}
	fmt.Printf("data: %d triples, %d distinct queries, store %d bytes, prepared in %.2fs\n",
		len(data.triples), len(wl.queries), storeInfo.Size(), time.Since(t0).Seconds())

	// Server: started setupStarts times for the start-up time.
	logf, err := os.Create(filepath.Join(outDir, "server-"+wl.name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	// The default invocation, as an operator would type it; mixed-rw only
	// fixes the merge threshold.
	var extra []string
	if wl.mutable {
		extra = []string{"-threshold", strconv.Itoa(mergeThreshold)}
	}
	var startups []float64
	var srv *server
	for i := 0; i < setupStarts; i++ {
		if srv != nil {
			srv.stop()
		}
		if srv, err = startServer(rdfstore, storePath, logf, extra...); err != nil {
			return nil, err
		}
		startups = append(startups, srv.startup.Seconds())
	}
	defer func() { srv.stop() }()
	fmt.Printf("start-up times, exec to /readyz 200: %.4f s\n", startups)

	env := stampEnv(cfg, srv)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	if err := os.WriteFile(filepath.Join(outDir, "env.json"), append(envJSON, '\n'), 0o644); err != nil {
		return nil, err
	}

	// Twice as many connections as processors for the closed loop: with one
	// per processor every request waits out two thread wake-ups with
	// nothing else in flight, the server idles a third of the time, and
	// throughput follows thread placement instead of the work done.
	conns := make([]*conn, 2*env.Nproc)
	for i := range conns {
		conns[i] = newConn()
		defer conns[i].close()
	}
	var wr *writer
	if wl.mutable {
		// One connection writes, the others read.
		if wr, err = probeWriteRoute(conns[len(conns)-1], srv.base); err != nil {
			return nil, err
		}
		conns = conns[:max(1, len(conns)-1)]
		fmt.Printf("write_route %s\n", wr.route)
	}

	// Verification pass, doubling as warm-up: every distinct query once,
	// its rows compared with the naive evaluator's, its body length kept.
	reqs := make([]request, len(wl.queries))
	for i, q := range wl.queries {
		if reqs[i].url, err = url.Parse(srv.base + "/sparql?query=" + url.QueryEscape(q.text(data.vocab))); err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	rows, wrong, firstWrong := verifyAll(conns, reqs, wl.queries, nv, data.vocab)
	fmt.Printf("verified %d distinct queries (%d rows) in %.2fs: %d wrong\n", len(reqs), rows, time.Since(t0).Seconds(), wrong)
	if firstWrong != nil {
		fmt.Printf("first wrong answer: %v\n", firstWrong)
	}
	rss, err := srv.residentBytes()
	if err != nil {
		return nil, err
	}
	before, err := srv.metrics()
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = len(reqs), wrong
	m := &measurement{cfg: cfg, env: env, wl: wl, srv: srv, conns: conns, reqs: reqs, wr: wr, data: data, res: res}
	if wl.mutable {
		m.log = &writeLog{}
		for _, t := range data.triples[:64] {
			m.log.preds = append(m.log.preds, data.vocab.pred(t.p))
		}
	}
	if cfg.trace {
		err = m.traced(outDir, work)
	} else {
		m.timed()
	}
	if err != nil {
		return nil, err
	}
	after, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	hitRatio := cacheHitRatio(before, after)
	lost := 0
	if wl.mutable {
		if lost, err = m.durability(rdfstore, storePath, logf, extra); err != nil {
			return nil, err
		}
		srv = m.srv
	}

	triples := float64(len(data.triples))
	if cfg.trace {
		res.Metrics["result_cache_hit_ratio"] = metric{hitRatio, "ratio"}
	} else {
		fmt.Printf("%-28s %12.4f ratio   (result cache, /metrics delta over the timed phases)\n", "result_cache_hit_ratio", hitRatio)
		fmt.Printf("%-28s %12.0f bytes   (server, from /metrics, beside VmRSS %d)\n", "rdf_heap_inuse_bytes", after["rdf_heap_inuse_bytes"], rss)
		res.Metrics["setup_s"] = metric{quietQuartile(startups, false), "s"}
		res.Metrics["resident_bytes_per_triple"] = metric{float64(rss) / triples, "B/triple"}
		res.Metrics["store_bytes_per_triple"] = metric{float64(storeInfo.Size()) / triples, "B/triple"}
	}
	var wrongLength int64
	for _, c := range conns {
		wrongLength += c.wrongLength.Load()
	}
	if wrongLength > 0 {
		fmt.Printf("%d timed answers had another length than the verified one\n", wrongLength)
	}
	res.Correct = wrong == 0 && lost == 0 && wrongLength == 0
	printMetrics(res)
	fmt.Printf("failed_share %.6f (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// verifyAll requests every distinct query once, spread over the
// connections, and compares each decoded answer with the naive
// evaluator's. It fills in the body length the timed phases check.
func verifyAll(conns []*conn, reqs []request, queries []query, nv *naive, v *vocab) (rows, wrong int, first error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(reqs); i += len(conns) {
				if err := verifyOne(c, &reqs[i], queries[i], nv, v); err != nil {
					mu.Lock()
					wrong++
					if first == nil {
						first = fmt.Errorf("%s: %w", queries[i].text(v), err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range reqs {
		rows += r.rows
	}
	return rows, wrong, first
}

func verifyOne(c *conn, r *request, q query, nv *naive, v *vocab) error {
	status, body, n, err := c.get(r, true)
	if err != nil {
		return err
	}
	r.wantBody = n
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	got, err := decodeRows(body, q.vars)
	if err != nil {
		return err
	}
	r.rows = len(got)
	want, _, _ := nv.eval(q, -1)
	return sameRows(got, renderRows(want, v))
}

// sortedNames lists a metric map's names in order.
func sortedNames(metrics map[string]metric) []string {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func printMetrics(res *result) {
	for _, name := range sortedNames(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("%-28s %12.4f %s\n", name, m.Value, m.Unit)
	}
}

// measurement is the state the timed and traced runs share.
type measurement struct {
	cfg   config
	env   envStamp
	wl    *workload
	srv   *server
	conns []*conn
	reqs  []request
	wr    *writer
	log   *writeLog
	data  *dataset
	res   *result
}

// slices is how many times a timed run alternates between its closed
// and its open loop. Alternating spreads each metric's samples over the
// whole run, so that a few seconds of outside interference hit some
// slices of both instead of all of one (see quietQuartile).
const runSlices = 8

// timed is the end-to-end run, tracing off. It alternates slices of a
// closed loop for throughput (two fifths of --seconds in all) with slices
// of an open loop at the workload's fixed arrival rate for latency (three
// fifths). On mixed-rw one more connection sends writes at a fixed rate
// all the way through.
func (m *measurement) timed() {
	closedDur := time.Duration(0.4 * m.cfg.seconds * float64(time.Second) / runSlices)
	openDur := time.Duration(0.6 * m.cfg.seconds * float64(time.Second) / runSlices)

	writes := m.writesDuring(runSlices * (closedDur + openDur))

	// One open-loop worker per processor: a worker polls the clock until
	// its request is due, and more pollers than processors would keep the
	// server off them.
	workers := min(len(m.conns), m.env.Nproc)
	rate := openRate[m.wl.name]
	var closed closedResult
	var open openResult
	var rates, medians []float64
	next := 0 // position in the request order
	for s := 0; s < runSlices; s++ {
		c := closedLoop(m.conns, m.reqs, m.wl.order, next, closedDur)
		next += c.completed + c.failed
		closed.completed += c.completed
		closed.failed += c.failed
		closed.rows += c.rows
		closed.seconds += c.seconds
		rates = append(rates, float64(c.completed)/c.seconds)

		from := next
		o := openLoop(wallClock{}, workers, rate, int(rate*openDur.Seconds()), openDur*3/2, func(w, i int) bool {
			return m.conns[w].ok(&m.reqs[m.wl.order[(from+i)%len(m.wl.order)]])
		})
		next += o.attempted
		medians = append(medians, summarize(o.latencies).p50)
		open.latencies = append(open.latencies, o.latencies...)
		open.attempted += o.attempted
		open.late += o.late
		open.failed += o.failed
		open.dropped += o.dropped
	}
	written := writes()

	lat := summarize(open.latencies)
	fmt.Printf("closed loop: %d clients, %d slices, %d completed, %d failed in %.2fs; per slice %.0f /s\n",
		len(m.conns), runSlices, closed.completed, closed.failed, closed.seconds, rates)
	fmt.Printf("open loop: %.0f/s over %d connections, %d slices, %d attempted, %d failed, %d dropped, late_share %.4f, %s; per slice p50 %.3f ms\n",
		rate, workers, runSlices, open.attempted, open.failed, open.dropped, float64(open.late)/float64(open.attempted), lat, medians)
	m.res.Attempted += closed.completed + closed.failed + open.attempted
	m.res.Failed += closed.failed + open.failed + open.dropped
	m.res.Metrics["qps"] = metric{quietQuartile(rates, true), "1/s"}
	m.res.Metrics["p50_ms"] = metric{quietQuartile(medians, false), "ms"}
	if lat.tailName != "" {
		fmt.Printf("%-28s %12.4f ms      (informational: open-loop tail over all slices, %s)\n", "tail_ms", lat.tail, lat.tailName)
	}
	fmt.Printf("%-28s %12.0f 1/s     (informational: rows of the closed loop's answers, all slices)\n", "rows_per_s", float64(closed.rows)/closed.seconds)
	if m.wl.mutable {
		m.reportWrites(written)
	}
}

// writesDuring starts mixed-rw's writer for d beside whatever the caller
// does next, and returns the function that waits for it. On a read-only
// workload there is nothing to start or wait for.
func (m *measurement) writesDuring(d time.Duration) (wait func() openResult) {
	if !m.wl.mutable {
		return func() openResult { return openResult{} }
	}
	done := make(chan openResult, 1)
	go func() { done <- m.sendWrites(d) }()
	return func() openResult { return <-done }
}

// sendWrites runs the open-loop writer for d on its own connection.
func (m *measurement) sendWrites(d time.Duration) openResult {
	n := int(writeRate * d.Seconds())
	m.log.acked = make([]bool, n)
	m.log.deleted = make([]bool, n)
	return openLoop(wallClock{}, 1, writeRate, n, d*3/2, func(_, k int) bool {
		insert, i := m.log.op(k)
		s, p, o := writeTriple(i, m.log.pred(i))
		if err := m.wr.writeOp(insert, s, p, o); err != nil {
			return false
		}
		if insert {
			m.log.acked[i] = true
		} else {
			m.log.deleted[i] = true
		}
		return true
	})
}

func (m *measurement) reportWrites(w openResult) {
	lat := summarize(w.latencies)
	fmt.Printf("writes: %.0f/s on one connection, %d attempted, %d failed, %d dropped, late_share %.4f, %s\n",
		writeRate, w.attempted, w.failed, w.dropped, float64(w.late)/float64(max(1, w.attempted)), lat)
	m.res.Attempted += w.attempted
	m.res.Failed += w.failed + w.dropped
	if m.cfg.trace {
		m.res.Metrics["write_p50_ms"] = metric{lat.p50, "ms"}
		m.res.Metrics["write_tail_ms"] = metric{lat.tail, "ms"}
	} else {
		fmt.Printf("%-28s %12.4f ms      (informational)\n", "write_p50_ms", lat.p50)
		fmt.Printf("%-28s %12.4f ms      (informational: %s)\n", "write_tail_ms", lat.tail, lat.tailName)
	}
	if body, err := httpGet(m.srv.base + "/stats"); err == nil {
		var st struct {
			Merges int `json:"merges"`
		}
		if json.Unmarshal(body, &st) == nil {
			fmt.Printf("%-28s %12d count   (threshold merges completed, from /stats)\n", "merges", st.Merges)
			if m.cfg.trace {
				m.res.Metrics["merges"] = metric{float64(st.Merges), "count"}
			}
		}
	}
}

// durability checks that every acknowledged write is readable, then
// kills the server with SIGKILL, restarts it on the same files and checks
// again. The kill leaves the operating system's page cache intact, so
// this exercises WAL replay, not fsync.
func (m *measurement) durability(rdfstore, storePath string, logw io.Writer, extra []string) (lost int, err error) {
	c := m.conns[0]
	checked, wrong, first := m.log.check(c, m.srv.base)
	fmt.Printf("read back %d acknowledged writes before the crash: %d wrong\n", checked, wrong)
	m.srv.kill()
	if m.srv, err = startServer(rdfstore, storePath, logw, extra...); err != nil {
		return 0, err
	}
	c.close()
	checked, lost, firstLost := m.log.check(c, m.srv.base)
	fmt.Printf("%-28s %12d count   (of %d acknowledged writes, after SIGKILL and restart in %.3fs)\n",
		"acked_writes_lost", lost, checked, m.srv.startup.Seconds())
	if first == nil {
		first = firstLost
	}
	if first != nil {
		fmt.Printf("first lost write: %v\n", first)
	}
	m.res.Attempted += 2 * checked
	m.res.Failed += wrong + lost
	return wrong + lost, nil
}
