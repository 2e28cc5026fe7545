package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// ladderJob and ladderReport mirror the input and output types of
// ./ladder; JSON is the only thing the two halves share.
type ladderJob struct {
	Workload   string      `json:"workload"`
	Store      string      `json:"store"`
	Mutable    bool        `json:"mutable"`
	Threshold  int         `json:"threshold"`
	Cached     bool        `json:"cached"`
	Queries    []string    `json:"queries"`
	Bodies     []int64     `json:"bodies"`
	Order      []int32     `json:"order"`
	Seconds    float64     `json:"seconds"`
	Writes     [][3]string `json:"writes"`
	WriteEvery int         `json:"write_every"`
	TraceOut   string      `json:"trace_out"`
}

type ladderReport struct {
	Requests     int     `json:"requests"`
	HandlerOnUs  float64 `json:"handler_on_us"`
	HandlerOffUs float64 `json:"handler_off_us"`
	Rungs        []struct {
		Name   string  `json:"name"`
		Layer  string  `json:"layer"`
		Calls  int     `json:"calls"`
		SelfUs float64 `json:"self_us"`
	} `json:"rungs"`
	Metrics map[string]metric `json:"metrics"`
	Notes   []string          `json:"notes"`
}

// layers are the modules that get a rung, from the socket inwards.
var layers = []string{"server", "store", "sparql", "core", "dict", "results"}

// perLayerMetrics lists every metric a traced run reports, with its unit:
// the names BENCHMARK.json's per_layer section carries. A metric that
// does not apply to a workload (a write metric on a read-only one, an
// execution rung on the cache-hit one) is reported as 0.
var perLayerMetrics = [][2]string{
	{"socket_mean_us", "us"}, {"unaccounted_us", "us"}, {"trace_overhead", "ratio"},
	{"rung_server_us", "us"}, {"rung_store_us", "us"}, {"rung_sparql_us", "us"},
	{"rung_core_us", "us"}, {"rung_dict_us", "us"}, {"rung_results_us", "us"},
	{"result_cache_hit_ratio", "ratio"},
	{"store_translate_us", "us/query"}, {"store_locates_per_query", "count"}, {"store_read_s", "s"},
	{"sparql_parse_us", "us/query"}, {"sparql_plan_us", "us/query"},
	{"sparql_exec_self_us_per_row", "us/row"}, {"sparql_scanned_per_row", "ratio"},
	{"core_ns_per_triple", "ns/triple"}, {"core_patterns_per_query", "count"}, {"core_bits_per_triple", "bits/triple"},
	{"trie_findchild1_ns", "ns/op"}, {"trie_findchild2_ns", "ns/op"},
	{"seq_level2_nextbatch_ns", "ns/value"}, {"seq_level2_nextgeq_ns", "ns/op"},
	{"seq_level3_nextbatch_ns", "ns/value"}, {"seq_level3_nextgeq_ns", "ns/op"},
	{"dict_extract_ns_per_term", "ns/term"}, {"dict_bytes_per_term", "B/term"}, {"dict_locate_ns_per_term", "ns/term"},
	{"results_self_ns_per_row", "ns/row"},
	{"results_json_ns_per_row", "ns/row"}, {"results_json_bytes_per_row", "B/row"}, {"results_json_allocs_per_row", "count"},
	{"write_p50_ms", "ms"}, {"write_tail_ms", "ms"}, {"merges", "count"},
	{"store_insert_us_per_write", "us/write"}, {"store_wal_bytes_per_write", "B/write"},
	{"store_merges", "count"}, {"store_merge_s", "s/merge"}, {"store_rewritten_per_user_byte", "ratio"},
}

// readsPerWrite is how many reads the ladder replays between two writes
// on mixed-rw: the ratio of the workload's open-loop read and write rates.
var readsPerWrite = int(openRate["mixed-rw"] / writeRate)

// traced is the per-layer run. Its socket half replays the request order
// over one connection (with mixed-rw's writer beside it), which gives the
// mean a client sees with nothing queued; its in-process half is the
// ladder child, which splits the handler's share of that mean into
// layers. What the layers do not explain is printed as unaccounted_us:
// kernel, net/http and scheduling.
func (m *measurement) traced(outDir, work string) error {
	job := ladderJob{
		Workload:   m.wl.name,
		Store:      filepath.Join(work, "store.idx"),
		Mutable:    m.wl.mutable,
		Threshold:  mergeThreshold,
		Cached:     len(m.wl.queries) <= resultCacheEntries,
		Order:      m.wl.order,
		Seconds:    0.5 * m.cfg.seconds,
		WriteEvery: readsPerWrite,
		TraceOut:   filepath.Join(outDir, "trace.json"),
	}
	for i, q := range m.wl.queries {
		job.Queries = append(job.Queries, q.text(m.data.vocab))
		job.Bodies = append(job.Bodies, m.reqs[i].wantBody)
	}
	if m.wl.mutable {
		// The ladder writes too: it gets its own copy of the store, taken
		// before the socket half's writes reach the file.
		job.Store = filepath.Join(work, "ladder.idx")
		if err := copyFile(filepath.Join(work, "store.idx"), job.Store); err != nil {
			return err
		}
		for i := 0; i < 4096; i++ {
			s, p, o := writeTriple(i, m.log.pred(i))
			job.Writes = append(job.Writes, [3]string{s, p, o})
		}
	}

	d := time.Duration(0.3 * m.cfg.seconds * float64(time.Second))
	writes := m.writesDuring(d)
	socket := closedLoop(m.conns[:1], m.reqs, m.wl.order, 0, d)
	written := writes()
	socketUs := socket.seconds * 1e6 / float64(max(1, socket.completed))
	fmt.Printf("socket replay: 1 connection, %d completed, %d failed in %.2fs\n", socket.completed, socket.failed, socket.seconds)
	m.res.Attempted += socket.completed + socket.failed
	m.res.Failed += socket.failed
	for _, pm := range perLayerMetrics {
		m.res.Metrics[pm[0]] = metric{0, pm[1]}
	}
	m.res.Metrics["socket_mean_us"] = metric{socketUs, "us"}
	if m.wl.mutable {
		m.reportWrites(written)
	}

	rep, err := runLadder(m.cfg.benchDir, filepath.Join(m.cfg.root, ".bench_build", "bin", "ladder"), job, work)
	if err != nil {
		// The white-box half is allowed to rot with an API refactor; the
		// socket-side numbers above do not depend on it.
		fmt.Printf("ladder unavailable: %v\n", err)
		return nil
	}
	m.printLadder(rep, socketUs)
	return nil
}

// runLadder builds and runs the ladder child on the job.
func runLadder(benchDir, bin string, job ladderJob, work string) (*ladderReport, error) {
	build := exec.Command("go", "build", "-o", bin, "./ladder")
	build.Dir = benchDir
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./ladder: %v: %s", err, bytes.TrimSpace(out))
	}
	jobPath := filepath.Join(work, "ladder-job.json")
	data, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(jobPath, data, 0o644); err != nil {
		return nil, err
	}
	var stdout, stderr bytes.Buffer
	run := exec.Command(bin, jobPath)
	run.Stdout, run.Stderr = &stdout, &stderr
	if err := run.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var rep ladderReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("decoding the ladder's report: %w", err)
	}
	return &rep, nil
}

func (m *measurement) printLadder(rep *ladderReport, socketUs float64) {
	fmt.Printf("\nladder: %s, %d requests replayed in process, spans on; socket mean %.2f us\n", m.wl.name, rep.Requests, socketUs)
	fmt.Printf("  %-16s %-8s %9s %14s %7s\n", "rung", "layer", "calls", "self us/req", "share")
	byLayer := map[string]float64{}
	for _, r := range rep.Rungs {
		fmt.Printf("  %-16s %-8s %9d %14.3f %6.1f%%\n", r.Name, r.Layer, r.Calls, r.SelfUs, 100*r.SelfUs/socketUs)
		byLayer[r.Layer] += r.SelfUs
	}
	unaccounted := socketUs - rep.HandlerOnUs
	fmt.Printf("  %-16s %-8s %9s %14.3f %6.1f%%   (kernel, net/http, scheduling)\n", "unaccounted_us", "socket", "", unaccounted, 100*unaccounted/socketUs)
	fmt.Printf("  %-16s %-8s %9s %14.3f %6.1f%%\n", "socket mean", "", "", socketUs, 100.0)
	fmt.Printf("  handler mean: %.3f us with spans on, %.3f us with spans off\n", rep.HandlerOnUs, rep.HandlerOffUs)
	for _, n := range rep.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Println()
	// Metrics of BENCHMARK.json's per_layer list go into the result; the
	// rest (the other result formats) are printed only.
	for _, name := range sortedNames(rep.Metrics) {
		v := rep.Metrics[name]
		if _, listed := m.res.Metrics[name]; listed {
			m.res.Metrics[name] = v
		} else {
			fmt.Printf("%-28s %12.4f %s\n", name, v.Value, v.Unit)
		}
	}
	for _, l := range layers {
		m.res.Metrics["rung_"+l+"_us"] = metric{byLayer[l], "us"}
	}
	m.res.Metrics["unaccounted_us"] = metric{unaccounted, "us"}
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
