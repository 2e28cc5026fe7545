// Command ladder is the white-box half of the benchmark: it replays a
// workload's verified request list single-threaded and in process, with a
// span around every call into a layer (the calls themselves live in
// layers.go), and reports each layer's self time per request. The driver
// in the parent directory runs it as a child for `--trace 1`, adds the
// socket-level mean, and prints the ladder.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"time"
)

// input is the job the driver writes for the ladder.
type input struct {
	Workload  string   `json:"workload"`
	Store     string   `json:"store"`     // store file (a private copy when Mutable)
	Mutable   bool     `json:"mutable"`   // serve through the write path and interleave Writes
	Threshold int      `json:"threshold"` // merge threshold when Mutable
	Cached    bool     `json:"cached"`    // every timed request hits the warm result cache
	Queries   []string `json:"queries"`   // distinct query texts
	Bodies    []int64  `json:"bodies"`    // verified body length of each query
	Order     []int32  `json:"order"`     // request sequence, indexes into Queries
	Seconds   float64  `json:"seconds"`   // time budget
	// Writes are triples to insert, one after every WriteEvery requests;
	// every fourth write deletes the triple inserted three writes before.
	Writes     [][3]string `json:"writes"`
	WriteEvery int         `json:"write_every"`
	TraceOut   string      `json:"trace_out"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rung is one layer's share of a request.
type rung struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Calls  int     `json:"calls"`
	SelfUs float64 `json:"self_us"` // self time per request, in microseconds
}

// output is what the ladder prints, as one JSON line.
type output struct {
	Requests     int               `json:"requests"`
	HandlerOnUs  float64           `json:"handler_on_us"`  // handler mean with spans recorded
	HandlerOffUs float64           `json:"handler_off_us"` // handler mean with spans off
	Rungs        []rung            `json:"rungs"`
	Metrics      map[string]metric `json:"metrics"`
	Notes        []string          `json:"notes"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ladder job.json")
		os.Exit(2)
	}
	out, err := run(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		os.Exit(1)
	}
	json.NewEncoder(os.Stdout).Encode(out)
}

// discard is the response recorder: it keeps the status and counts the
// body, and allocates a header map per request as net/http does.
type discard struct {
	h      http.Header
	status int
	n      int64
}

func (d *discard) Header() http.Header { return d.h }
func (d *discard) WriteHeader(s int)   { d.status = s }
func (d *discard) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.n += int64(len(p))
	return len(p), nil
}

type ladder struct {
	in   input
	sys  *system
	tr   *tracer
	reqs []*http.Request // one per distinct query
	out  *output

	// Totals over the spans-on pass, for the per-layer ratios.
	rows, matched, patterns, triples int
	terms, termBytes, constants      int

	// The write path (mutable serving only).
	writes, merges                             int
	writeTime, mergeTime                       time.Duration
	walBytes, walWritten, rewritten, userBytes int64
}

func run(jobPath string) (*output, error) {
	data, err := os.ReadFile(jobPath)
	if err != nil {
		return nil, err
	}
	l := &ladder{tr: &tracer{}, out: &output{Metrics: map[string]metric{}}}
	if err := json.Unmarshal(data, &l.in); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if l.sys, err = openSystem(l.in.Store, l.in.Mutable, l.in.Threshold); err != nil {
		return nil, err
	}
	l.out.Metrics["store_read_s"] = metric{time.Since(t0).Seconds(), "s"}
	l.out.Metrics["core_bits_per_triple"] = metric{l.sys.bitsPerTriple(), "bits/triple"}
	for _, q := range l.in.Queries {
		r := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(q), nil)
		r.Header.Set("Accept", "application/sparql-results+json")
		l.reqs = append(l.reqs, r)
	}

	// Spans on: the ladder proper, for as many requests as the budget
	// allows. Spans off: the same requests again through a fresh handler,
	// which prices the recording itself.
	budget := time.Duration(l.in.Seconds * float64(time.Second))
	if err := l.warm(); err != nil {
		return nil, err
	}
	l.tr.on = true
	n, err := l.pass(len(l.in.Order), time.Now().Add(budget*6/10))
	if err != nil {
		return nil, err
	}
	l.tr.on = false
	l.summarize(n)
	if !l.in.Mutable {
		// A second pass over a mutable store would replay writes the first
		// already applied; its handler cost with spans off is not measured.
		l.sys.resetHandler()
		if err := l.warm(); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := l.pass(n, time.Time{}); err != nil {
			return nil, err
		}
		l.out.HandlerOffUs = us(time.Since(start)) / float64(n)
		l.out.Metrics["trace_overhead"] = metric{l.out.HandlerOnUs/l.out.HandlerOffUs - 1, "ratio"}
		l.perFormat(n)
		l.microRungs()
	} else {
		l.out.HandlerOffUs = l.out.HandlerOnUs
		l.out.Notes = append(l.out.Notes, "mutable store: spans-off pass, per-format and trie/seq rungs skipped (writes cannot be replayed twice; a dynamic snapshot keeps no tries)")
	}
	if err := l.tr.write(l.in.TraceOut, l.in.Workload); err != nil {
		return nil, err
	}
	return l.out, l.sys.close()
}

// warm fills the result cache for a workload whose timed requests all hit.
func (l *ladder) warm() error {
	if !l.in.Cached {
		return nil
	}
	for i := range l.reqs {
		if _, err := l.handler(i, 0); err != nil {
			return err
		}
	}
	return nil
}

// handler serves request q through Server.ServeHTTP under a root span and
// checks the answer's status and length against the socket run's.
func (l *ladder) handler(q, req int) (int32, error) {
	w := &discard{h: make(http.Header, 8)}
	id := l.tr.begin("handler", noParent, req)
	l.sys.serve(w, l.reqs[q])
	l.tr.end(id)
	if w.status != http.StatusOK || w.n != l.in.Bodies[q] {
		return id, fmt.Errorf("in-process answer to %q: status %d, %d bytes; the socket run verified 200, %d bytes",
			l.in.Queries[q], w.status, w.n, l.in.Bodies[q])
	}
	return id, nil
}

// pass replays up to max requests of the order, stopping at the deadline
// (zero: none), and returns how many it replayed. With spans on, each
// request is followed by a replay of the stages the handler went through,
// each under its own span and parented so that self times add up to the
// handler's: handler > {store.translate, sparql.parse, sparql.plan,
// results.write > {sparql.exec > core.select, dict.extract}}.
func (l *ladder) pass(max int, deadline time.Time) (int, error) {
	writes := 0
	for n := 0; n < max; n++ {
		if !deadline.IsZero() && n >= 16 && time.Now().After(deadline) {
			return n, nil
		}
		if l.in.Mutable && l.in.WriteEvery > 0 && n%l.in.WriteEvery == l.in.WriteEvery-1 && writes < len(l.in.Writes) {
			if err := l.write(writes); err != nil {
				return n, err
			}
			writes++
		}
		q := int(l.in.Order[n%len(l.in.Order)])
		root, err := l.handler(q, n)
		if err != nil {
			return n, err
		}
		if !l.tr.on {
			continue
		}
		if err := l.stages(q, root, n); err != nil {
			return n, fmt.Errorf("replaying %q: %w", l.in.Queries[q], err)
		}
	}
	return max, nil
}

func (l *ladder) stages(q int, root int32, req int) error {
	id := l.tr.begin("store.translate", root, req)
	p, err := l.sys.translate(l.in.Queries[q])
	l.tr.end(id)
	if err != nil {
		return err
	}
	id = l.tr.begin("sparql.parse", root, req)
	err = p.parse()
	l.tr.end(id)
	if err != nil {
		return err
	}
	l.constants += p.constants()
	if l.in.Cached {
		return nil // a cache hit ends here: no plan, no execution, no rows
	}
	id = l.tr.begin("sparql.plan", root, req)
	p.plan()
	l.tr.end(id)

	write := l.tr.begin("results.write", root, req)
	_, err = p.execRender(formats()[0], io.Discard)
	l.tr.end(write)
	if err != nil {
		return err
	}
	exec := l.tr.begin("sparql.exec", write, req)
	st, err := p.exec(nil)
	l.tr.end(exec)
	if err != nil {
		return err
	}
	sel, err := p.decompose()
	if err != nil {
		return err
	}
	id = l.tr.begin("core.select", exec, req)
	l.triples += sel.replay()
	l.tr.end(id)
	ids, err := p.resultIDs()
	if err != nil {
		return err
	}
	x := p.extractor()
	id = l.tr.begin("dict.extract", write, req)
	l.termBytes += x.extract(ids)
	l.tr.end(id)

	l.rows += st.rows
	l.matched += st.matched
	l.patterns += len(sel.pats)
	l.terms += len(ids)
	return nil
}

// summarize turns the recorded spans into rungs and per-layer ratios.
func (l *ladder) summarize(n int) {
	l.out.Requests = n
	self, calls := l.tr.selfTimes()
	for _, name := range spanOrder {
		if calls[name] == 0 {
			continue
		}
		l.out.Rungs = append(l.out.Rungs, rung{name, layerOf[name], calls[name], us(self[name]) / float64(n)})
		l.out.HandlerOnUs += us(self[name]) / float64(n)
	}
	total := func(name string) float64 { return us(l.tr.total(name)) }
	per := func(a float64, b int) float64 {
		if b == 0 {
			return 0
		}
		return a / float64(b)
	}
	m := l.out.Metrics
	m["store_translate_us"] = metric{per(total("store.translate"), n), "us/query"}
	m["store_locates_per_query"] = metric{per(float64(l.constants), n), "count"}
	m["sparql_parse_us"] = metric{per(total("sparql.parse"), n), "us/query"}
	m["sparql_plan_us"] = metric{per(total("sparql.plan"), n), "us/query"}
	m["sparql_exec_self_us_per_row"] = metric{per(us(self["sparql.exec"]), l.rows), "us/row"}
	m["sparql_scanned_per_row"] = metric{per(float64(l.matched), l.rows), "ratio"}
	m["core_ns_per_triple"] = metric{per(total("core.select")*1e3, l.triples), "ns/triple"}
	m["core_patterns_per_query"] = metric{per(float64(l.patterns), n), "count"}
	m["dict_extract_ns_per_term"] = metric{per(total("dict.extract")*1e3, l.terms), "ns/term"}
	m["dict_bytes_per_term"] = metric{per(float64(l.termBytes), l.terms), "B/term"}
	m["results_self_ns_per_row"] = metric{per(us(self["results.write"])*1e3, l.rows), "ns/row"}
	if l.in.Mutable {
		m["store_insert_us_per_write"] = metric{per(us(l.writeTime), l.writes-l.merges), "us/write"}
		m["store_wal_bytes_per_write"] = metric{per(float64(l.walWritten), l.writes-l.merges), "B/write"}
		m["store_merges"] = metric{float64(l.merges), "count"}
		m["store_merge_s"] = metric{per(l.mergeTime.Seconds(), l.merges), "s/merge"}
		m["store_rewritten_per_user_byte"] = metric{per(float64(l.rewritten), int(l.userBytes)), "ratio"}
	}
}

// perFormat measures the results writer alone, per format, over the first
// requests of the order: execution into the writer minus execution into
// a no-op, per row, with the bytes written and the allocations made.
func (l *ladder) perFormat(n int) {
	if l.in.Cached {
		return
	}
	type prep struct {
		p    *prepared
		rows int
	}
	var ps []prep
	var rows int
	deadline := time.Now().Add(time.Duration(l.in.Seconds * float64(time.Second) / 10))
	var execOnly time.Duration
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		p, err := l.sys.translate(l.in.Queries[l.in.Order[i%len(l.in.Order)]])
		if err != nil || p.parse() != nil {
			continue
		}
		p.plan()
		t0 := time.Now()
		st, err := p.exec(nil)
		execOnly += time.Since(t0)
		if err != nil {
			continue
		}
		ps = append(ps, prep{p, st.rows})
		rows += st.rows
	}
	if rows == 0 {
		return
	}
	for _, f := range formats() {
		var w countingWriter
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for _, p := range ps {
			p.p.execRender(f, &w)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		self := max(0, float64(d-execOnly))
		l.out.Metrics["results_"+f+"_ns_per_row"] = metric{self / float64(rows), "ns/row"}
		l.out.Metrics["results_"+f+"_bytes_per_row"] = metric{float64(w.n) / float64(rows), "B/row"}
		l.out.Metrics["results_"+f+"_allocs_per_row"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(rows), "count"}
	}
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// microRungs measures the two layers under core.Select in isolation, on
// this dataset's own sequences (the paper's Table 1 operations): trie
// child lookups, and sequence cursors over sibling ranges of the second
// and third level of the SPO trie. It also prices dictionary Locate.
func (l *ladder) microRungs() {
	t := l.sys.spoTrie()
	if !t.ok() {
		return
	}
	sample := l.sys.sampleTriples(23)
	if len(sample) == 0 {
		return
	}
	// Ranges are resolved untimed, so each loop times one operation.
	type probe struct{ b1, e1, b2, e2 int }
	probes := make([]probe, len(sample))
	for i, s := range sample {
		b1, e1 := t.level2(s[0])
		pos := t.findChild1(b1, e1, s[1])
		b2, e2 := t.level3(pos)
		probes[i] = probe{b1, e1, b2, e2}
	}
	const rounds = 8
	found := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, s := range sample {
			if t.findChild1(probes[i].b1, probes[i].e1, s[1]) >= 0 {
				found++
			}
		}
	}
	find1 := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i, s := range sample {
			if t.findChild2(probes[i].b2, probes[i].e2, s[2]) >= 0 {
				found++
			}
		}
	}
	find2 := time.Since(t0)
	ops := float64(rounds * len(sample))
	if found != 2*rounds*len(sample) {
		l.out.Notes = append(l.out.Notes, fmt.Sprintf("trie: %d of %d child lookups found their node", found, 2*rounds*len(sample)))
	}
	m := l.out.Metrics
	m["trie_findchild1_ns"] = metric{float64(find1) / ops, "ns/op"}
	m["trie_findchild2_ns"] = metric{float64(find2) / ops, "ns/op"}

	buf := make([]uint64, 256)
	for level := 2; level <= 3; level++ {
		var values, seeks int
		var batch, geq time.Duration
		for r := 0; r < rounds; r++ {
			for i, p := range probes {
				b, e := p.b1, p.e1
				if level == 3 {
					b, e = p.b2, p.e2
				}
				t0 := time.Now()
				c := t.iter(level, b, e)
				for {
					k := c.nextBatch(buf)
					if k == 0 {
						break
					}
					values += k
				}
				batch += time.Since(t0)
				// Seek to the sampled triple's own component: present by
				// construction, anywhere in the range.
				t0 = time.Now()
				c = t.iter(level, b, e)
				if _, ok := c.nextGEQ(uint64(sample[i][level-1])); ok {
					seeks++
				}
				geq += time.Since(t0)
			}
		}
		name := fmt.Sprintf("seq_level%d_", level)
		m[name+"nextbatch_ns"] = metric{float64(batch) / float64(max(1, values)), "ns/value"}
		m[name+"nextgeq_ns"] = metric{float64(geq) / float64(max(1, seeks)), "ns/op"}
	}

	// Locate: the subject/object terms of the sample, extracted untimed.
	p, err := l.sys.translate(l.in.Queries[0])
	if err != nil {
		return
	}
	x := p.extractor()
	terms := make([]string, 0, 2*len(sample))
	for _, s := range sample {
		terms = append(terms, x.term(int(s[0])), x.term(int(s[2])))
	}
	t0 = time.Now()
	got := l.sys.locate(terms)
	m["dict_locate_ns_per_term"] = metric{float64(time.Since(t0)) / float64(len(terms)), "ns/term"}
	if got != len(terms) {
		l.out.Notes = append(l.out.Notes, fmt.Sprintf("dict: %d of %d extracted terms located", got, len(terms)))
	}
}

// write applies the k-th write and accounts for it: latency, WAL bytes,
// and, when it triggered a merge, the merge's duration and the store
// bytes it rewrote.
func (l *ladder) write(k int) error {
	insert, i := true, k
	if k%4 == 3 {
		insert, i = false, k-3
	}
	w := l.in.Writes[i]
	before := l.walBytes
	t0 := time.Now()
	res, err := l.sys.write(insert, w[0], w[1], w[2])
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("write %d: %w", k, err)
	}
	l.writes++
	l.userBytes += int64(len(w[0]) + len(w[1]) + len(w[2]))
	if res.merged {
		l.merges++
		l.mergeTime += d
		l.rewritten += fileSize(l.in.Store)
	} else {
		l.writeTime += d
		l.walWritten += res.walBytes - before
	}
	l.walBytes = res.walBytes
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
