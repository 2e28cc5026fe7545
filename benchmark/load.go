package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// request is one prepared GET /sparql: the URL is escaped once at set-up,
// and the expected body length is recorded by the verification pass, so a
// timed request costs the generator a status and a length comparison.
type request struct {
	url      *url.URL
	wantBody int64
	rows     int // rows of the verified answer
}

var acceptJSON = http.Header{"Accept": {"application/sparql-results+json"}}

// conn is one keep-alive connection. Compression is off: the server
// would otherwise spend most of a large answer in gzip, which is not the
// code the paper or this benchmark is about.
type conn struct {
	c *http.Client
	// wrongLength counts timed answers that came back 200 with another
	// body length than the verified one: wrong output, not just a failure.
	wrongLength atomic.Int64
}

func newConn() *conn {
	return &conn{c: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// get sends the request and returns the status and the body, or only its
// length when keep is false.
func (c *conn) get(r *request, keep bool) (status int, body []byte, n int64, err error) {
	resp, err := c.c.Do(&http.Request{Method: http.MethodGet, URL: r.url, Header: acceptJSON, Host: r.url.Host})
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	if keep {
		body, err = io.ReadAll(resp.Body)
		return resp.StatusCode, body, int64(len(body)), err
	}
	n, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, n, err
}

// ok sends a timed request and reports whether it was answered in full:
// 200 and exactly the verified body length.
func (c *conn) ok(r *request) bool {
	status, _, n, err := c.get(r, false)
	if err != nil || status != http.StatusOK {
		return false
	}
	if n != r.wantBody {
		c.wrongLength.Add(1)
		return false
	}
	return true
}

// closedResult is what a closed-loop phase observed.
type closedResult struct {
	completed, failed int
	rows              int // rows of the completed answers
	seconds           float64
}

// closedLoop runs one client per connection for d: each sends its next
// request only after the previous answer arrived. Client k of n takes
// every n-th entry of the shared order from position from on, so
// together they walk it once per cycle and no query is asked for sooner
// than a full cycle later.
func closedLoop(conns []*conn, reqs []request, order []int32, from int, d time.Duration) closedResult {
	var completed, failed, rows atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := from + k; time.Now().Before(deadline); i += len(conns) {
				if r := &reqs[order[i%len(order)]]; c.ok(r) {
					completed.Add(1)
					rows.Add(int64(r.rows))
				} else {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return closedResult{int(completed.Load()), int(failed.Load()), int(rows.Load()), time.Since(start).Seconds()}
}

// clock is the time source of the open-loop scheduler; tests inject a
// fake one.
type clock interface {
	Now() time.Time
	SleepUntil(time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// sleepSlack is how early a sleeping generator wakes before a due time.
// time.Sleep overshoots by up to a scheduler tick (over a millisecond on
// the reference box), which would be charged to the server as latency;
// the last stretch is therefore spent polling the clock, yielding the
// processor to any runnable thread (the server's) on every turn.
const sleepSlack = 1500 * time.Microsecond

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Now().Before(t) {
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// lateAfter is how long after its due time a request may be sent before
// it counts towards late_share.
const lateAfter = time.Millisecond

// openResult is what an open-loop phase observed. Latencies are measured
// from each request's due time, so a stall is charged to every request
// that had to wait behind it, not only to the one that hit it.
type openResult struct {
	latencies       []time.Duration // of requests that succeeded, in due order
	attempted, late int
	failed, dropped int
}

// openLoop issues n requests at a fixed rate: request i is due at
// start + i/rate, whatever happened to the requests before it. At most
// workers requests are in flight (one per connection); a request whose
// due time passes while all workers are busy is sent as soon as one
// frees, and its wait counts as latency. Requests still unsent at
// start + giveUp are dropped and count as failed.
func openLoop(clk clock, workers int, rate float64, n int, giveUp time.Duration, do func(worker, i int) bool) openResult {
	start := clk.Now()
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var mu sync.Mutex
	res := openResult{attempted: n}
	lat := make([]time.Duration, n) // by request; 0 = no answer
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			late, failed, dropped := 0, 0, 0
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				clk.SleepUntil(due)
				sent := clk.Now()
				if sent.Sub(start) > giveUp {
					dropped++
					continue
				}
				if sent.Sub(due) > lateAfter {
					late++
				}
				if do(w, i) {
					lat[i] = max(1, clk.Now().Sub(due))
				} else {
					failed++
				}
			}
			mu.Lock()
			res.late += late
			res.failed += failed
			res.dropped += dropped
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, d := range lat {
		if d > 0 {
			res.latencies = append(res.latencies, d)
		}
	}
	return res
}

// quantile returns the q-quantile (nearest rank) of sorted durations in
// milliseconds.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(int(q*float64(len(sorted))), len(sorted)-1)
	return float64(sorted[i]) / float64(time.Millisecond)
}

// latencySummary is a median plus the highest percentile, up to the
// 99th, that still has at least ten samples beyond it.
type latencySummary struct {
	n        int
	p50      float64
	tail     float64
	tailName string
}

func summarize(lat []time.Duration) latencySummary {
	lat = slices.Clone(lat)
	slices.Sort(lat)
	s := latencySummary{n: len(lat), p50: quantile(lat, 0.50)}
	for _, t := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}} {
		if float64(len(lat))*(1-t.q) >= 10 {
			s.tail, s.tailName = quantile(lat, t.q), t.name
			break
		}
	}
	return s
}

func (s latencySummary) String() string {
	if s.tailName == "" {
		return fmt.Sprintf("p50 %.3f ms (n=%d, too few samples for a tail)", s.p50, s.n)
	}
	return fmt.Sprintf("p50 %.3f ms, %s %.3f ms (n=%d)", s.p50, s.tailName, s.tail, s.n)
}

// quietQuartile picks, from one value per slice of a run, the quartile on
// the good side: the upper one of throughputs, the lower one of
// latencies. The reference box is a shared virtual machine that slows
// down for seconds at a time, and such interference only ever makes a
// slice worse; the quartile on the good side is still one of the
// undisturbed slices when up to six in eight were hit, which a median
// is not. A change to the system moves every slice and shows all the same.
func quietQuartile(values []float64, higherIsBetter bool) float64 {
	v := slices.Clone(values)
	slices.Sort(v)
	if higherIsBetter {
		slices.Reverse(v)
	}
	return v[(len(v)+3)/4-1]
}
