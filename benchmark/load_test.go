package main

import (
	"slices"
	"testing"
	"time"
)

// fakeClock only moves when told to: by a sleep, or by a request's
// service time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

const ms = time.Millisecond

// One connection, ten requests a second, and a first request that stalls
// for 250 ms: the two requests due during the stall are sent late, and
// their latency counts from when they were due, not from when they were
// sent. A closed loop would have reported 10 ms for both.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	service := []time.Duration{250 * ms, 10 * ms, 10 * ms, 10 * ms, 10 * ms}
	var sentOrder []int
	res := openLoop(clk, 1, 10, len(service), time.Minute, func(_, i int) bool {
		sentOrder = append(sentOrder, i)
		clk.now = clk.now.Add(service[i])
		return true
	})
	want := []time.Duration{250 * ms, 160 * ms, 70 * ms, 10 * ms, 10 * ms}
	if !slices.Equal(res.latencies, want) {
		t.Errorf("latencies %v, want %v", res.latencies, want)
	}
	if res.attempted != 5 || res.late != 2 || res.failed != 0 || res.dropped != 0 {
		t.Errorf("attempted %d late %d failed %d dropped %d; want 5, 2, 0, 0", res.attempted, res.late, res.failed, res.dropped)
	}
	if !slices.Equal(sentOrder, []int{0, 1, 2, 3, 4}) {
		t.Errorf("requests sent in order %v", sentOrder)
	}
}

// Requests the generator cannot send before it gives up are dropped and
// counted, and a refused request counts as failed and has no latency.
func TestOpenLoopDropsAndFailures(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	res := openLoop(clk, 1, 10, 5, 255*ms, func(_, i int) bool {
		clk.now = clk.now.Add(250 * ms)
		return i != 1
	})
	// Request 0 is served from 0 to 250 ms; request 1 is sent at 250 ms and
	// refused at 500 ms; requests 2 to 4 come up after the 255 ms limit.
	if want := []time.Duration{250 * ms}; !slices.Equal(res.latencies, want) {
		t.Errorf("latencies %v, want %v", res.latencies, want)
	}
	if res.attempted != 5 || res.failed != 1 || res.dropped != 3 {
		t.Errorf("attempted %d failed %d dropped %d; want 5, 1, 3", res.attempted, res.failed, res.dropped)
	}
}

func TestSummarize(t *testing.T) {
	var lat []time.Duration
	for i := 1000; i >= 1; i-- {
		lat = append(lat, time.Duration(i)*ms)
	}
	s := summarize(lat)
	if s.n != 1000 || s.p50 != 501 || s.tailName != "p99" || s.tail != 991 {
		t.Errorf("1000 samples: %+v; want p50 501, p99 991", s)
	}
	// With 150 samples the 99th percentile has one sample beyond it; the
	// 90th is the highest with at least ten.
	if s := summarize(lat[:150]); s.tailName != "p90" {
		t.Errorf("150 samples: tail %q, want p90", s.tailName)
	}
	if s := summarize(lat[:50]); s.tailName != "" {
		t.Errorf("50 samples: tail %q, want none", s.tailName)
	}
}

// Five slices in eight were slowed down from outside; the quartile on the
// good side still reports an undisturbed slice.
func TestQuietQuartile(t *testing.T) {
	rates := []float64{1000, 400, 990, 300, 500, 1010, 450, 350}
	if got := quietQuartile(rates, true); got != 1000 {
		t.Errorf("throughput: %v, want 1000", got)
	}
	latencies := []float64{1.0, 5.0, 1.2, 9.0, 4.0, 1.1, 7.0, 6.0}
	if got := quietQuartile(latencies, false); got != 1.1 {
		t.Errorf("latency: %v, want 1.1", got)
	}
	if got := quietQuartile([]float64{3}, true); got != 3 {
		t.Errorf("one value: %v, want 3", got)
	}
}
