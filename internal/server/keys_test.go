package server

import (
	"fmt"
	"testing"
	"time"

	"rdfindexes/internal/obs"
	"rdfindexes/internal/sparql"
)

// TestTimingAndKeyStrings pins the per-request strings built without fmt
// — the Server-Timing header and trailer values and the cache keys — byte
// for byte to the fmt formats they replaced, written out here as the
// reference.
func TestTimingAndKeyStrings(t *testing.T) {
	for _, d := range [][obs.NumStages]time.Duration{
		{},
		{1, 499, 500, 501, 999},
		{time.Microsecond, 1234567, 2 * time.Millisecond, 33333333, time.Hour},
		{-1, 1500, 9999999, 10000000, 86400 * time.Second},
		// Exact half-microsecond ties, which the float quotient rounds
		// either way.
		{4500, 5500, 2500, 3500, 1234500},
		{999500, 1000500, 7500, 8500, 1<<53 + 500},
	} {
		tr := obs.AcquireTrace()
		tr.Stages = d
		total := d[obs.StageExec] + 7*time.Nanosecond
		for _, cache := range []string{"hit", "miss", `a "quoted" \ value`} {
			want := fmt.Sprintf("cache;desc=%q, queue;dur=%.3f, parse;dur=%.3f, plan;dur=%.3f",
				cache, float64(d[obs.StageQueue])/1e6, float64(d[obs.StageParse])/1e6, float64(d[obs.StagePlan])/1e6)
			if got := string(appendServerTiming(nil, tr, cache)); got != want {
				t.Errorf("appendServerTiming(%v, %q) = %q, want %q", d, cache, got, want)
			}
		}
		want := fmt.Sprintf("exec;dur=%.3f, render;dur=%.3f, total;dur=%.3f",
			float64(d[obs.StageExec])/1e6, float64(d[obs.StageRender])/1e6, float64(total)/1e6)
		if got := postTiming(tr, total); got != want {
			t.Errorf("postTiming(%v, %v) = %q, want %q", d, total, got, want)
		}
		tr.Release()
	}

	for _, qs := range []string{
		"SELECT ?x WHERE { ?x <3> <120> . }",
		"SELECT ?x ?long_name_1 WHERE { ?x <0> ?long_name_1 . <4294967294> <1> ?x . ?long_name_1 <7> ?x . }",
	} {
		q, err := sparql.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		for _, gen := range []uint64{0, 1, 18446744073709551615} {
			for _, limit := range []int{-1, 0, 1 << 40} {
				want := fmt.Sprintf("p|g%d|%s|%d", gen, fmtQuery(q), limit)
				if key := resultKey(gen, q, limit); key != want {
					t.Errorf("resultKey = %q, want %q", key, want)
				}
			}
		}
	}
}

// fmtQuery is Query.String as it was written with fmt.
func fmtQuery(q sparql.Query) string {
	term := func(t sparql.Term) string {
		if t.IsVar() {
			return "?" + t.Var
		}
		return fmt.Sprintf("<%d>", t.ID)
	}
	s := "SELECT"
	for _, v := range q.Vars {
		s += " ?" + v
	}
	s += " WHERE {"
	for _, p := range q.Patterns {
		s += " " + fmt.Sprintf("%v %v %v .", term(p.S), term(p.P), term(p.O))
	}
	return s + " }"
}

// BenchmarkAppendDur prices one Server-Timing duration; a request
// formats seven.
func BenchmarkAppendDur(b *testing.B) {
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = appendDur(buf[:0], "exec;dur=", time.Duration(1234567+i%1000))
	}
}
