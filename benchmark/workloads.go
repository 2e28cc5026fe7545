package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Fixed sizes and rates. They are constants of the benchmark, chosen once
// on the 2-core reference box, never derived from a run: a change that
// makes the server faster must not thereby raise its own arrival rate.
const (
	// datasetTriples sizes the one dataset all workloads share.
	datasetTriples = 500000
	// resultCacheEntries is the server's default result-cache capacity;
	// workloads are sized relative to it.
	resultCacheEntries = 256

	coldDistinct = 20000 // point-cold: far beyond the result cache
	hotDistinct  = 128   // point-hot: fits the result cache
	// coldSkew keeps the Zipf head of point-cold under a twentieth of the
	// requests, so the result cache stays cold; hotSkew is the classic 1.
	coldSkew = 0.2
	hotSkew  = 1.0

	// maxPointRows bounds a point query's answer to "a handful of rows".
	maxPointRows = 32

	// mergeThreshold and writeRate make mixed-rw complete at least three
	// threshold merges in a run of BENCHMARK.json's run_seconds: three
	// writes in four are inserts, and a delete cancels its insert in the
	// pending log, so the log grows by writeRate/2 entries a second.
	mergeThreshold = 60
	writeRate      = 40.0 // acknowledged writes per second, open loop
)

// openRate is each workload's fixed open-loop arrival rate in requests
// per second: about half the closed-loop throughput of the reference box.
var openRate = map[string]float64{
	"point-cold":  2000,
	"point-hot":   2000,
	"join-stream": 200,
	"mixed-rw":    1000,
}

// joinBuckets is the fixed composition of join-stream: how many distinct
// queries answer with a row count in each band. A fixed composition keeps
// the work per cycle comparable across seeds. The bands span 10^2 to
// 10^3.5 rows: a single larger answer would take a visible share of a
// phase that lasts seconds, and throughput would then depend on how many
// of them the phase happened to cover. The distinct queries outnumber
// resultCacheEntries and are requested in cyclic order, which an LRU
// cache never hits.
var joinBuckets = []struct{ lo, hi, n int }{
	{100, 316, 128},
	{316, 1000, 128},
	{1000, 3162, 96},
}

// maxVisitedPerRow bounds how many triples a join-stream query may visit
// per row it returns (by the naive evaluator's nested loops, which order
// patterns as the store's planner does: most-bound first). A star over a
// popular predicate scans tens of thousands of triples for a few hundred
// rows; a handful of those per seed would decide the workload's
// throughput, whatever the row counts. Planner traps deserve a workload
// of their own; this one measures streaming joins.
const maxVisitedPerRow = 3

// workload is a prepared traffic mix: the distinct queries, and the order
// in which clients request them.
type workload struct {
	name    string
	queries []query
	order   []int32 // indexes into queries; clients walk it cyclically
	mutable bool    // serve with the write path and send writes
}

var workloadNames = []string{"point-cold", "point-hot", "join-stream", "mixed-rw"}

func buildWorkload(name string, n *naive, rng *rand.Rand) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "point-cold":
		w.queries = pointQueries(n, rng, coldDistinct)
		w.order = zipfOrder(rng, len(w.queries), coldSkew, 1<<17)
	case "point-hot":
		w.queries = pointQueries(n, rng, hotDistinct)
		w.order = zipfOrder(rng, len(w.queries), hotSkew, 1<<17)
	case "join-stream":
		qs, err := joinQueries(n, rng)
		if err != nil {
			return nil, err
		}
		w.queries = qs
		w.order = make([]int32, len(qs))
		for i := range w.order {
			w.order[i] = int32(i)
		}
	case "mixed-rw":
		w.queries = pointQueries(n, rng, coldDistinct)
		w.order = zipfOrder(rng, len(w.queries), coldSkew, 1<<17)
		w.mutable = true
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// zipfOrder draws length indexes below n with probability proportional to
// 1/(rank+1)^skew, by inverse CDF.
func zipfOrder(rng *rand.Rand, n int, skew float64, length int) []int32 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), skew)
		cdf[i] = sum
	}
	order := make([]int32, length)
	for i := range order {
		k, _ := slices.BinarySearch(cdf, rng.Float64()*sum)
		order[i] = int32(min(k, n-1))
	}
	return order
}

// pointQueries samples want distinct selective queries from the data, so
// every constant is known to the store and every answer is non-empty:
// SP? and ?PO lookups (two fifths each) and two-pattern stars (one fifth).
func pointQueries(n *naive, rng *rand.Rand, want int) []query {
	seen := map[string]bool{}
	var out []query
	add := func(q query, key string) {
		if !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	for len(out) < want {
		t := n.spo[rng.Intn(len(n.spo))]
		switch k := rng.Intn(5); {
		case k < 2: // <s> <p> ?o
			add(query{vars: []string{"o"}, pats: []qpattern{{constant(t.s), t.p, variable(0)}}},
				fmt.Sprint("sp", t.s, t.p))
		case k < 4: // ?s <p> <o>
			if r := n.byPO[[2]uint32{t.p, t.o}]; int(r.hi-r.lo) > maxPointRows {
				continue
			}
			add(query{vars: []string{"s"}, pats: []qpattern{{variable(0), t.p, constant(t.o)}}},
				fmt.Sprint("po", t.p, t.o))
		default: // ?x <p1> <o1> . ?x <p2> ?y
			if r := n.byPO[[2]uint32{t.p, t.o}]; int(r.hi-r.lo) > maxPointRows/4 {
				continue
			}
			r := n.bySubject[t.s]
			t2 := n.spo[int(r.lo)+rng.Intn(int(r.hi-r.lo))]
			if t2.p == t.p {
				continue
			}
			q := query{vars: []string{"x", "y"}, pats: []qpattern{
				{variable(0), t.p, constant(t.o)},
				{variable(0), t2.p, variable(1)},
			}}
			if _, c, _ := n.eval(q, maxPointRows); c > maxPointRows {
				continue
			}
			add(q, fmt.Sprint("st", t.p, t.o, t2.p))
		}
	}
	return out
}

// joinQueries samples star and path BGPs of two to four bound-predicate
// patterns (the Table 6 decomposition shapes) until every row-count band
// of joinBuckets is full. Candidates grow from a random triple, so each
// has at least one solution.
func joinQueries(n *naive, rng *rand.Rand) ([]query, error) {
	filled := make([]int, len(joinBuckets))
	missing := 0
	for _, b := range joinBuckets {
		missing += b.n
	}
	maxRows := joinBuckets[len(joinBuckets)-1].hi
	seen := map[string]bool{}
	var out []query
	for tries := 0; missing > 0; tries++ {
		if tries > 400000 {
			return nil, fmt.Errorf("join-stream: bands %v filled only to %v", joinBuckets, filled)
		}
		q, ok := joinCandidate(n, rng)
		if !ok {
			continue
		}
		key := fmt.Sprint(q.pats)
		if seen[key] {
			continue
		}
		seen[key] = true
		_, rows, visited := n.eval(q, maxRows)
		if visited > maxVisitedPerRow*rows {
			continue
		}
		for i, b := range joinBuckets {
			if rows >= b.lo && rows < b.hi && filled[i] < b.n {
				filled[i]++
				missing--
				out = append(out, q)
			}
		}
	}
	// Interleave the bands, so any stretch of the cycle carries the same
	// blend of small and large answers.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// joinCandidate grows one BGP around a random subject: a star of its
// predicates, optionally anchored on a bound object, optionally extended
// by a path step through one of its objects that is itself a subject.
func joinCandidate(n *naive, rng *rand.Rand) (query, bool) {
	t := n.spo[rng.Intn(len(n.spo))]
	r := n.bySubject[t.s]
	own := n.spo[r.lo:r.hi]
	q := query{vars: []string{"x"}}
	newVar := func() qterm {
		q.vars = append(q.vars, string(rune('a'+len(q.vars)-1)))
		return variable(len(q.vars) - 1)
	}
	if rng.Intn(2) == 0 {
		q.pats = append(q.pats, qpattern{variable(0), t.p, constant(t.o)})
	} else {
		q.pats = append(q.pats, qpattern{variable(0), t.p, newVar()})
	}
	// One triple per further predicate of the subject (own is sorted by
	// predicate), in random order.
	var others []triple
	for i, u := range own {
		if u.p != t.p && (i == 0 || u.p != own[i-1].p) {
			others = append(others, u)
		}
	}
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	size := 2 + rng.Intn(3)
	for _, t2 := range others {
		if len(q.pats) >= size {
			break
		}
		// Path step ?x <p> ?y . ?y <q> ?z, when the object has triples of
		// its own; a further star arm ?x <p> ?v otherwise.
		if r2, ok := n.bySubject[t2.o]; ok && rng.Intn(3) == 0 && len(q.pats)+2 <= size {
			t3 := n.spo[int(r2.lo)+rng.Intn(int(r2.hi-r2.lo))]
			y := newVar()
			q.pats = append(q.pats, qpattern{variable(0), t2.p, y}, qpattern{y, t3.p, newVar()})
			continue
		}
		q.pats = append(q.pats, qpattern{variable(0), t2.p, newVar()})
	}
	return q, len(q.pats) >= 2
}
