package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call: which layer, when, on behalf of which request,
// and under which other span. All spans stay in memory until the run
// ends; none is recorded inside the program under test.
type span struct {
	Name    string `json:"name"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"` // noParent for a request's root
	Request int32  `json:"request"`
	StartNs int64  `json:"start_ns"` // since the tracer's first span
	EndNs   int64  `json:"end_ns"`
}

const noParent = int32(-1)

// spanOrder is the ladder from the socket inwards; rungs print in it.
var spanOrder = []string{
	"handler", "store.translate", "sparql.parse", "sparql.plan",
	"sparql.exec", "core.select", "dict.extract", "results.write",
}

// layerOf names the module a span's self time is charged to.
var layerOf = map[string]string{
	"handler":         "server",
	"store.translate": "store",
	"sparql.parse":    "sparql",
	"sparql.plan":     "sparql",
	"sparql.exec":     "sparql",
	"core.select":     "core",
	"dict.extract":    "dict",
	"results.write":   "results",
}

type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// begin opens a span and returns its ID; with the tracer off it records
// nothing and returns noParent.
func (t *tracer) begin(name string, parent int32, request int) int32 {
	if !t.on {
		return noParent
	}
	if t.t0.IsZero() {
		t.t0 = time.Now()
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Request: int32(request)})
	t.spans[id].StartNs = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int32) {
	if id == noParent {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
}

// selfTimes returns, per span name, the summed self time (a span's
// duration minus its children's) and the number of spans. A replayed
// child can, by noise, outlast the parent it is charged against; sums are
// floored at zero only per name, after adding up, so the rungs still add
// up to the root spans' total.
func (t *tracer) selfTimes() (self map[string]time.Duration, calls map[string]int) {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != noParent {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self, calls = map[string]time.Duration{}, map[string]int{}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - children[i])
		calls[s.Name]++
	}
	return self, calls
}

// total is the summed duration of the spans of one name.
func (t *tracer) total(name string) (d time.Duration) {
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.EndNs - s.StartNs)
		}
	}
	return d
}

func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
