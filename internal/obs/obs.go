// Package obs is the observability substrate of the serving stack: a
// stdlib-only metrics registry (atomic counters, callback gauges,
// lock-free fixed-bucket latency histograms) with Prometheus
// text-format exposition, a pooled per-request trace that records
// per-stage wall time and per-pattern cardinalities, and a sampled
// structured slow-query log.
//
// The recording paths — Counter.Add, Histogram.Observe, the Trace
// step/stage recorders — are //rdf:hotpath: they run once per request,
// per stage or per candidate triple inside the serving loops, must not
// allocate, and are safe for any number of concurrent goroutines
// (plain atomics, no locks). Exposition and snapshotting are cold
// paths and allocate freely.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; counters handed out by a Registry are additionally
// exposed on /metrics.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
//
//rdf:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current count.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// metricKind is the Prometheus TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labeled sample set within a family; exactly one of the
// value sources is set.
type series struct {
	labels    string // rendered label pairs without braces, e.g. `stage="parse"`; empty for none
	counter   *Counter
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// family groups the series sharing one metric name; HELP and TYPE are
// emitted once per family.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds named metrics for exposition. Registration happens at
// server construction (it locks and allocates); the handed-out Counter
// and Histogram pointers are then recorded into lock-free. Families
// are exposed in registration order; series within a family in the
// order they were added.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// register appends a series to name's family, creating the family on
// first use. Registering the same name with two different kinds is a
// programming error and panics at construction time.
func (r *Registry) register(name, help string, kind metricKind, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.kind, kind))
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series. labels is the
// rendered Prometheus label list without braces (e.g. `cache="result"`),
// or empty for an unlabeled metric.
func (r *Registry) Counter(name, labels, help string) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &series{labels: labels, counter: c})
	return c
}

// CounterFunc registers a counter series whose value is read from fn
// at exposition time — for counts maintained elsewhere (cache
// hit/miss totals, slow-query counts) that must not be double-tracked.
// fn must be monotonically non-decreasing and safe to call
// concurrently.
func (r *Registry) CounterFunc(name, labels, help string, fn func() uint64) {
	r.register(name, help, kindCounter, &series{labels: labels, counterFn: fn})
}

// GaugeFunc registers a gauge series evaluated at exposition time. fn
// must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.register(name, help, kindGauge, &series{labels: labels, gaugeFn: fn})
}

// Histogram registers and returns a latency histogram series.
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	h := &Histogram{}
	r.AddHistogram(name, labels, help, h)
	return h
}

// AddHistogram registers a histogram recorded elsewhere — by a
// component that outlives or predates the registry — as a series.
func (r *Registry) AddHistogram(name, labels, help string, h *Histogram) {
	r.register(name, help, kindHistogram, &series{labels: labels, hist: h})
}

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4). Histograms expose their
// cumulative buckets at octave boundaries (every power of two of the
// nanosecond scale, converted to seconds) — the fine sub-octave
// resolution stays internal to quantile computation.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var buf []byte
	for _, f := range fams {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.help...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, string(f.kind)...)
		buf = append(buf, '\n')
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", float64(s.counter.Load()))
			case s.counterFn != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", float64(s.counterFn()))
			case s.gaugeFn != nil:
				buf = appendSample(buf, f.name, "", s.labels, "", s.gaugeFn())
			case s.hist != nil:
				buf = appendHistogram(buf, f.name, s.labels, s.hist.Snapshot())
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendSample renders one exposition line:
// name<suffix>{labels,extra} value.
func appendSample(buf []byte, name, suffix, labels, extra string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if labels != "" || extra != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		if labels != "" && extra != "" {
			buf = append(buf, ',')
		}
		buf = append(buf, extra...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	buf = append(buf, '\n')
	return buf
}

// appendHistogram renders the cumulative _bucket series at octave
// bounds, then _sum (seconds) and _count.
func appendHistogram(buf []byte, name, labels string, s HistogramSnapshot) []byte {
	cum := uint64(0)
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		if i == NumBuckets-1 {
			break // the last bucket is the overflow bucket: exposed as +Inf below
		}
		if !octaveEdge(i) {
			continue
		}
		le := strconv.FormatFloat(float64(BucketBound(i))/1e9, 'g', -1, 64)
		buf = appendSample(buf, name, "_bucket", labels, `le="`+le+`"`, float64(cum))
	}
	buf = appendSample(buf, name, "_bucket", labels, `le="+Inf"`, float64(cum))
	buf = appendSample(buf, name, "_sum", labels, "", float64(s.Sum)/1e9)
	buf = appendSample(buf, name, "_count", labels, "", float64(s.Count))
	return buf
}

// Sample is one parsed exposition line, as returned by ParseProm.
type Sample struct {
	Name   string            // metric name including _bucket/_sum/_count suffixes
	Labels map[string]string // nil when the line carries no labels
	Value  float64
}

// ParseProm is a minimal Prometheus text-format parser: enough to
// verify a scrape of WritePrometheus round-trips (names, labels,
// values, HELP/TYPE pairing). It rejects malformed lines, a TYPE
// repeated for one name, and samples without a preceding TYPE — the
// properties a real scraper depends on. It is used by the exposition
// tests and by operators spot-checking a scrape; it does not aim to
// parse arbitrary third-party exposition.
func ParseProm(r io.Reader) ([]Sample, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	typed := map[string]string{}
	var samples []Sample
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		line := data
		if i := indexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			name, kind, ok := parseMeta(string(line))
			if !ok {
				return nil, fmt.Errorf("obs: line %d: malformed comment %q", lineNo, line)
			}
			if kind != "" { // a TYPE line
				if _, dup := typed[name]; dup {
					return nil, fmt.Errorf("obs: line %d: duplicate TYPE for %s", lineNo, name)
				}
				typed[name] = kind
			}
			continue
		}
		s, err := parseSample(string(line))
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		base := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if t := trimSuffix(s.Name, suffix); t != s.Name && typed[t] == string(kindHistogram) {
				base = t
			}
		}
		if _, ok := typed[base]; !ok {
			return nil, fmt.Errorf("obs: line %d: sample %s precedes its TYPE", lineNo, s.Name)
		}
		samples = append(samples, s)
	}
	return samples, nil
}

func indexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

func trimSuffix(s, suffix string) string {
	if len(s) > len(suffix) && s[len(s)-len(suffix):] == suffix {
		return s[:len(s)-len(suffix)]
	}
	return s
}

// parseMeta parses "# HELP name ..." / "# TYPE name kind" comments,
// returning the metric name and, for TYPE lines, the kind.
func parseMeta(line string) (name, kind string, ok bool) {
	fields := splitFields(line)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", false
	}
	switch fields[1] {
	case "HELP":
		return fields[2], "", true
	case "TYPE":
		if len(fields) != 4 {
			return "", "", false
		}
		return fields[2], fields[3], true
	}
	return "", "", false
}

// parseSample parses one "name{l="v",...} value" line.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	brace := -1
	for i := 0; i < len(rest); i++ {
		if rest[i] == '{' {
			brace = i
			break
		}
		if rest[i] == ' ' {
			break
		}
	}
	if brace >= 0 {
		s.Name = rest[:brace]
		end := -1
		for i := brace + 1; i < len(rest); i++ {
			if rest[i] == '}' {
				end = i
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[brace+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	} else {
		i := 0
		for i < len(rest) && rest[i] != ' ' {
			i++
		}
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("missing metric name in %q", line)
	}
	for len(rest) > 0 && rest[0] == ' ' {
		rest = rest[1:]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string) (map[string]string, error) {
	m := map[string]string{}
	for body != "" {
		eq := -1
		for i := 0; i < len(body); i++ {
			if body[i] == '=' {
				eq = i
				break
			}
		}
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label in %q", body)
		}
		name := body[:eq]
		i := eq + 2
		var val []byte
		for i < len(body) && body[i] != '"' {
			if body[i] == '\\' && i+1 < len(body) {
				i++
			}
			val = append(val, body[i])
			i++
		}
		if i >= len(body) {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		m[name] = string(val)
		body = body[i+1:]
		if body != "" {
			if body[0] != ',' {
				return nil, fmt.Errorf("missing comma in label set %q", body)
			}
			body = body[1:]
		}
	}
	return m, nil
}

func splitFields(s string) []string {
	var out []string
	i := 0
	for i < len(s) {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		j := i
		for j < len(s) && s[j] != ' ' {
			j++
		}
		if j > i {
			out = append(out, s[i:j])
		}
		i = j
	}
	return out
}
