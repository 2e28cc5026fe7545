package server

import (
	"net/url"
	"testing"

	"rdfindexes/internal/server/results"
)

// TestNegotiationAllocs pins the per-request header scans at zero
// allocations: content negotiation for a SPARQL client's and a browser's
// Accept, the Accept-Encoding check and the If-None-Match match.
func TestNegotiationAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"sparql accept", func() { results.Negotiate("application/sparql-results+json") }},
		{"browser accept", func() {
			results.Negotiate("text/html,application/xhtml+xml,application/xml;q=0.9,image/avif,image/webp,*/*;q=0.8")
		}},
		{"accept-encoding", func() { wantsGzip("gzip, deflate, br") }},
		{"if-none-match", func() { etagMatch(`W/"g7-csv", "g8-json"`, `"g8-json"`) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, n)
		}
	}
	if f, ok := results.Negotiate("text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"); !ok || f != results.XML {
		t.Errorf("browser Accept negotiated %v, %v; want xml", f, ok)
	}
	if !wantsGzip("gzip, deflate, br") || wantsGzip("deflate, GZIP;q=0") || !etagMatch(`W/"g7-csv", "g8-json"`, `"g8-json"`) {
		t.Error("header scans disagree with their specification")
	}
}

// TestQueryParam holds the in-place URL query scan to
// url.ParseQuery(raw).Get(name), and pins it at no allocation for a
// value without escapes.
func TestQueryParam(t *testing.T) {
	for _, raw := range []string{
		"",
		"query=SELECT+%3Fx&limit=3",
		"limit=3&query=a&query=b",
		"%71uery=escaped+key&query=plain",
		"query=bad%zzescape&query=good",
		"query;x=1&query=after+semicolon",
		"a=1&&query=&query=second",
		"query",
		"min-gen=7&explain=1&limit=%31%30",
		"q%zz=1&limit=5",
	} {
		want, _ := url.ParseQuery(raw)
		for _, name := range []string{"query", "limit", "explain", "min-gen"} {
			if got := queryParam(raw, name); got != want.Get(name) {
				t.Errorf("queryParam(%q, %q) = %q, url.ParseQuery says %q", raw, name, got, want.Get(name))
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { queryParam("query=SELECT+%3Fx&limit=3&explain=1", "limit") }); n != 0 {
		t.Errorf("queryParam: %v allocs per call, want 0", n)
	}
}
