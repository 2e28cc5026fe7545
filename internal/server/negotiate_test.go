package server

import (
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
