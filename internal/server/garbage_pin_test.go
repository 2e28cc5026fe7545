//go:build !race

package server

import "testing"

// TestProtocolMissGarbage pins the per-miss garbage budget: a protocol
// query that misses the result cache, and so plans and compiles itself,
// allocates at most 16 objects and 1 KiB per request besides the copy of
// its body that the result cache keeps.
// (The race detector makes sync.Pool drop what it is given, so the pin
// runs without it.)
func TestProtocolMissGarbage(t *testing.T) {
	const maxObjects, maxBytes = 16, 1024
	for _, c := range []struct{ name, shape string }{{"point SP?", pointShape}, {"two-pattern star", starShape}} {
		f := newMissFixture(t, c.shape, 1500)
		body := 0
		objects, bytes := garbagePerRequest(len(f.reqs), func() {
			f.serve(t)
			body += f.w.n
		})
		avgBody := float64(body) / float64(len(f.reqs))
		t.Logf("%s: %.1f objects, %.0f bytes per request, %.0f of them the cached body", c.name, objects, bytes, avgBody)
		if objects > maxObjects || bytes-avgBody > maxBytes {
			t.Errorf("%s: %.1f objects and %.0f bytes per miss besides the %.0f-byte cached body; the budget is %d objects and %d bytes",
				c.name, objects, bytes-avgBody, avgBody, maxObjects, maxBytes)
		}
	}
}
