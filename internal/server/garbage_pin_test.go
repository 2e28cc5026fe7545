//go:build !race

package server

import "testing"

// The race detector makes sync.Pool drop what it is given, so the pins
// run without it.

// TestProtocolMissGarbage pins the per-miss garbage budget: a protocol
// query that misses the result cache, and so plans and compiles itself,
// allocates at most 16 objects and 1 KiB per request, the copy of its ID
// rows that the result cache keeps included.
func TestProtocolMissGarbage(t *testing.T) {
	const maxObjects, maxBytes = 16, 1024
	for _, c := range []struct{ name, shape string }{{"point SP?", pointShape}, {"two-pattern star", starShape}} {
		f := newMissFixture(t, c.shape)
		objects, bytes := garbagePerRequest(len(f.reqs), func() { f.serve(t) })
		t.Logf("%s: %.1f objects, %.0f bytes per request", c.name, objects, bytes)
		if objects > maxObjects || bytes > maxBytes {
			t.Errorf("%s: %.1f objects and %.0f bytes per miss; the budget is %d objects and %d bytes",
				c.name, objects, bytes, maxObjects, maxBytes)
		}
	}
}

// TestProtocolHitGarbage pins a hit's garbage: rendering the cached ID
// rows through the pooled row writer allocates nothing, so a hit
// allocates what it did when the cache held rendered bodies, 4 objects:
// the unescaped query text, the result-cache key, and the computed
// header values (Server-Timing and Content-Length share one string and
// one []string). Like testing.AllocsPerRun it rounds the average down: a
// collection during the loop empties the pools, and their refill shows
// as a fraction of an object per request.
func TestProtocolHitGarbage(t *testing.T) {
	const maxObjects = 4
	for _, c := range []struct{ name, shape string }{{"point SP?", pointShape}, {"two-pattern star", starShape}} {
		f := newHitFixture(t, c.shape)
		objects, bytes := garbagePerRequest(10*len(f.reqs), func() { f.serve(t) })
		t.Logf("%s: %.2f objects, %.0f bytes per request", c.name, objects, bytes)
		if int(objects) > maxObjects {
			t.Errorf("%s: %.2f objects per hit, want at most %d", c.name, objects, maxObjects)
		}
	}
}
