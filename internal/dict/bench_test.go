package dict

import (
	"fmt"
	"testing"
)

// benchTerms is an IRI-shaped term set the size of a small store's
// subject/object dictionary.
func benchTerms(b *testing.B) []string {
	b.Helper()
	return uriLike(50_000)
}

// BenchmarkLocate prices one Locate on present terms and on absent
// probes that sort inside a bucket (a one-byte extension of a term).
func BenchmarkLocate(b *testing.B) {
	strs := benchTerms(b)
	d, err := New(strs, DefaultBucketSize)
	if err != nil {
		b.Fatal(err)
	}
	absent := make([]string, len(strs))
	for i, s := range strs {
		absent[i] = s + "#"
	}
	for _, c := range []struct {
		name   string
		probes []string
		want   bool
	}{{"present", strs, true}, {"absent", absent, false}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A large odd stride visits buckets out of order.
				if _, ok := d.Locate(c.probes[(i*7919)%len(c.probes)]); ok != c.want {
					b.Fatalf("Locate found=%v, want %v", ok, c.want)
				}
			}
		})
	}
}

// BenchmarkFold prices folding a 1 % overlay of scattered new terms
// into the base: one linear merge plus the old-to-new ID map.
func BenchmarkFold(b *testing.B) {
	strs := benchTerms(b)
	d, err := New(strs, DefaultBucketSize)
	if err != nil {
		b.Fatal(err)
	}
	o := NewOverlay(d)
	for i := 0; i < len(strs)/100; i++ {
		o.Add(fmt.Sprintf("%s/added_%d", strs[(i*7919)%len(strs)], i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Fold(DefaultBucketSize); err != nil {
			b.Fatal(err)
		}
	}
}
