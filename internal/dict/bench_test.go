package dict

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// benchTerms is an IRI-shaped term set the size of a small store's
// subject/object dictionary.
func benchTerms(b *testing.B) []string {
	b.Helper()
	return uriLike(50_000)
}

// BenchmarkLocate prices one Locate on present terms and on absent
// probes that sort inside a bucket (a one-byte extension of a term), in
// a dictionary of one run; and on the same terms split into two runs,
// every fourth in the first, as the subject/object dictionary splits
// its subjects from the other terms: "first-run" probes the first run's
// terms, "second-run" the others, which Locate finds after a miss in
// the first run.
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
	var first, second []string
	for i, s := range strs {
		if i%4 == 0 {
			first = append(first, s)
		} else {
			second = append(second, s)
		}
	}
	split, err := NewSplit(first, second, DefaultBucketSize)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		d      *Dict
		probes []string
		want   bool
	}{{"present", d, strs, true}, {"absent", d, absent, false},
		{"first-run", split, first, true}, {"second-run", split, second, true}} {
		d := c.d
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
		if _, _, err := o.Fold(DefaultBucketSize, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// mixedTerms is a term set shaped like a served store's subject/object
// dictionary: entity IRIs under four namespaces, and literals — plain,
// language-tagged, typed — whose sorted neighbours share a long tail
// after a varying middle.
func mixedTerms(n int) []string {
	ns := []string{"http://dbpedia.org/resource/", "http://www.wikidata.org/entity/",
		"http://data.example.org/catalog/item/", "http://purl.org/dc/terms/subject/"}
	rng := rand.New(rand.NewSource(1))
	terms := make([]string, n)
	for k := range terms {
		switch h := rng.Intn(24); {
		case k < n/2 || h >= 8:
			terms[k] = fmt.Sprintf("<%sE%d>", ns[h%4], k)
		case h < 3:
			terms[k] = fmt.Sprintf(`"Label of catalogue item %d"`, k)
		case h < 4:
			terms[k] = fmt.Sprintf(`"Étiquette numéro %d"@fr`, k)
		case h < 6:
			terms[k] = fmt.Sprintf(`"%d"^^<http://www.w3.org/2001/XMLSchema#integer>`, k)
		default:
			terms[k] = fmt.Sprintf(`"%d.5"^^<http://www.w3.org/2001/XMLSchema#decimal>`, k)
		}
	}
	sort.Strings(terms)
	return terms
}

// BenchmarkExtract prices one cursor Extract on IRIs alone and on a
// mixed term set: "scattered" visits the terms in a large odd stride, so
// nearly every call decodes a fresh bucket up to a random entry, as a join
// answer's distinct terms do; "sequential" walks the IDs in order, one
// entry per call.
func BenchmarkExtract(b *testing.B) {
	for _, set := range []struct {
		name string
		strs []string
	}{{"iri", benchTerms(b)}, {"mixed", mixedTerms(150_000)}} {
		d, err := New(set.strs, DefaultBucketSize)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name   string
			stride int
		}{{"scattered", 7919}, {"sequential", 1}} {
			b.Run(set.name+"/"+c.name, func(b *testing.B) {
				e := NewExtractor(d)
				for i := 0; i < b.N; i++ {
					if _, ok := e.Extract((i * c.stride) % len(set.strs)); !ok {
						b.Fatal("Extract failed")
					}
				}
			})
		}
	}
}
