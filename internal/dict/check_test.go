package dict

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rdfindexes/internal/codec"
)

// longTerms returns sorted terms over 255 bytes, whose lengths take two
// uvarint bytes and whose drops and middles escape their headers.
func longTerms(n int) []string {
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("%s%04d%s", strings.Repeat("p", 200), i, strings.Repeat("s", 60+i%3))
	}
	return terms
}

// FuzzDictCheck sends arbitrary bytes through Decode. Whenever Check
// passes, every ID must extract alike on the one-shot and cursor paths,
// and every extracted string must locate back to its ID, without a
// panic.
func FuzzDictCheck(f *testing.F) {
	for _, seed := range []struct {
		strs   []string
		bucket int
	}{
		{suffixOfHead, 2},    // escaped headers: tails past two bytes
		{uriLike(300), 1},    // group boundaries every 16 strings
		{uriLike(12), 16},    // one bucket
		{uriLike(50), 4},     // one group of 13 buckets
		{longTerms(40), 3},   // samples over 255 bytes
		{mixedTerms(100), 5}, // typed and tagged literals
	} {
		d, err := New(seed.strs, seed.bucket)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		w := codec.NewWriter(&buf)
		d.Encode(w)
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := Decode(codec.NewBytesReader(raw, nil))
		if err != nil || d.Check() != nil {
			return
		}
		e := NewExtractor(d)
		for id := 0; id < d.Len(); id++ {
			s, ok := d.Extract(id)
			if got, eok := e.Extract(id); !ok || !eok || string(got) != s {
				t.Fatalf("Extract(%d) = (%q, %v), cursor (%q, %v)", id, s, ok, got, eok)
			}
			if back, ok := d.Locate(s); !ok || back != id {
				t.Fatalf("Locate(Extract(%d) = %q) = (%d, %v)", id, s, back, ok)
			}
		}
	})
}

// TestCheckBuilt runs Check over dictionaries New and Fold build, at
// bucket sizes that put group boundaries inside and outside the data.
func TestCheckBuilt(t *testing.T) {
	for _, strs := range [][]string{nil, uriLike(700), mixedTerms(900), longTerms(50), suffixOfHead, prefixChain(40)} {
		for _, bucket := range []int{1, 2, 3, 16} {
			d := buildSorted(t, strs, bucket)
			if err := d.Check(); err != nil {
				t.Fatalf("%d strings, bucket %d: %v", len(strs), bucket, err)
			}
			o := NewOverlay(d)
			o.Add("\x00first")
			o.Add("\xfflast")
			folded, _, err := o.Fold(bucket)
			if err != nil {
				t.Fatal(err)
			}
			if err := folded.Check(); err != nil {
				t.Fatalf("folded %d strings, bucket %d: %v", len(strs), bucket, err)
			}
		}
	}
}
