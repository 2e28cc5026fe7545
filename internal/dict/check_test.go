package dict

import (
	"bytes"
	"errors"
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
		every  int // every every-th string goes to the first run; 0 for one run
	}{
		{suffixOfHead, 2, 0},    // escaped headers: tails past two bytes
		{uriLike(300), 1, 0},    // group boundaries every 16 strings
		{uriLike(12), 16, 0},    // one bucket
		{uriLike(50), 4, 0},     // one group of 13 buckets
		{longTerms(40), 3, 0},   // samples over 255 bytes
		{mixedTerms(100), 5, 0}, // typed and tagged literals
		{uriLike(300), 1, 4},    // two runs, each of several groups
		{mixedTerms(100), 3, 2}, // two runs that interleave string by string
	} {
		first, second := seed.strs, []string(nil)
		if seed.every > 0 {
			first, second = splitEvery(seed.strs, seed.every)
		}
		d, err := NewSplit(first, second, seed.bucket)
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

// splitEvery splits sorted strs into the every-th strings and the rest.
func splitEvery(strs []string, every int) (first, second []string) {
	for i, s := range strs {
		if i%every == 0 {
			first = append(first, s)
		} else {
			second = append(second, s)
		}
	}
	return first, second
}

// TestCheckBuilt runs Check over dictionaries New, NewSplit and Fold
// build, at bucket sizes that put group boundaries inside and outside
// the data.
func TestCheckBuilt(t *testing.T) {
	for _, strs := range [][]string{nil, uriLike(700), mixedTerms(900), longTerms(50), suffixOfHead, prefixChain(40)} {
		for _, bucket := range []int{1, 2, 3, 16} {
			first, second := splitEvery(strs, 3)
			split, err := NewSplit(first, second, bucket)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []*Dict{buildSorted(t, strs, bucket), split} {
				if err := d.Check(); err != nil {
					t.Fatalf("%d strings, %d in the first run, bucket %d: %v", len(strs), d.FirstRun(), bucket, err)
				}
				o := NewOverlay(d)
				o.Add("\x00first")
				o.Add("\xfflast")
				for _, inFirst := range []func(int) bool{nil, func(id int) bool { return id%2 == 0 }} {
					folded, _, err := o.Fold(bucket, inFirst)
					if err != nil {
						t.Fatal(err)
					}
					if err := folded.Check(); err != nil {
						t.Fatalf("folded %d strings, bucket %d: %v", len(strs), bucket, err)
					}
				}
			}
		}
	}
}

// TestCheckRunsDisjoint pins the check across the run boundary: a
// second-run string that the first run holds too would locate to the
// first run's ID, so Check names it, and NewSplit refuses to build it.
func TestCheckRunsDisjoint(t *testing.T) {
	a, b := buildSorted(t, []string{"a", "b", "d"}, 2), buildSorted(t, []string{"c", "d", "e"}, 2)
	d := &Dict{n: 6, k: 3, runs: [2]run{a.runs[0], b.runs[0]}}
	if err := d.Check(); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "dict ID 4: repeats ID 2") {
		t.Fatalf("Check = %v, want ID 4 named as a repeat of ID 2", err)
	}
	if _, err := NewSplit([]string{"a", "b", "d"}, []string{"c", "d", "e"}, 2); err == nil || !strings.Contains(err.Error(), "both runs") {
		t.Fatalf("NewSplit = %v, want a string in both runs refused", err)
	}
}
