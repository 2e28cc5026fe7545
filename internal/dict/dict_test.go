package dict

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rdfindexes/internal/codec"
)

func buildSorted(t *testing.T, strs []string, bucket int) *Dict {
	t.Helper()
	d, err := New(strs, bucket)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func uriLike(n int) []string {
	set := map[string]bool{}
	rng := rand.New(rand.NewSource(211))
	domains := []string{"http://dbpedia.org/resource/", "http://example.org/ns#", "http://xmlns.com/foaf/0.1/"}
	for len(set) < n {
		set[fmt.Sprintf("%sEntity_%d", domains[rng.Intn(len(domains))], rng.Intn(n*4))] = true
	}
	out := make([]string, 0, n)
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestDictExtractLocateRoundTrip(t *testing.T) {
	for _, bucket := range []int{1, 2, 7, 16, 64} {
		strs := uriLike(500)
		d := buildSorted(t, strs, bucket)
		if d.Len() != len(strs) {
			t.Fatalf("bucket %d: Len() = %d, want %d", bucket, d.Len(), len(strs))
		}
		for id, s := range strs {
			got, ok := d.Extract(id)
			if !ok || got != s {
				t.Fatalf("bucket %d: Extract(%d) = (%q, %v), want %q", bucket, id, got, ok, s)
			}
			gotID, ok := d.Locate(s)
			if !ok || gotID != id {
				t.Fatalf("bucket %d: Locate(%q) = (%d, %v), want %d", bucket, s, gotID, ok, id)
			}
		}
		// Absent strings.
		for _, probe := range []string{"", "aaaa", "http://zzz/last", strs[0] + "!"} {
			present := false
			for _, s := range strs {
				if s == probe {
					present = true
				}
			}
			if _, ok := d.Locate(probe); ok != present {
				t.Fatalf("bucket %d: Locate(%q) = %v, want %v", bucket, probe, ok, present)
			}
		}
	}
}

func TestDictExtractOutOfRange(t *testing.T) {
	d := buildSorted(t, []string{"a", "b"}, 4)
	if _, ok := d.Extract(-1); ok {
		t.Error("Extract(-1) succeeded")
	}
	if _, ok := d.Extract(2); ok {
		t.Error("Extract(2) succeeded")
	}
}

func TestDictRejectsUnsorted(t *testing.T) {
	if _, err := New([]string{"b", "a"}, 4); err == nil {
		t.Fatal("New accepted unsorted input")
	}
	if _, err := New([]string{"a", "a"}, 4); err == nil {
		t.Fatal("New accepted duplicates")
	}
}

func TestFromUnsorted(t *testing.T) {
	d, err := FromUnsorted([]string{"pear", "apple", "pear", "fig"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", d.Len())
	}
	for _, s := range []string{"apple", "fig", "pear"} {
		if _, ok := d.Locate(s); !ok {
			t.Fatalf("Locate(%q) failed", s)
		}
	}
}

func TestDictQuick(t *testing.T) {
	f := func(raw []string) bool {
		set := map[string]bool{}
		for _, s := range raw {
			set[s] = true
		}
		strs := make([]string, 0, len(set))
		for s := range set {
			strs = append(strs, s)
		}
		sort.Strings(strs)
		d, err := New(strs, 3)
		if err != nil {
			return false
		}
		for id, s := range strs {
			if got, ok := d.Extract(id); !ok || got != s {
				return false
			}
			if gotID, ok := d.Locate(s); !ok || gotID != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDictCompression(t *testing.T) {
	// Front-coding should beat raw storage on shared-prefix URIs.
	strs := make([]string, 2000)
	for i := range strs {
		strs[i] = fmt.Sprintf("http://dbpedia.org/resource/Entity_%06d", i)
	}
	d := buildSorted(t, strs, 16)
	raw := 0
	for _, s := range strs {
		raw += len(s)
	}
	if d.SizeBits() >= uint64(raw)*8 {
		t.Errorf("dict %d bits >= raw %d bits", d.SizeBits(), raw*8)
	}
}

func TestDictSerializationRoundTrip(t *testing.T) {
	strs := uriLike(300)
	d := buildSorted(t, strs, 8)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	d.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(codec.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range strs {
		if v, ok := got.Extract(id); !ok || v != s {
			t.Fatalf("decoded Extract(%d) = (%q, %v)", id, v, ok)
		}
	}
}

func TestDictEmpty(t *testing.T) {
	d := buildSorted(t, nil, 4)
	if d.Len() != 0 {
		t.Fatal("empty dict has nonzero length")
	}
	if _, ok := d.Locate("x"); ok {
		t.Fatal("Locate on empty dict succeeded")
	}
}

// TestByteLimit pins the 4 GiB bound of the uint32 bucket offsets on
// both sides: the builder NewSplit and Fold share refuses to grow past
// its limit (lowered here, so the test need not build 4 GiB), counting
// both runs, and Decode refuses a stored dictionary whose string counts
// or bucket size would not fit 32 bits with its bytes, or whose offsets
// do not span a run's bytes.
func TestByteLimit(t *testing.T) {
	for _, second := range []int{0, 1} {
		b := newBuilder(4)
		b.limit = 100
		var err error
		for i, s := range uriLike(20) {
			if err = add(b, min(i%2, second), s); err != nil {
				break
			}
		}
		if err == nil || !strings.Contains(err.Error(), "100-byte limit") {
			t.Fatalf("builder past its limit: %v", err)
		}
	}

	// runBytes is one stored run: the samples, their offsets, the coded
	// strings and the bucket offsets.
	type runBytes struct {
		samples, data     string
		sampleAt, offsets []uint32
	}
	one := runBytes{"\x01a", "", []uint32{0}, []uint32{0, 0}}
	none := runBytes{"", "", nil, []uint32{0}}
	for _, tc := range []struct {
		name             string
		n, k, bucketSize uint64
		runs             [2]runBytes
		want             string
	}{
		{"bucket size zero", 1, 1, 0, [2]runBytes{one, none}, "bucket size"},
		{"bucket size past MaxBytes", 1, 1, MaxBytes + 1, [2]runBytes{one, none}, "bucket size"},
		{"more strings than bytes", 3, 3, 4, [2]runBytes{one, none}, "strings"},
		{"first run past the count", 1, 2, 4, [2]runBytes{one, none}, "strings"},
		{"second run past its bytes", 4, 1, 4, [2]runBytes{one, one}, "strings"},
		{"offsets for another bucket count", 1, 1, 1, [2]runBytes{{"\x01a", "", []uint32{0}, []uint32{0, 0, 0}}, none}, "offset bytes"},
		{"sample offsets for another group count", 1, 1, 1, [2]runBytes{{"\x01a", "", nil, []uint32{0, 0}}, none}, "offset bytes"},
		{"last offset short of the data", 1, 1, 1, [2]runBytes{{"\x01a", "x", []uint32{0}, []uint32{0, 0}}, none}, "span"},
		{"first sample offset past 0", 1, 1, 1, [2]runBytes{{"\x01a", "", []uint32{1}, []uint32{0, 0}}, none}, "span"},
		{"second run offsets for another bucket count", 2, 1, 1, [2]runBytes{one, {"\x01a", "", []uint32{0}, []uint32{0}}}, "run 1"},
	} {
		var buf bytes.Buffer
		w := codec.NewWriter(&buf)
		w.Uvarint(tc.n)
		w.Uvarint(tc.k)
		w.Uvarint(tc.bucketSize)
		w.Uvarint(0) // numeric sections
		words := func(ws []uint32) []byte {
			var b []byte
			for _, v := range ws {
				b = binary.LittleEndian.AppendUint32(b, v)
			}
			return b
		}
		for _, r := range tc.runs {
			w.Bytes([]byte(r.samples))
			w.Bytes(words(r.sampleAt))
			w.Bytes([]byte(r.data))
			w.Bytes(words(r.offsets))
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(codec.NewReader(&buf)); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode = %v, want a corruption error naming the %s", tc.name, err, tc.want)
		}
	}
}
