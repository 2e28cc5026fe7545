package seq

import (
	"bytes"
	"math/rand"
	"testing"

	"rdfindexes/internal/codec"
)

// fuzzRanged reads fuzz bytes as a trie level: each byte adds one value.
// Its top bit starts a new sibling range (the first byte starts the first
// one), bits 5–6 scale its low five bits by 2^0, 2^5, 2^10 or 2^15, and
// the value is the previous one of its range plus that gap plus one, or
// the scaled gap itself at a range start. Values are strictly increasing
// within a range and arbitrary across ranges, as the level's node IDs
// are, and stay below 2^31.
func fuzzRanged(raw []byte) rangedData {
	if len(raw) > 512 {
		raw = raw[:512]
	}
	d := rangedData{ranges: []int{0}}
	var prev uint64
	for i, b := range raw {
		gap := uint64(b&0x1f) << (5 * ((b >> 5) & 3))
		if i > 0 && b&0x80 != 0 {
			d.ranges = append(d.ranges, len(d.values))
		}
		v := gap
		if len(d.values) > d.ranges[len(d.ranges)-1] {
			v = prev + gap + 1
		}
		d.values = append(d.values, v)
		prev = v
	}
	d.ranges = append(d.ranges, len(d.values))
	return d
}

// FuzzSequence builds every kind over a fuzz-drawn ranged level and
// checks it with checkSequence against the values, then checks what Read
// returns for its Write: for PEF through its select directory
// (IndexedPEF), which the built sequence has not.
func FuzzSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0x80, 0x80, 0})             // zeros, empty-gap ranges
	f.Add([]byte{0x7f, 0x3f, 0xff, 0x01, 0x9f, 2}) // the widest gaps
	big := make([]byte, 500)
	for i := range big {
		big[i] = byte(i*37) & 0x3f
		if i%9 == 0 {
			big[i] |= 0x80
		}
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := fuzzRanged(raw)
		for _, kind := range allKinds {
			s := Build(kind, d.values, d.ranges)
			checkSequence(t, s, d, rand.New(rand.NewSource(int64(len(raw)))))
			var buf bytes.Buffer
			w := codec.NewWriter(&buf)
			Write(w, s)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := Read(codec.NewReader(&buf))
			if err != nil {
				t.Fatalf("%v: Read of Write: %v", kind, err)
			}
			if back.Kind() != kind {
				t.Fatalf("%v read back as %v", kind, back.Kind())
			}
			IndexedPEF(back) // a no-op on the other kinds
			checkSequence(t, back, d, rand.New(rand.NewSource(int64(len(raw)))))
		}
	})
}
