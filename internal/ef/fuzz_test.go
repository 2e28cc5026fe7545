package ef

import (
	"bytes"
	"testing"

	"rdfindexes/internal/codec"
)

// fuzzDeltas reads fuzz bytes as a partition log in [2, 8] and the gaps of
// a non-decreasing sequence: the low six bits of a byte are the gap and
// the top two scale it by 2^0, 2^6, 2^12 or 2^18, so inputs reach runs,
// bitmaps and sparse Elias-Fano partitions alike.
func fuzzDeltas(raw []byte) (partLog uint, vals []uint64) {
	if len(raw) == 0 {
		return DefaultPartLog, nil
	}
	partLog = 2 + uint(raw[0])%7
	var cur uint64
	for _, b := range raw[1:] {
		cur += uint64(b&0x3f) << (6 * (b >> 6))
		vals = append(vals, cur)
	}
	return partLog, vals
}

// fuzzDrainLimit bounds the elements a decoded sequence is read for: a
// crafted header of run partitions can claim billions of elements at no
// cost in bytes.
const fuzzDrainLimit = 1 << 20

// FuzzPEF checks partitioned Elias-Fano from both sides of its encoding.
// Read as gaps, the bytes build a sequence that must decode to its values,
// with NextGEQ agreeing with a linear scan. Read as an encoding, they must
// either be refused by DecodePartitioned or give a sequence whose every
// element Access, Next and NextBatch read alike, without a panic.
func FuzzPEF(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 1, 1, 1, 1, 1, 1, 1})          // one run
	f.Add([]byte{3, 0, 0, 2, 0x41, 1, 0xc1, 0, 3, 0x80}) // duplicates, jumps
	// Partitions of four: a run, a bitmap and an Elias-Fano partition.
	f.Add([]byte{0, 1, 1, 1, 1, 1, 2, 1, 3, 0x41, 0x42, 0x43, 0x81})
	for _, partLog := range []uint{2, 5, DefaultPartLog} {
		var vals []uint64
		for i := uint64(0); i < 300; i++ {
			vals = append(vals, i*i/7+i/3)
		}
		var buf bytes.Buffer
		w := codec.NewWriter(&buf)
		NewPartitionedLog(vals, partLog).Encode(w)
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		partLog, vals := fuzzDeltas(raw)
		var buf bytes.Buffer
		w := codec.NewWriter(&buf)
		NewPartitionedLog(vals, partLog).Encode(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		p, err := DecodePartitioned(codec.NewReader(&buf))
		if err != nil {
			t.Fatalf("decode of an encoded sequence: %v", err)
		}
		if p.Len() != len(vals) {
			t.Fatalf("Len %d, want %d", p.Len(), len(vals))
		}
		// Every position by Access, and by a cursor Reset there: both
		// rebuild the partition's bounds from the directory. Then the
		// same through the select directory.
		it := p.MakeIterator(0)
		for _, indexed := range []bool{false, true} {
			if indexed {
				p.IndexSelect()
			}
			for i, v := range vals {
				if got := p.Access(i); got != v {
					t.Fatalf("indexed %v: Access(%d) = %d, want %d", indexed, i, got, v)
				}
				if i+1 < len(vals) {
					if v1, v2 := p.AccessPair(i); v1 != v || v2 != vals[i+1] {
						t.Fatalf("indexed %v: AccessPair(%d) = %d, %d; want %d, %d", indexed, i, v1, v2, v, vals[i+1])
					}
				}
				it.Reset(i)
				if got, ok := it.Next(); !ok || got != v {
					t.Fatalf("indexed %v: Reset(%d)+Next = %d, %v; want %d", indexed, i, got, ok, v)
				}
			}
		}
		// Probe at up to 32 values, each, one above and one below.
		for i := 0; i < len(vals); i += 1 + len(vals)/32 {
			for _, x := range []uint64{vals[i], vals[i] + 1, vals[i] - min(vals[i], 1)} {
				want := 0
				for want < len(vals) && vals[want] < x {
					want++
				}
				pos, v, ok := p.NextGEQ(x)
				if want == len(vals) {
					if ok {
						t.Fatalf("NextGEQ(%d) = (%d, %d), want none", x, pos, v)
					}
					continue
				}
				if !ok || pos != want || v != vals[want] {
					t.Fatalf("NextGEQ(%d) = (%d, %d, %v), want (%d, %d)", x, pos, v, ok, want, vals[want])
				}
			}
		}

		q, err := DecodePartitioned(codec.NewBytesReader(raw, nil))
		if err != nil {
			return
		}
		// Drain one iterator by Next and one by NextBatch, in step with
		// Access.
		n := min(q.Len(), fuzzDrainLimit)
		one, batched := q.MakeIterator(0), q.MakeIterator(0)
		var batch [7]uint64
		for i := 0; i < n; i += len(batch) {
			m := batched.NextBatch(batch[:min(len(batch), n-i)])
			if m != min(len(batch), n-i) {
				t.Fatalf("NextBatch at %d of %d read %d values", i, q.Len(), m)
			}
			for j, v := range batch[:m] {
				a := q.Access(i + j)
				w, ok := one.Next()
				if !ok || a != v || w != v {
					t.Fatalf("at %d: Access %d, Next %d (%v), NextBatch %d", i+j, a, w, ok, v)
				}
			}
		}
		if n == q.Len() {
			if v, ok := one.Next(); ok {
				t.Fatalf("Next reads %d past Len %d", v, n)
			}
			if batched.NextBatch(batch[:]) != 0 {
				t.Fatalf("NextBatch reads past Len %d", n)
			}
		}
	})
}
