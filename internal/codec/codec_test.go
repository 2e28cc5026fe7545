package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint64(math.MaxUint64)
	w.Uint32(12345)
	w.Byte(7)
	w.Uvarint(300)
	w.Uint64s([]uint64{1, 2, 3})
	w.Uint32s([]uint32{9, 8})
	w.Bytes([]byte("hello"))
	w.String("world")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	if got := r.Uint64(); got != math.MaxUint64 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Uint32(); got != 12345 {
		t.Fatalf("Uint32 = %d", got)
	}
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Uint64s(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Uint64s = %v", got)
	}
	if got := r.Uint32s(); len(got) != 2 || got[0] != 9 {
		t.Fatalf("Uint32s = %v", got)
	}
	if got := r.BytesBuf(); string(got) != "hello" {
		t.Fatalf("BytesBuf = %q", got)
	}
	if got := r.String(); got != "world" {
		t.Fatalf("String = %q", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestUvarintQuick(t *testing.T) {
	f := func(vals []uint64) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, v := range vals {
			w.Uvarint(v)
		}
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		for _, v := range vals {
			if r.Uvarint() != v {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint64(42)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:4] // cut mid-value
	r := NewReader(bytes.NewReader(data))
	r.Uint64()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("truncated read produced %v, want ErrCorrupt", r.Err())
	}
	// Error is sticky: further reads stay failed and return zero values.
	if got := r.Uint64(); got != 0 {
		t.Fatalf("read after error = %d, want 0", got)
	}
}

func TestHugeLengthPrefixRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(1 << 60) // absurd element count
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if got := r.Uint64s(); got != nil || r.Err() == nil {
		t.Fatal("oversized slice length was not rejected")
	}
}

func TestWriterWritten(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint64(1)
	w.Byte(2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Written() != 9 {
		t.Fatalf("Written = %d, want 9", w.Written())
	}
}

// TestWordArraysChunked checks the chunked Uint64s/Uint32s decoders
// against a per-word reference at sizes around the chunk boundary
// (1024 words of 8 bytes fill one chunk): values, the Read() count and
// the CRC32C between StartChecksum and StopChecksum must all agree, and
// a payload truncated at any byte must fail with ErrCorrupt and a nil
// slice.
func TestWordArraysChunked(t *testing.T) {
	for _, n := range []int{0, 1, 1023, 1024, 1025, 3000} {
		w64 := make([]uint64, n)
		w32 := make([]uint32, n)
		for i := range w64 {
			w64[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
			w32[i] = uint32(w64[i] >> 17)
		}
		for _, c := range []struct {
			name  string
			write func(*Writer)
			bulk  func(*Reader) (any, bool)
			ref   func(*Reader) any
		}{
			{"Uint64s", func(w *Writer) { w.Uint64s(w64) },
				func(r *Reader) (any, bool) { s := r.Uint64s(); return s, s == nil },
				func(r *Reader) any {
					s := make([]uint64, r.Uvarint())
					for i := range s {
						s[i] = r.Uint64()
					}
					return s
				}},
			{"Uint32s", func(w *Writer) { w.Uint32s(w32) },
				func(r *Reader) (any, bool) { s := r.Uint32s(); return s, s == nil },
				func(r *Reader) any {
					s := make([]uint32, r.Uvarint())
					for i := range s {
						s[i] = r.Uint32()
					}
					return s
				}},
		} {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			w.Byte(0xaa) // a leading byte so the checksummed span starts mid-stream
			c.write(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			decode := func(words func(*Reader) any) (any, int64, uint32, error) {
				r := NewReader(bytes.NewReader(data))
				r.Byte()
				r.StartChecksum()
				got := words(r)
				return got, r.Read(), r.StopChecksum(), r.Err()
			}
			got, n1, crc1, err := decode(func(r *Reader) any { s, _ := c.bulk(r); return s })
			want, n2, crc2, err2 := decode(c.ref)
			if err != nil || err2 != nil {
				t.Fatalf("%s n=%d: errors %v / %v", c.name, n, err, err2)
			}
			if n > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s n=%d: bulk decode differs from per-word decode", c.name, n)
			}
			if n1 != n2 || n1 != int64(len(data)) || crc1 != crc2 {
				t.Fatalf("%s n=%d: Read() %d vs %d (len %d), crc %08x vs %08x", c.name, n, n1, n2, len(data), crc1, crc2)
			}
			for cut := 1; cut < len(data); cut++ {
				r := NewReader(bytes.NewReader(data[:cut]))
				r.Byte()
				if _, isNil := c.bulk(r); !isNil || !errors.Is(r.Err(), ErrCorrupt) {
					t.Fatalf("%s n=%d cut at %d: nil=%v err=%v, want nil slice and ErrCorrupt", c.name, n, cut, isNil, r.Err())
				}
			}
		}
	}
}
