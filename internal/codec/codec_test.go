package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint64(math.MaxUint64)
	w.Uint32(12345)
	w.Byte(7)
	w.Uvarint(300)
	w.Uint64s([]uint64{1, 2, 3})
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

// encodeWords writes lead arbitrary bytes and then a word array of n
// words, returning the output and the offset of the array's payload.
func encodeWords(t *testing.T, lead, n int) ([]byte, int, []uint64) {
	t.Helper()
	words := make([]uint64, n)
	for i := range words {
		words[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < lead; i++ {
		w.Byte(0xaa)
	}
	w.Uint64s(words)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), buf.Len() - 8*n, words
}

// TestWordArraysAligned checks that every word array lands 8-aligned
// from the writer's start whatever precedes it, behind zero pad bytes,
// and decodes back to the same words.
func TestWordArraysAligned(t *testing.T) {
	for lead := 0; lead < 16; lead++ {
		for _, n := range []int{0, 1, 3, 200} {
			data, payload, words := encodeWords(t, lead, n)
			if payload%8 != 0 {
				t.Fatalf("lead %d, n %d: payload at offset %d", lead, n, payload)
			}
			prefix := lead + 1 // one length byte for n < 128
			if n >= 128 {
				prefix++
			}
			for _, b := range data[prefix:payload] {
				if b != 0 {
					t.Fatalf("lead %d, n %d: non-zero pad %x", lead, n, data[prefix:payload])
				}
			}
			r := NewReader(bytes.NewReader(data))
			for i := 0; i < lead; i++ {
				r.Byte()
			}
			got := r.Uint64s()
			if r.Err() != nil || r.Offset() != len(data) || (n > 0 && !reflect.DeepEqual(got, words)) {
				t.Fatalf("lead %d, n %d: decoded %v (err %v, offset %d of %d)", lead, n, got, r.Err(), r.Offset(), len(data))
			}
		}
	}
}

// TestWordArrayViews checks that a decoded word array and byte slice
// alias the input instead of copying it, that the byte slice is
// capacity-clipped so appending to it cannot write into the input, and
// that an input at an unaligned address still decodes, by copy.
func TestWordArrayViews(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes([]byte("abc"))
	w.Uint64s([]uint64{7, 8, 9})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	in, err := ReadAligned(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := NewBytesReader(in, nil)
	b := r.BytesBuf()
	words := r.Uint64s()
	if r.Err() != nil || string(b) != "abc" || len(words) != 3 {
		t.Fatalf("decoded %q %v, err %v", b, words, r.Err())
	}
	if &b[0] != &in[1] || cap(b) != 3 {
		t.Fatal("BytesBuf is not a capacity-clipped view of the input")
	}
	payload := len(in) - 24
	if unsafe.Pointer(&words[0]) != unsafe.Pointer(&in[payload]) {
		t.Fatal("Uint64s copied an aligned array instead of viewing it")
	}
	if HostLittleEndian {
		in[payload] = 42
		if words[0] != 42 {
			t.Fatal("the view does not alias the input")
		}
		in[payload] = 7
	}
	_ = append(b, 'x')
	if in[4] != 3 { // the word count's length prefix
		t.Fatal("append to a BytesBuf result wrote into the input")
	}

	// The same bytes one address off alignment: a copy with equal words.
	shifted := make([]byte, len(in)+1)
	copy(shifted[1:], in)
	r = NewBytesReader(shifted[1:], nil)
	r.BytesBuf()
	if got := r.Uint64s(); r.Err() != nil || !reflect.DeepEqual(got, []uint64{7, 8, 9}) {
		t.Fatalf("unaligned decode = %v, err %v", got, r.Err())
	}
}

// TestNonZeroPadCorrupt flips each pad byte in front of a word array:
// the reader must refuse it, since pad bytes lie outside every checksum.
func TestNonZeroPadCorrupt(t *testing.T) {
	data, payload, _ := encodeWords(t, 0, 2)
	for off := 1; off < payload; off++ {
		mut := append([]byte(nil), data...)
		mut[off] = 1
		r := NewReader(bytes.NewReader(mut))
		if got := r.Uint64s(); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("pad byte %d set: %v, err %v; want ErrCorrupt", off, got, r.Err())
		}
	}
}

// TestLengthBounds checks that every length prefix is bounded by the
// bytes left: an input cut anywhere inside a word array, a byte slice or
// a string fails with ErrCorrupt and a nil result, as does a prefix that
// claims more elements than the input holds.
func TestLengthBounds(t *testing.T) {
	data, _, _ := encodeWords(t, 3, 300)
	for cut := 4; cut < len(data); cut++ {
		r := NewBytesReader(data[:cut], nil)
		r.Byte()
		r.Byte()
		r.Byte()
		if got := r.Uint64s(); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("cut at %d: %d words, err %v; want nil and ErrCorrupt", cut, len(got), r.Err())
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.String("hello")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < buf.Len(); cut++ {
		r := NewBytesReader(buf.Bytes()[:cut], nil)
		if got := r.BytesBuf(); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("cut at %d: %q, err %v; want nil and ErrCorrupt", cut, got, r.Err())
		}
	}
	for _, claim := range []uint64{2, 1 << 40, 1<<64 - 1} {
		buf.Reset()
		w := NewWriter(&buf)
		w.Uvarint(claim)
		w.Uint64(0) // 8 bytes left: room for the pad and at most one word
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewBytesReader(buf.Bytes(), nil)
		if got := r.Uint64s(); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("claim %d: %d words, err %v; want ErrCorrupt", claim, len(got), r.Err())
		}
	}
}
