package bits

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"rdfindexes/internal/codec"
)

func TestVectorAppendAndGetBit(t *testing.T) {
	var v Vector
	pattern := []bool{true, false, true, true, false, false, true, false}
	for i := 0; i < 200; i++ {
		v.AppendBit(pattern[i%len(pattern)])
	}
	if v.Len() != 200 {
		t.Fatalf("Len() = %d, want 200", v.Len())
	}
	for i := 0; i < 200; i++ {
		if got, want := v.Bit(i), pattern[i%len(pattern)]; got != want {
			t.Fatalf("Bit(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestVectorAppendBitsCrossingWords(t *testing.T) {
	var v Vector
	vals := []uint64{5, 1023, 0, 77, 1 << 36, 42, 0xffffffffffffffff, 3}
	widths := []uint{3, 10, 1, 7, 37, 6, 64, 2}
	for i, val := range vals {
		if widths[i] < 64 {
			val &= 1<<widths[i] - 1
		}
		v.AppendBits(val, widths[i])
	}
	pos := 0
	for i, val := range vals {
		if widths[i] < 64 {
			val &= 1<<widths[i] - 1
		}
		if got := v.Get(pos, widths[i]); got != val {
			t.Fatalf("Get(%d, %d) = %d, want %d", pos, widths[i], got, val)
		}
		pos += int(widths[i])
	}
}

func TestVectorSet(t *testing.T) {
	v := NewVector(300)
	rng := rand.New(rand.NewSource(1))
	type field struct {
		pos   int
		width uint
		val   uint64
	}
	var fields []field
	pos := 0
	for pos < 230 {
		w := uint(rng.Intn(64) + 1)
		val := rng.Uint64()
		if w < 64 {
			val &= 1<<w - 1
		}
		fields = append(fields, field{pos, w, val})
		pos += int(w)
	}
	for _, f := range fields {
		v.Set(f.pos, f.width, f.val)
	}
	for _, f := range fields {
		if got := v.Get(f.pos, f.width); got != f.val {
			t.Fatalf("Get(%d, %d) = %d, want %d", f.pos, f.width, got, f.val)
		}
	}
}

func TestVectorGetWidth64AlignedAndUnaligned(t *testing.T) {
	var v Vector
	v.AppendBits(0xdeadbeefcafebabe, 64)
	v.AppendBits(0x0123456789abcdef, 64)
	if got := v.Get(0, 64); got != 0xdeadbeefcafebabe {
		t.Fatalf("aligned Get = %#x", got)
	}
	// Unaligned 64-bit read spanning both words.
	lo, hi := uint64(0xdeadbeefcafebabe), uint64(0x0123456789abcdef)
	want := lo>>8 | hi<<56
	if got := v.Get(8, 64); got != want {
		t.Fatalf("unaligned Get = %#x, want %#x", got, want)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	f := func(vals []uint64, widthSeed uint8) bool {
		width := uint(widthSeed%64 + 1)
		var v Vector
		for _, x := range vals {
			if width < 64 {
				x &= 1<<width - 1
			}
			v.AppendBits(x, width)
		}
		var buf bytes.Buffer
		w := codec.NewWriter(&buf)
		v.Encode(w)
		if err := w.Flush(); err != nil {
			t.Logf("flush: %v", err)
			return false
		}
		got, err := DecodeVector(codec.NewReader(&buf))
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if got.Len() != v.Len() {
			return false
		}
		for i, x := range vals {
			if width < 64 {
				x &= 1<<width - 1
			}
			if got.Get(i*int(width), width) != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeVectorCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	w.Uvarint(1000) // claims 1000 bits
	w.Uint64s([]uint64{1, 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeVector(codec.NewReader(&buf)); err == nil {
		t.Fatal("DecodeVector accepted mismatched word count")
	}
}

func TestCompactVector(t *testing.T) {
	vals := []uint64{0, 1, 5, 1023, 512, 7, 0, 1000}
	c := NewCompact(vals)
	if c.Width() != 10 {
		t.Fatalf("Width() = %d, want 10", c.Width())
	}
	if c.Len() != len(vals) {
		t.Fatalf("Len() = %d, want %d", c.Len(), len(vals))
	}
	for i, v := range vals {
		if got := c.At(i); got != v {
			t.Fatalf("At(%d) = %d, want %d", i, got, v)
		}
	}
}

func TestWidthFor(t *testing.T) {
	cases := []struct {
		max  uint64
		want uint
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9},
		{1<<63 - 1, 63}, {1 << 63, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := WidthFor(c.max); got != c.want {
			t.Errorf("WidthFor(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestCompactRoundTrip(t *testing.T) {
	vals := make([]uint64, 500)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = rng.Uint64() % 100000
	}
	c := NewCompact(vals)
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	c.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCompact(codec.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got.At(i) != v {
			t.Fatalf("At(%d) = %d, want %d", i, got.At(i), v)
		}
	}
}

// TestDecodeCompactCountOverflow crafts a Compact header whose count
// times its width wraps to the (empty) vector's length: DecodeCompact
// must refuse it rather than return a vector that claims 2^58 values
// over no words.
func TestDecodeCompactCountOverflow(t *testing.T) {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	w.Byte(64)
	w.Uvarint(1 << 58)
	(&Vector{}).Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if c, err := DecodeCompact(codec.NewReader(&buf)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("DecodeCompact of 2^58 values in 0 bits: %v, %v; want ErrCorrupt", c, err)
	}
}
