package bits

import (
	"fmt"
	"math/bits"

	"rdfindexes/internal/codec"
)

// CompactVector stores n integers using a fixed number of bits per value:
// ceil(log2(max+1)) bits. It is the paper's "Compact" representation, with
// O(1) random access implemented by a couple of shifts and masks.
type CompactVector struct {
	bv    Vector
	width uint
	n     int
}

// WidthFor returns the number of bits needed to store values up to max.
// It returns at least 1 so that a vector of zeros still occupies one bit
// per element and positions remain addressable.
func WidthFor(max uint64) uint {
	if max == 0 {
		return 1
	}
	return uint(bits.Len64(max))
}

// NewCompact packs values using the minimal width for the largest value.
func NewCompact(values []uint64) *CompactVector {
	var max uint64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	return NewCompactWidth(values, WidthFor(max))
}

// NewCompactWidth packs values using the given width. Every value must fit
// in width bits.
func NewCompactWidth(values []uint64, width uint) *CompactVector {
	if width == 0 || width > 64 {
		panic(fmt.Sprintf("bits: invalid compact width %d", width))
	}
	c := &CompactVector{width: width, n: len(values)}
	c.bv.words = make([]uint64, 0, (len(values)*int(width)+63)/64)
	for _, v := range values {
		c.bv.AppendBits(v, width)
	}
	return c
}

// At returns the value at index i.
func (c *CompactVector) At(i int) uint64 {
	return c.bv.Get(i*int(c.width), c.width)
}

// Fill decodes the values at indexes [i, i+len(buf)) into buf. It is the
// bulk counterpart of At: the bit cursor advances sequentially instead of
// being recomputed per element, which is what the batched sequence
// iterators build on.
func (c *CompactVector) Fill(i int, buf []uint64) {
	w := c.width
	pos := i * int(w)
	for j := range buf {
		buf[j] = c.bv.Get(pos, w)
		pos += int(w)
	}
}

// Len returns the number of values.
func (c *CompactVector) Len() int { return c.n }

// Width returns the number of bits per value.
func (c *CompactVector) Width() uint { return c.width }

// SizeBits returns the storage footprint in bits.
func (c *CompactVector) SizeBits() uint64 {
	return c.bv.SizeBits() + 2*64
}

// Encode writes the vector to w.
func (c *CompactVector) Encode(w *codec.Writer) {
	w.Byte(byte(c.width))
	w.Uvarint(uint64(c.n))
	c.bv.Encode(w)
}

// DecodeCompact reads a CompactVector written by Encode.
func DecodeCompact(r *codec.Reader) (*CompactVector, error) {
	width := uint(r.Byte())
	n := int(r.Uvarint())
	bv, err := DecodeVector(r)
	if err != nil {
		return nil, err
	}
	if width == 0 || width > 64 || bv.Len() != n*int(width) {
		return nil, r.Fail(fmt.Errorf("%w: compact vector header", codec.ErrCorrupt))
	}
	return &CompactVector{bv: *bv, width: width, n: n}, nil
}
