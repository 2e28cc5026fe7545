// Package bits provides the plain bit-level storage primitives used by all
// compressed sequences in this repository: append-only bit vectors,
// fixed-width integer arrays (the paper's "Compact" representation), and a
// rank/select directory in the style of rank9 with sampled select hints.
package bits

import (
	"fmt"

	"rdfindexes/internal/codec"
)

// Vector is a growable sequence of bits backed by 64-bit words. The zero
// value is an empty vector ready to use.
type Vector struct {
	words []uint64
	n     int
}

// NewVector returns a zero-filled vector of length n bits.
func NewVector(n int) *Vector {
	return &Vector{words: make([]uint64, (n+63)/64), n: n}
}

// WithCapacity returns an empty vector with storage preallocated for n bits.
func WithCapacity(n int) *Vector {
	return &Vector{words: make([]uint64, 0, (n+63)/64)}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the backing words. The bits at positions >= Len() of the
// last word are guaranteed to be zero.
func (v *Vector) Words() []uint64 { return v.words }

// Bit reports whether bit i is set.
func (v *Vector) Bit(i int) bool {
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetBit sets bit i to 1. The bit must be within Len().
func (v *Vector) SetBit(i int) {
	v.words[i>>6] |= 1 << (uint(i) & 63)
}

// AppendBit appends a single bit.
func (v *Vector) AppendBit(b bool) {
	if v.n>>6 == len(v.words) {
		v.words = append(v.words, 0)
	}
	if b {
		v.words[v.n>>6] |= 1 << (uint(v.n) & 63)
	}
	v.n++
}

// AppendBits appends the width low-order bits of val, least significant
// first. width must be in [0, 64] and val must fit in width bits.
func (v *Vector) AppendBits(val uint64, width uint) {
	if width == 0 {
		return
	}
	off := uint(v.n) & 63
	if off == 0 {
		v.words = append(v.words, val)
	} else {
		v.words[len(v.words)-1] |= val << off
		if off+width > 64 {
			v.words = append(v.words, val>>(64-off))
		}
	}
	v.n += int(width)
}

// Get returns the width bits starting at position pos, least significant
// first. width must be in [0, 64].
func (v *Vector) Get(pos int, width uint) uint64 {
	if width == 0 {
		return 0
	}
	w := pos >> 6
	off := uint(pos) & 63
	x := v.words[w] >> off
	if off+width > 64 {
		x |= v.words[w+1] << (64 - off)
	}
	if width == 64 {
		return x
	}
	return x & (1<<width - 1)
}

// Set overwrites the width bits starting at position pos with val.
func (v *Vector) Set(pos int, width uint, val uint64) {
	if width == 0 {
		return
	}
	w := pos >> 6
	off := uint(pos) & 63
	if width == 64 {
		if off == 0 {
			v.words[w] = val
			return
		}
		mask := uint64(1)<<off - 1
		v.words[w] = v.words[w]&mask | val<<off
		v.words[w+1] = v.words[w+1]&^mask | val>>(64-off)
		return
	}
	mask := uint64(1)<<width - 1
	v.words[w] = v.words[w]&^(mask<<off) | (val&mask)<<off
	if off+width > 64 {
		spill := off + width - 64
		hi := uint64(1)<<spill - 1
		v.words[w+1] = v.words[w+1]&^hi | (val&mask)>>(64-off)
	}
}

// SizeBits returns the storage footprint of the vector in bits.
func (v *Vector) SizeBits() uint64 {
	return uint64(len(v.words))*64 + 64 // words + length field
}

// Encode writes the vector to w.
func (v *Vector) Encode(w *codec.Writer) {
	w.Uvarint(uint64(v.n))
	w.Uint64s(v.words)
}

// DecodeVector reads a vector written by Encode.
func DecodeVector(r *codec.Reader) (*Vector, error) {
	n := r.Uvarint()
	words := r.Uint64s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if uint64(len(words)) != (n+63)/64 {
		return nil, r.Fail(fmt.Errorf("%w: bit vector length %d does not match %d words", codec.ErrCorrupt, n, len(words)))
	}
	return &Vector{words: words, n: int(n)}, nil
}
