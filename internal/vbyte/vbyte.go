// Package vbyte implements Variable-Byte coding (Thiel and Heaps) and a
// blocked layout for non-decreasing integer sequences: d-gaps are coded in
// blocks of 128 values with a directory of block-leading values and byte
// offsets for skipping. The paper benchmarks this family as VByte+SIMD;
// this implementation is scalar (Go has no stdlib SIMD), which preserves
// the family's qualitative trade-off: fastest sequential decoding, poor
// random access.
package vbyte

import (
	"fmt"

	"rdfindexes/internal/bits"
	"rdfindexes/internal/codec"
)

// BlockLen is the number of integers per block.
const BlockLen = 128

// Put appends the VByte encoding of v to buf and returns the extended
// slice. Each byte carries 7 data bits; the high bit marks continuation.
func Put(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// Get decodes a VByte value starting at data[pos] and returns it together
// with the position of the next value.
func Get(data []byte, pos int) (uint64, int) {
	var v uint64
	var shift uint
	for {
		b := data[pos]
		pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, pos
		}
		shift += 7
	}
}

// Blocked is a blocked VByte encoded non-decreasing sequence.
type Blocked struct {
	n        int
	universe uint64
	data     []byte
	firsts   *bits.CompactVector // leading value of each block
	offsets  *bits.CompactVector // byte offset of each block's gap data
}

// NewBlocked encodes values, which must be non-decreasing.
func NewBlocked(values []uint64) *Blocked {
	b := &Blocked{n: len(values)}
	if len(values) == 0 {
		b.firsts = bits.NewCompact(nil)
		b.offsets = bits.NewCompact(nil)
		return b
	}
	b.universe = values[len(values)-1]
	numBlocks := (len(values) + BlockLen - 1) / BlockLen
	firsts := make([]uint64, 0, numBlocks)
	offsets := make([]uint64, 0, numBlocks)
	var prev uint64
	for i, v := range values {
		if v < prev {
			panic(fmt.Sprintf("vbyte: sequence not monotone at %d: %d < %d", i, v, prev))
		}
		if i%BlockLen == 0 {
			firsts = append(firsts, v)
			offsets = append(offsets, uint64(len(b.data)))
		} else {
			b.data = Put(b.data, v-prev)
		}
		prev = v
	}
	b.firsts = bits.NewCompact(firsts)
	b.offsets = bits.NewCompact(offsets)
	return b
}

// Len returns the number of elements.
func (b *Blocked) Len() int { return b.n }

// Universe returns the largest value.
func (b *Blocked) Universe() uint64 { return b.universe }

// blockLen returns the number of values in block k.
func (b *Blocked) blockLen(k int) int {
	if (k+1)*BlockLen <= b.n {
		return BlockLen
	}
	return b.n - k*BlockLen
}

// Access returns the i-th value by decoding its block prefix.
func (b *Blocked) Access(i int) uint64 {
	k := i / BlockLen
	v := b.firsts.At(k)
	pos := int(b.offsets.At(k))
	for j := k * BlockLen; j < i; j++ {
		var gap uint64
		gap, pos = Get(b.data, pos)
		v += gap
	}
	return v
}

// NextGEQ returns the position and value of the first element >= x. ok is
// false when every element is smaller than x.
func (b *Blocked) NextGEQ(x uint64) (int, uint64, bool) {
	if b.n == 0 || x > b.universe {
		return b.n, 0, false
	}
	// Binary search the last block whose leading value is strictly below
	// x (duplicates of x may span a block boundary); the answer is in that
	// block or is the next block's leading value.
	if b.firsts.At(0) >= x {
		return 0, b.firsts.At(0), true
	}
	lo, hi := 0, b.firsts.Len()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if b.firsts.At(mid) < x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	k := lo
	v := b.firsts.At(k)
	pos := int(b.offsets.At(k))
	blockEnd := k*BlockLen + b.blockLen(k)
	for i := k * BlockLen; i < blockEnd; i++ {
		if i > k*BlockLen {
			var gap uint64
			gap, pos = Get(b.data, pos)
			v += gap
		}
		if v >= x {
			return i, v, true
		}
	}
	if blockEnd < b.n {
		return blockEnd, b.firsts.At(k + 1), true
	}
	return b.n, 0, false
}

// Iterator iterates the sequence sequentially.
type Iterator struct {
	b   *Blocked
	i   int
	pos int
	v   uint64
}

// MakeIterator returns an iterator positioned at index from, as a value
// that callers embed without a separate allocation.
func (b *Blocked) MakeIterator(from int) Iterator {
	it := Iterator{b: b}
	it.Reset(from)
	return it
}

// MakeIteratorBase returns an iterator positioned at index from together
// with the value at from-1, decoding the predecessor on the way instead
// of paying a separate random access. from must be in [1, Len()].
func (b *Blocked) MakeIteratorBase(from int) (Iterator, uint64) {
	it := Iterator{b: b}
	it.Reset(from - 1)
	base, _ := it.Next()
	return it, base
}

// Reset repositions the iterator at index from, decoding the block prefix
// in front of from.
func (it *Iterator) Reset(from int) {
	b := it.b
	if from >= b.n {
		it.i = b.n
		return
	}
	it.i = from
	// Position the cursor so that v holds the value at from-1 and pos
	// points at the gap for from; Next advances into position from.
	k := from / BlockLen
	it.v = b.firsts.At(k)
	it.pos = int(b.offsets.At(k))
	for j := k*BlockLen + 1; j < from; j++ {
		var gap uint64
		gap, it.pos = Get(b.data, it.pos)
		it.v += gap
	}
}

// Next returns the next value, or ok=false at the end.
func (it *Iterator) Next() (uint64, bool) {
	if it.i >= it.b.n {
		return 0, false
	}
	if it.i%BlockLen == 0 {
		k := it.i / BlockLen
		it.v = it.b.firsts.At(k)
		it.pos = int(it.b.offsets.At(k))
	} else {
		var gap uint64
		gap, it.pos = Get(it.b.data, it.pos)
		it.v += gap
	}
	it.i++
	return it.v, true
}

// NextBatch decodes up to len(buf) consecutive values into buf and
// returns how many were written (0 iff the sequence is exhausted). Gap
// decoding runs in a tight loop over the byte stream with the prefix-sum
// accumulator kept in a register.
func (it *Iterator) NextBatch(buf []uint64) int {
	b := it.b
	n := 0
	data := b.data
	for n < len(buf) && it.i < b.n {
		if it.i%BlockLen == 0 {
			k := it.i / BlockLen
			it.v = b.firsts.At(k)
			it.pos = int(b.offsets.At(k))
			buf[n] = it.v
			n++
			it.i++
			continue
		}
		blockEnd := (it.i/BlockLen + 1) * BlockLen
		if blockEnd > b.n {
			blockEnd = b.n
		}
		m := blockEnd - it.i
		if m > len(buf)-n {
			m = len(buf) - n
		}
		v, pos := it.v, it.pos
		out := buf[n : n+m]
		for j := range out {
			var gap uint64
			var shift uint
			for {
				byt := data[pos]
				pos++
				gap |= uint64(byt&0x7f) << shift
				if byt < 0x80 {
					break
				}
				shift += 7
			}
			v += gap
			out[j] = v
		}
		it.v, it.pos = v, pos
		n += m
		it.i += m
	}
	return n
}

// SkipTo advances the iterator to the first element at or after the
// current position whose value is >= x, consumes it, and returns its
// index and value. Whole blocks are skipped through the block-leading
// directory before the final block is scanned.
func (it *Iterator) SkipTo(x uint64) (int, uint64, bool) {
	b := it.b
	if it.i >= b.n {
		return b.n, 0, false
	}
	if x > b.universe {
		it.i = b.n
		return b.n, 0, false
	}
	curK := it.i / BlockLen
	if b.firsts.At(curK) < x {
		// Binary search the last block at or after curK whose leading
		// value is still below x; the answer lies in it or at the next
		// block's leading value.
		lo, hi := curK, b.firsts.Len()-1
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if b.firsts.At(mid) < x {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		if lo > curK {
			it.i = lo * BlockLen // Next reloads the block directory here
		}
	}
	for {
		v, ok := it.Next()
		if !ok {
			return b.n, 0, false
		}
		if v >= x {
			return it.i - 1, v, true
		}
	}
}

// SizeBits returns the storage footprint in bits.
func (b *Blocked) SizeBits() uint64 {
	return uint64(len(b.data))*8 + b.firsts.SizeBits() + b.offsets.SizeBits() + 2*64
}

// Encode writes the sequence to w.
func (b *Blocked) Encode(w *codec.Writer) {
	w.Uvarint(uint64(b.n))
	w.Uvarint(b.universe)
	w.Bytes(b.data)
	b.firsts.Encode(w)
	b.offsets.Encode(w)
}

// DecodeBlocked reads a sequence written by Encode.
func DecodeBlocked(r *codec.Reader) (*Blocked, error) {
	b := &Blocked{}
	b.n = int(r.Uvarint())
	b.universe = r.Uvarint()
	b.data = r.BytesBuf()
	var err error
	if b.firsts, err = bits.DecodeCompact(r); err != nil {
		return nil, err
	}
	if b.offsets, err = bits.DecodeCompact(r); err != nil {
		return nil, err
	}
	numBlocks := (b.n + BlockLen - 1) / BlockLen
	if b.n > 0 && (b.firsts.Len() != numBlocks || b.offsets.Len() != numBlocks) {
		return nil, r.Fail(fmt.Errorf("%w: vbyte block directory", codec.ErrCorrupt))
	}
	return b, nil
}
