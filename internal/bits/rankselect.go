package bits

import (
	"math/bits"
)

// selSampleLog is the sampling rate of the select hints: the block index of
// every 2^selSampleLog-th set (resp. unset) bit is recorded. At 2^9 the
// hinted window almost always collapses to a single superblock (EF upper
// vectors run at ~50% density, so 512 ones span about one 512-bit block),
// making Select1 a near-constant three-memory-access operation for 0.07
// bits of directory per element.
const selSampleLog = 9

// blockBits is the rank directory granularity: one superblock counter and
// one packed word-counter entry per 512 bits, i.e. 25% overhead.
const blockBits = 512

// RankSelect augments a Vector with constant-time rank and near
// constant-time select over both ones and zeroes (rank9-style directory
// plus sampled select hints). The underlying vector must not be modified
// after construction.
type RankSelect struct {
	v *Vector
	// super[b] is the number of ones before block b; super[numBlocks] is
	// the total.
	super []uint64
	// sub[b] packs, in 9-bit fields, the number of ones in block b before
	// each of words 1..7.
	sub []uint64
	// sel1[h] (sel0[h]) is the block containing the (h<<selSampleLog)-th
	// one (zero).
	sel1  []uint32
	sel0  []uint32
	ones  int
	zeros int
}

// NewRankSelect builds the rank/select directory for v.
func NewRankSelect(v *Vector) *RankSelect {
	numBlocks := (v.n + blockBits - 1) / blockBits
	if numBlocks == 0 {
		numBlocks = 1
	}
	r := &RankSelect{
		v:     v,
		super: make([]uint64, numBlocks+1),
		sub:   make([]uint64, numBlocks),
	}
	words := v.words
	var cum uint64
	for b := 0; b < numBlocks; b++ {
		r.super[b] = cum
		var inBlock uint64
		var packed uint64
		for j := 0; j < 8; j++ {
			if j > 0 {
				packed |= inBlock << (9 * uint(j-1))
			}
			idx := b*8 + j
			if idx < len(words) {
				inBlock += uint64(bits.OnesCount64(words[idx]))
			}
		}
		r.sub[b] = packed
		cum += inBlock
	}
	r.super[numBlocks] = cum
	r.ones = int(cum)
	r.zeros = v.n - r.ones

	r.sel1 = r.buildHints(numBlocks, r.ones, func(b int) uint64 { return r.super[b] })
	r.sel0 = r.buildHints(numBlocks, r.zeros, func(b int) uint64 {
		return uint64(b*blockBits) - r.super[b]
	})
	return r
}

// buildHints records, for every sampled k, the block containing the k-th
// one (or zero) according to the cumulative function cumAt.
func (r *RankSelect) buildHints(numBlocks, total int, cumAt func(int) uint64) []uint32 {
	if total == 0 {
		return nil
	}
	numHints := (total-1)>>selSampleLog + 1
	hints := make([]uint32, numHints)
	b := 0
	for h := 0; h < numHints; h++ {
		k := uint64(h) << selSampleLog
		for b+1 < numBlocks && cumAt(b+1) <= k {
			b++
		}
		hints[h] = uint32(b)
	}
	return hints
}

// Ones returns the total number of set bits.
func (r *RankSelect) Ones() int { return r.ones }

// Zeros returns the total number of unset bits.
func (r *RankSelect) Zeros() int { return r.zeros }

// Vector returns the underlying bit vector.
func (r *RankSelect) Vector() *Vector { return r.v }

func (r *RankSelect) subCount(b, word int) uint64 {
	if word == 0 {
		return 0
	}
	return r.sub[b] >> (9 * uint(word-1)) & 0x1ff
}

// Rank1 returns the number of ones in positions [0, i). i may equal Len().
func (r *RankSelect) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= r.v.n {
		return r.ones
	}
	b := i / blockBits
	word := (i / 64) & 7
	c := r.super[b] + r.subCount(b, word)
	if rem := uint(i) & 63; rem != 0 {
		c += uint64(bits.OnesCount64(r.v.words[i/64] & (1<<rem - 1)))
	}
	return int(c)
}

// Rank0 returns the number of zeros in positions [0, i).
func (r *RankSelect) Rank0(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= r.v.n {
		return r.zeros
	}
	return i - r.Rank1(i)
}

// Select1 returns the position of the k-th (0-based) set bit. k must be in
// [0, Ones()).
func (r *RankSelect) Select1(k int) int {
	// Locate the block via the sampled hint, then binary search the
	// superblock counters within the hinted window.
	h := k >> selSampleLog
	lo := int(r.sel1[h])
	hi := len(r.super) - 2 // last block index
	if h+1 < len(r.sel1) {
		hi = int(r.sel1[h+1])
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.super[mid] <= uint64(k) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	b := lo
	rem := uint64(k) - r.super[b]
	// The word holding the target is the number of packed counters that
	// are <= rem: the counters are non-decreasing, so they form a prefix.
	word := bits.OnesCount64(leqStep9(r.sub[b], rem*onesStep9))
	rem -= r.subCount(b, word)
	idx := b*8 + word
	return idx*64 + selectInWord(r.v.words[idx], int(rem))
}

// onesStep9 has the low bit of each of the seven 9-bit fields of a packed
// sub-block counter word set; msbsStep9 has their high bits.
const (
	onesStep9 = 1<<0 | 1<<9 | 1<<18 | 1<<27 | 1<<36 | 1<<45 | 1<<54
	msbsStep9 = 0x100 * onesStep9
)

// leqStep9 compares the seven 9-bit fields of x and y as unsigned
// integers in parallel (rank9/select9, Vigna 2008) and returns a word
// with the low bit of each field set where x's field <= y's. The
// subtraction runs on the low eight bits under a guard bit, so no borrow
// crosses a field; the two xor terms settle the fields whose high bits
// differ.
func leqStep9(x, y uint64) uint64 {
	return ((((y | msbsStep9) - (x &^ msbsStep9)) | (x ^ y)) ^ (x &^ y)) & msbsStep9 >> 8
}

// FieldsLEQ9 returns how many of the seven 9-bit fields of x, the lowest
// first, are <= k, which must be below 512.
func FieldsLEQ9(x uint64, k int) int {
	return bits.OnesCount64(leqStep9(x, uint64(k)*onesStep9))
}

// Select0 returns the position of the k-th (0-based) unset bit. k must be
// in [0, Zeros()).
func (r *RankSelect) Select0(k int) int {
	zerosBefore := func(b int) uint64 { return uint64(b*blockBits) - r.super[b] }
	h := k >> selSampleLog
	lo := int(r.sel0[h])
	hi := len(r.super) - 2
	if h+1 < len(r.sel0) {
		hi = int(r.sel0[h+1])
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if zerosBefore(mid) <= uint64(k) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	b := lo
	rem := uint64(k) - zerosBefore(b)
	// Zeros in block b before word j: 64*j - subCount(b, j), valid for the
	// words that lie entirely within the vector; the tail word is masked.
	word := 0
	for word < 7 {
		next := uint64(64*(word+1)) - r.subCount(b, word+1)
		if b*blockBits+64*(word+1) > r.v.n || next > rem {
			break
		}
		word++
	}
	rem -= uint64(64*word) - r.subCount(b, word)
	idx := b*8 + word
	w := ^r.v.words[idx]
	if tail := r.v.n - idx*64; tail < 64 {
		w &= 1<<uint(tail) - 1
	}
	return idx*64 + selectInWord(w, int(rem))
}

// selectByte[b][k] is the position of the k-th set bit in byte b.
var selectByte [256][8]uint8

func init() {
	for b := 0; b < 256; b++ {
		k := 0
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				selectByte[b][k] = uint8(i)
				k++
			}
		}
	}
}

// SelectInWord returns the position of the k-th (0-based) set bit of w.
// k must be smaller than the number of set bits.
func SelectInWord(w uint64, k int) int { return selectInWord(w, k) }

// selectInWord returns the position of the k-th (0-based) set bit of w,
// branch-free except for the final byte-table lookup: SWAR popcounts give
// the cumulative ones per byte, a parallel comparison against k locates
// the byte, and the table finishes within it.
func selectInWord(w uint64, k int) int {
	const onesStep = 0x0101010101010101
	const msbsStep = 0x8080808080808080
	byteSums := w - w>>1&0x5555555555555555
	byteSums = byteSums&0x3333333333333333 + byteSums>>2&0x3333333333333333
	byteSums = (byteSums + byteSums>>4) & 0x0f0f0f0f0f0f0f0f
	byteSums *= onesStep // byte i holds popcount of bytes 0..i
	kStep := uint64(k) * onesStep
	// A byte's msb survives iff its cumulative count is <= k; their number
	// is the index of the byte containing the k-th set bit.
	b := bits.OnesCount64(((kStep | msbsStep) - byteSums) & msbsStep)
	shift := uint(b) * 8
	byteRank := k - int(byteSums<<8>>shift&0xff)
	return int(shift) + int(selectByte[uint8(w>>shift)][byteRank])
}

// SizeBits returns the directory storage footprint in bits, excluding the
// underlying vector.
func (r *RankSelect) SizeBits() uint64 {
	return uint64(len(r.super)+len(r.sub))*64 + uint64(len(r.sel1)+len(r.sel0))*32
}
