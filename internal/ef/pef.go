package ef

import (
	"errors"
	"fmt"
	"math/bits"

	xbits "rdfindexes/internal/bits"
	"rdfindexes/internal/codec"
)

// Partition encodings. Each partition of consecutive values is stored
// relative to the exclusive lower bound given by the previous partition's
// upper bound, using whichever representation is smallest.
const (
	kindAllOnes = iota // consecutive run: nothing stored
	kindBitmap         // characteristic bitmap of the spanned interval
	kindEF             // inline Elias-Fano: 6-bit l, low bits, high bits
)

// DefaultPartLog is the default log2 of the partition size (256 values),
// a good space/time balance for the trie level sequences of the paper.
const DefaultPartLog = 8

// Partitioned is a partitioned Elias-Fano (PEF) encoded non-decreasing
// sequence. Compared to plain Elias-Fano it is smaller on clustered data
// and faster for bounded searches, at the price of slower random access.
//
// In memory the partition directory is decoded once into one 24-byte
// entry per partition, so that locating and entering a partition is a
// slice load and a search over upper bounds gallops over the entries and
// bisects them. The encoded form keeps the compact columns (Elias-Fano upper
// bounds, kind bytes, packed offsets); Encode re-derives them from the
// entries.
type Partitioned struct {
	n        int
	universe uint64
	partLog  uint // log2 of the partition size
	dir      []dirEntry
	payload  *xbits.Vector
	sel      []selectHint // per partition once IndexSelect built it, else nil
}

// selectHint is a partition's select directory: the number of its set
// bits before each of the payload words 1 to 14 of its region, as seven
// 9-bit fields a word (bits.FieldsLEQ9), 511 once the region has ended.
type selectHint [2]uint64

// dirEntry is one decoded directory entry. It keeps only what the
// neighbours do not give: partition k holds positions [k<<partLog,
// (k+1)<<partLog) and its exclusive lower bound is entry k-1's upper.
type dirEntry struct {
	upper uint64 // largest value
	// meta packs the partition's bit offset in the payload (from bit
	// 16 up), its kind (bits 8 to 15) and an Elias-Fano partition's
	// low-bit width (bits 0 to 7): an entry takes 16 bytes, not 24.
	meta uint64
}

func newDirEntry(upper uint64, off int, kind byte, l uint8) dirEntry {
	return dirEntry{upper, uint64(off)<<16 | uint64(kind)<<8 | uint64(l)}
}

// off is the partition's bit offset in the payload.
func (e *dirEntry) off() int { return int(e.meta >> 16) }

// kind is the partition's encoding.
func (e *dirEntry) kind() byte { return byte(e.meta >> 8) }

// l is an Elias-Fano partition's low-bit width.
func (e *dirEntry) l() uint8 { return uint8(e.meta) }

// partition is one partition as a read decodes it: its directory entry
// with the bounds the directory leaves implicit. It lives on the stack
// of the read.
type partition struct {
	base       uint64 // exclusive lower bound: the previous partition's upper bound
	upper      uint64 // largest value
	off        int    // bit offset of the partition in the payload
	start, end int    // positions of the first element and past the last
	kind       byte
	l          uint8 // low-bit width of an Elias-Fano partition
}

// part returns partition k.
func (p *Partitioned) part(k int) partition {
	e := &p.dir[k]
	pt := partition{upper: e.upper, off: e.off(), kind: e.kind(), l: e.l(), start: k << p.partLog}
	pt.end = min(pt.start+1<<p.partLog, p.n)
	if k > 0 {
		pt.base = p.dir[k-1].upper
	}
	return pt
}

// NewPartitioned encodes values (non-decreasing) with the default
// partition size.
func NewPartitioned(values []uint64) *Partitioned {
	return NewPartitionedLog(values, DefaultPartLog)
}

// NewPartitionedLog encodes values with partitions of 2^partLog values.
func NewPartitionedLog(values []uint64, partLog uint) *Partitioned {
	if partLog < 2 || partLog > 20 {
		panic(fmt.Sprintf("ef: invalid partition log %d", partLog))
	}
	n := len(values)
	p := &Partitioned{n: n, partLog: partLog, payload: xbits.WithCapacity(n)}
	if n > 0 {
		p.universe = values[n-1]
	}
	for i := 1; i < n; i++ {
		if values[i] < values[i-1] {
			panic(fmt.Sprintf("ef: sequence not monotone at %d: %d < %d", i, values[i], values[i-1]))
		}
	}
	for lo := 0; lo < n; lo += 1 << partLog {
		p.appendPartition(values, lo, min(lo+1<<partLog, n))
	}
	return p
}

// appendPartition encodes values[start:end] as the next partition and
// records its directory entry.
func (p *Partitioned) appendPartition(values []uint64, start, end int) {
	var base uint64
	if k := len(p.dir); k > 0 {
		base = p.dir[k-1].upper
	}
	part := values[start:end]
	ub := part[len(part)-1]
	off := p.payload.Len()
	kind, l := encodePartitionInto(p.payload, part, base, ub)
	p.dir = append(p.dir, newDirEntry(ub, off, kind, uint8(l)))
}

// encodePartitionInto appends the cheapest encoding of part (relative to
// the exclusive lower bound base, spanning up to ub) and returns its kind
// and, for Elias-Fano, its low-bit width.
func encodePartitionInto(payload *xbits.Vector, part []uint64, base, ub uint64) (byte, uint) {
	sz := len(part)
	span := ub - base

	strict := true
	for i, v := range part {
		if v <= base || (i > 0 && v <= part[i-1]) {
			strict = false
			break
		}
	}

	if strict && span == uint64(sz) {
		return kindAllOnes, 0 // part[j] == base + j + 1, nothing to store
	}

	l := lowBitsFor(sz, span)
	efCost := uint64(6) + uint64(sz)*uint64(l) + uint64(sz) + span>>l + 1
	if strict && span <= efCost {
		// Characteristic bitmap over (base, ub].
		start := payload.Len()
		for i := 0; i < int(span); i++ {
			payload.AppendBit(false)
		}
		for _, v := range part {
			payload.SetBit(start + int(v-base-1))
		}
		return kindBitmap, 0
	}

	// Inline Elias-Fano of the relative values.
	payload.AppendBits(uint64(l), 6)
	for _, v := range part {
		payload.AppendBits((v-base)&(1<<l-1), l)
	}
	highLen := sz + int(span>>l) + 1
	start := payload.Len()
	for i := 0; i < highLen; i++ {
		payload.AppendBit(false)
	}
	for i, v := range part {
		payload.SetBit(start + int((v-base)>>l) + i)
	}
	return kindEF, l
}

// columns returns the directory as the encoding stores it: upper bounds,
// payload offsets and kind bytes.
func (p *Partitioned) columns() (uppers, offs []uint64, kinds []byte) {
	uppers = make([]uint64, len(p.dir))
	offs = make([]uint64, len(p.dir), len(p.dir)+1)
	kinds = make([]byte, len(p.dir))
	for k := range p.dir {
		e := &p.dir[k]
		uppers[k], offs[k], kinds[k] = e.upper, uint64(e.off()), e.kind()
	}
	return uppers, offs, kinds
}

// decodeDirectory rebuilds the directory from its encoded columns in one
// sequential pass, and checks it against the payload so that no read of
// the decoded sequence can leave the payload or its partition. offsets
// holds at least one offset per partition.
func (p *Partitioned) decodeDirectory(upper *Sequence, kinds []byte, offsets *xbits.CompactVector) error {
	uppers := upper.MakeIterator(0)
	payloadLen := uint64(p.payload.Len())
	p.dir = make([]dirEntry, len(kinds))
	var base uint64
	start := 0
	for k, kind := range kinds {
		end := min(start+1<<p.partLog, p.n)
		limit := payloadLen
		if k+1 < len(kinds) {
			limit = offsets.At(k + 1)
		}
		off := offsets.At(k)
		ub, _ := uppers.Next()
		if off > limit || limit > payloadLen {
			return fmt.Errorf("%w: pef partition %d offset %d outside [%d, %d]", codec.ErrCorrupt, k, off, limit, payloadLen)
		}
		if ub < base {
			return fmt.Errorf("%w: pef partition %d upper bound %d below %d", codec.ErrCorrupt, k, ub, base)
		}
		pt := partition{base: base, upper: ub, off: int(off), start: start, end: end, kind: kind}
		if err := pt.check(p.payload, limit-off); err != nil {
			return fmt.Errorf("%w: pef partition %d: %v", codec.ErrCorrupt, k, err)
		}
		p.dir[k] = newDirEntry(ub, int(off), kind, pt.l)
		base, start = ub, end
	}
	if start != p.n || (len(kinds) > 0 && base != p.universe) {
		return fmt.Errorf("%w: pef directory ends at %d/%d, want %d/%d", codec.ErrCorrupt, start, base, p.n, p.universe)
	}
	return nil
}

// check validates a decoded entry whose encoding may use room payload
// bits from its offset, and sets its low-bit width. It guarantees what
// the reads rely on: the region lies inside those bits, holds one set
// bit per element, and its last element has the upper bound as value.
func (pt *partition) check(payload *xbits.Vector, room uint64) error {
	sz, span := uint64(pt.end-pt.start), pt.upper-pt.base
	switch pt.kind {
	case kindAllOnes:
		if span != sz {
			return fmt.Errorf("run spans %d for %d values", span, sz)
		}
		return nil
	case kindBitmap:
		if span > room {
			return errors.New("bitmap overruns the payload")
		}
	case kindEF:
		if room < 6 {
			return errors.New("overruns the payload")
		}
		pt.l = uint8(payload.Get(pt.off, 6)) // 6 bits: l <= 63
		// sz and span>>l are below room, a bit count of the payload, so
		// the sum cannot wrap.
		if sz >= room || span>>pt.l >= room || 6+sz*uint64(pt.l)+sz+span>>pt.l+1 > room {
			return errors.New("overruns the payload")
		}
	default:
		return fmt.Errorf("kind %d", pt.kind)
	}
	off, length := pt.region()
	if onesInRange(payload, off, length) != int(sz) {
		return errors.New("wrong number of values")
	}
	// The last set bit ends the bitmap; in Elias-Fano it is followed by
	// one zero and carries the upper bound's high part, and the last low
	// bits are the upper bound's.
	last := off + length - 1
	if pt.kind == kindEF {
		l := uint(pt.l)
		last--
		if payload.Bit(last+1) || payload.Get(pt.off+6+int(sz-1)*int(l), l) != span&(1<<l-1) {
			return errors.New("last value is not the upper bound")
		}
	}
	if !payload.Bit(last) {
		return errors.New("last value is not the upper bound")
	}
	return nil
}

// Len returns the number of elements.
func (p *Partitioned) Len() int { return p.n }

// Universe returns the largest value.
func (p *Partitioned) Universe() uint64 { return p.universe }

// partOf returns the partition holding position i.
func (p *Partitioned) partOf(i int) int { return i >> p.partLog }

// partGEQ returns the first partition at or after from whose upper bound
// is >= x. x must not exceed the universe. It gallops from from before
// it bisects, so a target a few partitions ahead costs a few probes.
func (p *Partitioned) partGEQ(from int, x uint64) int {
	lo, hi := from, from
	last := len(p.dir) - 1
	for step := 1; hi < last && p.dir[hi].upper < x; step <<= 1 {
		lo, hi = hi+1, min(hi+step, last)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.dir[mid].upper >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// region returns the payload bits a cursor scans for the partition's set
// bits: the bitmap itself, or the high bits of an Elias-Fano partition.
func (pt *partition) region() (off, length int) {
	switch pt.kind {
	case kindBitmap:
		return pt.off, int(pt.upper - pt.base)
	case kindEF:
		sz := pt.end - pt.start
		return pt.off + 6 + sz*int(pt.l), sz + int((pt.upper-pt.base)>>pt.l) + 1
	}
	return pt.off, 0
}

// onesInRange counts the set bits of payload[off, off+length).
func onesInRange(payload *xbits.Vector, off, length int) int {
	if length == 0 {
		return 0
	}
	words := payload.Words()
	first, last := off>>6, (off+length-1)>>6
	head := words[first] &^ (1<<(uint(off)&63) - 1)
	tailMask := ^uint64(0) >> (63 - uint(off+length-1)&63)
	if first == last {
		return bits.OnesCount64(head & tailMask)
	}
	c := bits.OnesCount64(head) + bits.OnesCount64(words[last]&tailMask)
	for _, w := range words[first+1 : last] {
		c += bits.OnesCount64(w)
	}
	return c
}

// IndexSelect adds a select directory, 16 bytes a partition, with which
// a random access finds the payload word of its element by two
// word-parallel comparisons instead of scanning the region for it: for
// a sequence read mostly at random, as the level a cross-compressed trie
// unmaps its ranks through. It must run before the sequence is shared.
// Partitions of more than 256 values have no directory (their counts
// need more than 9 bits).
func (p *Partitioned) IndexSelect() {
	if p.sel != nil || p.partLog > 8 {
		return
	}
	sel := make([]selectHint, len(p.dir))
	words := p.payload.Words()
	for k := range p.dir {
		pt := p.part(k)
		if pt.kind == kindAllOnes {
			continue
		}
		off, _ := pt.region()
		sz, w0 := pt.end-pt.start, off>>6
		ones := bits.OnesCount64(words[w0] &^ (1<<(uint(off)&63) - 1))
		// Every field starts at 511 and takes its count while the region
		// lasts: a word before which fewer than sz bits are set is not
		// past the region, so the next word is in the payload.
		h := selectHint{1<<63 - 1, 1<<63 - 1}
		for i := 0; i < 14 && ones < sz; i++ {
			h[i/7] ^= (511 ^ uint64(ones)) << (9 * uint(i%7))
			ones += bits.OnesCount64(words[w0+i+1])
		}
		sel[k] = h
	}
	p.sel = sel
}

// selectIn is selectFrom for element j of partition k, whose region
// starts at off: through the partition's select directory when the
// sequence has one, it starts at the word holding the bit.
//
//rdf:hotpath
func (p *Partitioned) selectIn(k, off, j int) int {
	if p.sel == nil {
		return selectFrom(p.payload, off, j)
	}
	h := &p.sel[k]
	w := xbits.FieldsLEQ9(h[0], j) + xbits.FieldsLEQ9(h[1], j)
	if w == 0 {
		return selectFrom(p.payload, off, j)
	}
	before := int(h[(w-1)/7] >> (9 * uint((w-1)%7)) & 511)
	word := (off>>6 + w) << 6
	return word - off + selectFrom(p.payload, word, j-before)
}

// selectFrom returns the position (relative to off) of the k-th set bit
// of the payload at or after bit off. It scans aligned words without a
// bound: the directory check at decode guarantees that a partition's
// region holds one set bit per element, so the bit of an element is
// found before the region ends.
//
//rdf:hotpath
func selectFrom(payload *xbits.Vector, off, k int) int {
	words := payload.Words()
	w := off >> 6
	cur := words[w] &^ (1<<(uint(off)&63) - 1)
	for {
		if c := bits.OnesCount64(cur); k >= c {
			k -= c
			w++
			cur = words[w]
			continue
		}
		return w<<6 + xbits.SelectInWord(cur, k) - off
	}
}

// nextGEQ returns the index within the partition of the first value >= x
// (absolute), with its value and the region position of its set bit (0
// for a run). ok is false when all values are smaller.
//
//rdf:hotpath
func (pt *partition) nextGEQ(payload *xbits.Vector, x uint64) (j int, v uint64, bit int, ok bool) {
	if x <= pt.base {
		x = pt.base // relative target becomes 0
	}
	if x > pt.upper {
		return pt.end - pt.start, 0, 0, false
	}
	off, length := pt.region()
	switch pt.kind {
	case kindAllOnes:
		if x <= pt.base+1 {
			return 0, pt.base + 1, 0, true
		}
		return int(x - pt.base - 1), x, 0, true
	case kindBitmap:
		rel := 0
		if x > pt.base+1 {
			rel = int(x - pt.base - 1)
		}
		// Count the values below rel a word at a time, then take the
		// first set bit at or after it.
		pos := 0
		for pos < length {
			w := min(64, length-pos)
			chunk := payload.Get(off+pos, uint(w))
			if pos+w <= rel {
				j += bits.OnesCount64(chunk)
				pos += w
				continue
			}
			if pos < rel {
				mask := uint64(1)<<uint(rel-pos) - 1
				j += bits.OnesCount64(chunk & mask)
				chunk &^= mask
			}
			if chunk != 0 {
				t := bits.TrailingZeros64(chunk)
				return j, pt.base + 1 + uint64(pos+t), pos + t, true
			}
			pos += w
		}
		return pt.end - pt.start, 0, 0, false
	default:
		l := uint(pt.l)
		lowOff := pt.off + 6
		rel := x - pt.base
		hx := int(rel >> l)
		// Elements with high part < hx all precede the hx-th zero of the
		// high bits: skip whole words by their zero counts until the word
		// holding it, and select it there. The elements before it number
		// its position minus hx.
		pos := 0
		if hx > 0 {
			zeros := 0
			for {
				w := min(64, length-pos)
				chunk := payload.Get(off+pos, uint(w))
				if z := w - bits.OnesCount64(chunk); zeros+z < hx {
					zeros += z
					pos += w
					continue
				}
				pos += xbits.SelectInWord(^chunk, hx-zeros-1) + 1
				break
			}
		}
		i := pos - hx
		// Scan the set bits from there: at most the bucket of hx precedes
		// the first value >= x.
		for pos < length {
			w := min(64, length-pos)
			chunk := payload.Get(off+pos, uint(w))
			for chunk != 0 {
				t := bits.TrailingZeros64(chunk)
				chunk &= chunk - 1
				v := pt.base + (uint64(pos+t-i)<<l | payload.Get(lowOff+i*int(l), l))
				if v >= x {
					return i, v, pos + t, true
				}
				i++
			}
			pos += w
		}
		return pt.end - pt.start, 0, 0, false
	}
}

// Access returns the i-th value. It reads only the directory fields
// the partition's kind needs.
//
//rdf:hotpath
func (p *Partitioned) Access(i int) uint64 {
	k := p.partOf(i)
	e := &p.dir[k]
	var base uint64
	if k > 0 {
		base = p.dir[k-1].upper
	}
	j := i - k<<p.partLog
	switch e.kind() {
	case kindAllOnes:
		return base + uint64(j) + 1
	case kindBitmap:
		return base + 1 + uint64(p.selectIn(k, e.off(), j))
	}
	l := uint(e.l())
	sz := min(1<<p.partLog, p.n-k<<p.partLog)
	low := p.payload.Get(e.off()+6+j*int(l), l)
	pos := p.selectIn(k, e.off()+6+sz*int(l), j)
	return base + (uint64(pos-j)<<l | low)
}

// AccessPair returns the i-th and (i+1)-th values. Within one partition
// it selects the i-th set bit once and takes the successor's as the next
// set bit, as Sequence.AccessPair does; trie pointer lookups (begin, end)
// are the hot caller. A pair that straddles two partitions is two
// Accesses.
//
//rdf:hotpath
func (p *Partitioned) AccessPair(i int) (uint64, uint64) {
	k := p.partOf(i)
	if p.partOf(i+1) != k || i+1 >= p.n {
		return p.Access(i), p.Access(i + 1)
	}
	e := &p.dir[k]
	var base uint64
	if k > 0 {
		base = p.dir[k-1].upper
	}
	j := i - k<<p.partLog
	switch e.kind() {
	case kindAllOnes:
		return base + uint64(j) + 1, base + uint64(j) + 2
	case kindBitmap:
		pos := p.selectIn(k, e.off(), j)
		return base + 1 + uint64(pos), base + 1 + uint64(nextOne(p.payload, e.off()+pos)-e.off())
	}
	l := uint(e.l())
	sz := min(1<<p.partLog, p.n-k<<p.partLog)
	low := e.off() + 6 + j*int(l)
	high := e.off() + 6 + sz*int(l)
	pos := p.selectIn(k, high, j)
	pos2 := nextOne(p.payload, high+pos) - high
	return base + (uint64(pos-j)<<l | p.payload.Get(low, l)),
		base + (uint64(pos2-j-1)<<l | p.payload.Get(low+int(l), l))
}

// nextOne returns the position of the first set bit of the payload after
// bit. It scans without a bound: callers ask only within a partition's
// region for an element that the region holds.
//
//rdf:hotpath
func nextOne(payload *xbits.Vector, bit int) int {
	words := payload.Words()
	bit++
	w := bit >> 6
	cur := words[w] &^ (1<<(uint(bit)&63) - 1)
	for cur == 0 {
		w++
		cur = words[w]
	}
	return w<<6 + bits.TrailingZeros64(cur)
}

// NextGEQ returns the position and value of the first element >= x. ok is
// false when every element is smaller than x, in which case pos is Len().
func (p *Partitioned) NextGEQ(x uint64) (pos int, val uint64, ok bool) {
	return p.NextGEQFrom(0, x)
}

// NextGEQFrom is NextGEQ when no element before position from exceeds
// x: the directory search starts at from's partition, and the position
// returned precedes from only on an element equal to x.
func (p *Partitioned) NextGEQFrom(from int, x uint64) (pos int, val uint64, ok bool) {
	if from >= p.n || x > p.universe {
		return p.n, 0, false
	}
	pt := p.part(p.partGEQ(p.partOf(from), x))
	j, v, _, ok := pt.nextGEQ(p.payload, x)
	if !ok {
		// Only a directory whose upper bound is not its last value.
		return p.n, 0, false
	}
	return pt.start + j, v, true
}

// PartIterator iterates a Partitioned sequence. Entering a partition
// positions a bit cursor with one in-partition select; each Next advances
// by trailing-zero scanning, so short iterations over long partitions do
// not pay for decoding the whole partition.
type PartIterator struct {
	p *Partitioned
	i int // global index of the next element
	k int // current partition, -1 when none is entered
	// end is partition k's end position, 0 when none is entered, so that
	// i >= end means the next read enters a partition.
	end int
	// state of partition k
	base      uint64
	kind      byte
	l         uint
	lowOff    int
	regionOff int    // payload offset of the bit region being scanned
	word      int    // payload word index of the loaded chunk
	chunk     uint64 // loaded payload word with consumed bits cleared
	inPart    int    // partition-relative index of the next element
}

// MakeIterator returns an iterator positioned at index from, as a value
// that callers embed without a separate allocation.
func (p *Partitioned) MakeIterator(from int) PartIterator {
	return PartIterator{p: p, i: from, k: -1}
}

// MakeIteratorBase returns an iterator positioned at index from together
// with the value at from-1, decoding the predecessor on the way instead
// of paying a separate random access. from must be in [1, Len()].
func (p *Partitioned) MakeIteratorBase(from int) (PartIterator, uint64) {
	it := PartIterator{p: p, i: from - 1, k: -1}
	base, _ := it.Next()
	return it, base
}

// Reset repositions the iterator at index from. The partition cursor is
// re-established lazily on the next read.
func (it *PartIterator) Reset(from int) {
	it.i = from
	it.k = -1
	it.end = 0
}

// enterNext enters the partition holding the next element: the one
// after the current partition when the cursor ran off its end, else the
// one the directory gives for the position.
func (it *PartIterator) enterNext() {
	k := it.k + 1
	if it.k < 0 || it.i != it.end {
		k = it.p.partOf(it.i)
	}
	it.enter(k, it.i-k<<it.p.partLog, -1)
}

// enter initializes the cursor at element j of partition k, whose set bit
// sits at region position bit, or is found by a select when bit < 0.
func (it *PartIterator) enter(k, j, bit int) {
	pt := it.p.part(k)
	it.k, it.end = k, pt.end
	it.base, it.kind, it.l = pt.base, pt.kind, uint(pt.l)
	it.inPart = j
	if pt.kind == kindAllOnes {
		return
	}
	it.lowOff = pt.off + 6
	it.regionOff, _ = pt.region()
	if bit < 0 {
		bit = it.p.selectIn(k, it.regionOff, j)
	}
	abs := it.regionOff + bit
	it.word = abs >> 6
	it.chunk = it.p.payload.Words()[it.word] &^ (1<<(uint(abs)&63) - 1) // clear bits before bit
}

// nextBit returns the region position of the next set bit. Like
// selectFrom it reads aligned payload words without a bound: it is only
// called for an element of the partition, whose bit the region holds.
func (it *PartIterator) nextBit() int {
	for it.chunk == 0 {
		it.word++
		it.chunk = it.p.payload.Words()[it.word]
	}
	t := bits.TrailingZeros64(it.chunk)
	it.chunk &= it.chunk - 1
	return it.word<<6 + t - it.regionOff
}

// Next returns the next value, or ok=false at the end.
func (it *PartIterator) Next() (uint64, bool) {
	if it.i >= it.p.n {
		return 0, false
	}
	if it.i >= it.end {
		it.enterNext()
	}
	var v uint64
	switch it.kind {
	case kindAllOnes:
		v = it.base + uint64(it.inPart) + 1
	case kindBitmap:
		v = it.base + 1 + uint64(it.nextBit())
	default:
		pos := it.nextBit()
		hi := uint64(pos - it.inPart)
		v = it.base + (hi<<it.l | it.p.payload.Get(it.lowOff+it.inPart*int(it.l), it.l))
	}
	it.inPart++
	it.i++
	return v, true
}

// NextBatch decodes up to len(buf) consecutive values into buf and
// returns how many were written (0 iff the sequence is exhausted). The
// encoding kind is dispatched once per partition instead of once per
// element, and within a partition the bit region is consumed by
// word-level scans.
func (it *PartIterator) NextBatch(buf []uint64) int {
	p := it.p
	n := 0
	for n < len(buf) && it.i < p.n {
		if it.i >= it.end {
			it.enterNext()
		}
		m := min(it.end-it.i, len(buf)-n)
		out := buf[n : n+m]
		switch it.kind {
		case kindAllOnes:
			v := it.base + uint64(it.inPart)
			for j := range out {
				v++
				out[j] = v
			}
		case kindBitmap:
			base := it.base + 1
			for j := range out {
				out[j] = base + uint64(it.nextBit())
			}
		default:
			l := it.l
			inPart := it.inPart
			lowPos := it.lowOff + inPart*int(l)
			payload := p.payload
			base := it.base
			for j := range out {
				pos := it.nextBit()
				hi := uint64(pos - inPart - j)
				out[j] = base + (hi<<l | payload.Get(lowPos, l))
				lowPos += int(l)
			}
		}
		it.inPart += m
		it.i += m
		n += m
	}
	return n
}

// SkipTo advances the iterator to the first element at or after the
// current position whose value is >= x, consumes it, and returns its
// index and value. Partitions whose upper bound is below x are skipped
// by a binary search of the directory without touching their payload.
func (it *PartIterator) SkipTo(x uint64) (int, uint64, bool) {
	p := it.p
	if it.i >= p.n {
		return p.n, 0, false
	}
	if x > p.universe {
		it.i = p.n
		return p.n, 0, false
	}
	// Locate the target with the directory and the partition's bits; the
	// cursor is positioned once, at the end, when the target is known.
	inCursor := it.i < it.end
	k := it.k
	if !inCursor {
		k = p.partOf(it.i)
	}
	if x > p.dir[k].upper {
		k = p.partGEQ(k+1, x)
		inCursor = false
	}
	pt := p.part(k)
	j, _, bit, ok := pt.nextGEQ(p.payload, x)
	if !ok {
		it.i = p.n
		return p.n, 0, false
	}
	if !inCursor || j > it.inPart {
		it.enter(k, j, bit)
		it.i = pt.start + j
	}
	// The element at the cursor now satisfies >= x (by monotonicity when
	// it was already at or past position j); consume it.
	v, ok := it.Next()
	if !ok {
		return p.n, 0, false
	}
	return it.i - 1, v, true
}

// SizeBits returns the storage footprint in bits: what Encode writes
// (payload, Elias-Fano upper bounds, kind bytes, packed offsets) from an
// 8-byte aligned offset, which is what the paper's bits/triple counts.
// The decoded directory that replaces the encoded columns in memory is
// not included.
func (p *Partitioned) SizeBits() uint64 { return 8 * uint64(codec.Size(p.Encode)) }

// encodedColumns returns the directory columns as Encode writes them;
// the offsets end with the payload length.
func (p *Partitioned) encodedColumns() (uppers *Sequence, offsets *xbits.CompactVector, kinds []byte) {
	u, offs, kinds := p.columns()
	return New(u), xbits.NewCompact(append(offs, uint64(p.payload.Len()))), kinds
}

// Encode writes the sequence to w.
func (p *Partitioned) Encode(w *codec.Writer) {
	uppers, offsets, kinds := p.encodedColumns()
	w.Uvarint(uint64(p.n))
	w.Uvarint(p.universe)
	w.Byte(byte(p.partLog))
	uppers.Encode(w)
	w.Bytes(kinds)
	offsets.Encode(w)
	p.payload.Encode(w)
}

// DecodePartitioned reads a sequence written by Encode.
func DecodePartitioned(r *codec.Reader) (*Partitioned, error) {
	p := &Partitioned{}
	p.n = int(r.Uvarint())
	p.universe = r.Uvarint()
	p.partLog = uint(r.Byte())
	if p.partLog < 2 || p.partLog > 20 || p.n < 0 {
		return nil, r.Fail(fmt.Errorf("%w: pef header", codec.ErrCorrupt))
	}
	upper, err := Decode(r)
	if err != nil {
		return nil, err
	}
	kinds := r.BytesBuf()
	offsets, err := xbits.DecodeCompact(r)
	if err != nil {
		return nil, err
	}
	if p.payload, err = xbits.DecodeVector(r); err != nil {
		return nil, err
	}
	numParts := (p.n + 1<<p.partLog - 1) >> p.partLog
	if len(kinds) != numParts || upper.Len() != numParts || offsets.Len() != numParts+1 {
		return nil, r.Fail(fmt.Errorf("%w: pef partition count", codec.ErrCorrupt))
	}
	if offsets.At(numParts) != uint64(p.payload.Len()) {
		return nil, r.Fail(fmt.Errorf("%w: pef payload length", codec.ErrCorrupt))
	}
	if err := p.decodeDirectory(upper, kinds, offsets); err != nil {
		return nil, r.Fail(err)
	}
	return p, nil
}
