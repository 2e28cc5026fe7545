// Package dict implements a front-coded compressed string dictionary
// mapping sorted strings to dense integer IDs and back. The paper treats
// the string dictionary as a separate problem (Section 1) and excludes it
// from all measurements; this implementation exists so the end-to-end
// tools and examples can ingest real N-Triples data.
//
// Layout: strings are sorted and grouped into buckets of fixed size. The
// first string of each bucket, its head, is stored verbatim; the rest
// are front coded with a shared tail: the prefix length shared with the
// previous string, the middle bytes after it, and the length of a tail
// copied from the end of the head. Sorted RDF terms share tails as much
// as prefixes — a typed literal's ^^<datatype> and an @lang tag end every
// neighbour — so a tail is stored once per bucket instead of once per
// term. Lookup binary searches the bucket heads and scans one bucket.
package dict

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/ef"
)

// DefaultBucketSize balances space (larger buckets share more prefixes)
// against lookup latency (a lookup scans one bucket).
const DefaultBucketSize = 16

// MaxBytes bounds a dictionary's front-coded bytes: bucket offsets are
// uint32, as IDs are. New and Fold refuse to build past it, and Decode
// refuses a stored dictionary that claims more.
const MaxBytes = math.MaxUint32

// Reader is the read side shared by the immutable front-coded Dict and
// the mutable Overlay: everything the query path (term resolution,
// result rendering, statistics) needs, and nothing the write path adds.
type Reader interface {
	// Len returns the number of strings.
	Len() int
	// Locate returns the ID of s, or ok=false if absent.
	Locate(s string) (int, bool)
	// Extract returns the string with the given ID.
	Extract(id int) (string, bool)
	//rdf:nonretaining
	// ExtractAppend appends the string with the given ID to buf and
	// returns the extended buffer; buf is returned unchanged when the ID
	// is out of range. It never allocates beyond growing buf.
	ExtractAppend(buf []byte, id int) ([]byte, bool)
	// SizeBits returns the storage footprint in bits.
	SizeBits() uint64
}

// Dict is an immutable front-coded dictionary. IDs are the ranks of the
// strings in sorted order, starting at 0.
type Dict struct {
	n          int
	bucketSize int
	data       []byte
	// offsets holds the byte offset of each bucket in data, then
	// len(data). On disk it is Elias-Fano coded; Decode expands it once
	// so every lookup indexes a plain slice.
	offsets []uint32
	// owner keeps the memory data views (a mapped store file) alive for
	// as long as the dictionary is reachable; nil when built in memory.
	owner any
}

// New builds a dictionary over strs, which must be sorted and distinct.
func New(strs []string, bucketSize int) (*Dict, error) {
	b := newBuilder(bucketSize)
	for _, s := range strs {
		if err := add(b, s); err != nil {
			return nil, err
		}
	}
	return b.finish(), nil
}

// builder appends sorted, distinct strings to a front-coded layout one
// at a time; New and Overlay.Fold share it.
type builder struct {
	d     *Dict
	last  []byte // the previous string: LCP source and order check
	head  []byte // the current bucket's head: tail source
	limit uint64 // the most front-coded bytes allowed, MaxBytes
}

func newBuilder(bucketSize int) *builder {
	if bucketSize <= 0 {
		bucketSize = DefaultBucketSize
	}
	// No dictionary holds more strings than MaxBytes (each takes a
	// byte), so a larger bucket is the same bucket.
	bucketSize = min(bucketSize, MaxBytes)
	return &builder{d: &Dict{bucketSize: bucketSize}, limit: MaxBytes}
}

// add appends s, which must sort strictly after the previous string. A
// bucket's first string is its verbatim head. Every other one is stored
// as its LCP with the previous string, the lengths of its middle and of
// its tail, and the middle: the tail is the longest suffix of the rest
// of s that ends the head too, and the decoders copy it from there.
func add[T string | []byte](b *builder, s T) error {
	d := b.d
	lcp := commonPrefix(b.last, s)
	if d.n > 0 && (lcp == len(s) || lcp < len(b.last) && b.last[lcp] > s[lcp]) {
		return fmt.Errorf("dict: input not sorted/distinct at %d (%q >= %q)", d.n, b.last, s)
	}
	if d.n%d.bucketSize == 0 {
		d.offsets = append(d.offsets, uint32(len(d.data)))
		d.data = appendUvarint(d.data, uint64(len(s)))
		d.data = append(d.data, s...)
		b.head = append(b.head[:0], s...)
	} else {
		rest := s[lcp:]
		tail := 0
		for tail < len(rest) && tail < len(b.head) && rest[len(rest)-1-tail] == b.head[len(b.head)-1-tail] {
			tail++
		}
		d.data = appendUvarint(d.data, uint64(lcp))
		d.data = appendUvarint(d.data, uint64(len(rest)-tail))
		d.data = appendUvarint(d.data, uint64(tail))
		d.data = append(d.data, rest[:len(rest)-tail]...)
	}
	if uint64(len(d.data)) > b.limit {
		return fmt.Errorf("dict: front-coded bytes pass the %d-byte limit at string %d", b.limit, d.n)
	}
	b.last = append(b.last[:lcp], s[lcp:]...)
	d.n++
	return nil
}

// finish closes the offsets with the end of the data and returns the
// dictionary; the builder must not be used afterwards.
func (b *builder) finish() *Dict {
	b.d.offsets = append(b.d.offsets, uint32(len(b.d.data)))
	return b.d
}

// FromUnsorted sorts and deduplicates strs, builds the dictionary, and
// returns it. The input slice is not modified.
func FromUnsorted(strs []string, bucketSize int) (*Dict, error) {
	sorted := append([]string(nil), strs...)
	sort.Strings(sorted)
	w := 0
	for i, s := range sorted {
		if i == 0 || s != sorted[w-1] {
			sorted[w] = s
			w++
		}
	}
	return New(sorted[:w], bucketSize)
}

func commonPrefix[A, B string | []byte](a A, b B) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

//rdf:hotpath
func readUvarint(data []byte, pos int) (uint64, int) {
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

// readEntry reads the three lengths that open a bucket entry and returns
// the offset of its middle. The scans call it only for entries that
// shortEntry does not read.
func readEntry(data []byte, pos int) (lcp, mid, tail uint64, next int) {
	lcp, pos = readUvarint(data, pos)
	mid, pos = readUvarint(data, pos)
	tail, pos = readUvarint(data, pos)
	return lcp, mid, tail, pos
}

// shortEntry reads the lengths of the entry at pos when all three are
// one byte, as nearly all are, from one word load; ok is false
// otherwise. It stays small enough to inline into the scans.
//
//rdf:hotpath
func shortEntry(data []byte, pos int) (lcp, mid, tail uint64, ok bool) {
	if pos+4 > len(data) {
		return 0, 0, 0, false
	}
	w := binary.LittleEndian.Uint32(data[pos:])
	return uint64(w & 0xff), uint64(w >> 8 & 0xff), uint64(w >> 16 & 0xff), w&0x808080 == 0
}

// head returns the verbatim head of bucket k and the offset of the
// bucket's first entry.
//
//rdf:hotpath
func (d *Dict) head(k int) ([]byte, int) {
	l, pos := readUvarint(d.data, int(d.offsets[k]))
	end := pos + int(l)
	return d.data[pos:end], end
}

// bucket splits a valid ID into its bucket and its entry index there.
// IDs and the bucket size fit 32 bits (every string takes at least a
// byte of the MaxBytes, which Decode checks), and a 32-bit division is
// several times cheaper than a 64-bit one on common CPUs.
//
//rdf:hotpath
func (d *Dict) bucket(id int) (int, int) {
	k := uint32(id) / uint32(d.bucketSize)
	return int(k), id - int(k)*d.bucketSize
}

// Len returns the number of strings.
func (d *Dict) Len() int { return d.n }

// Extract returns the string with the given ID.
func (d *Dict) Extract(id int) (string, bool) {
	b, ok := d.ExtractAppend(nil, id)
	if !ok {
		return "", false
	}
	return string(b), true
}

// ExtractAppend appends the string with the given ID to buf and returns
// the extended buffer. The bucket is decoded directly into buf, one
// middle splice per entry: the shared prefix already sits at buf's end
// after the previous entry, so each step truncates to the stored LCP
// and appends the middle. The entry's tail stays pending — the last
// tail bytes of the head, which is in hand — and is copied only as far
// as the next entry's prefix reaches into it, which the sort order makes
// rare, and in full for the term asked for. No intermediate strings are
// materialized, and the only allocation is growing buf when its
// capacity runs out.
//
//rdf:hotpath
//rdf:nonretaining
func (d *Dict) ExtractAppend(buf []byte, id int) ([]byte, bool) {
	if id < 0 || id >= d.n {
		return buf, false
	}
	k, j := d.bucket(id)
	head, pos := d.head(k)
	base := len(buf)
	buf = append(buf, head...)
	tail := 0 // bytes of head's end that follow buf's term, not yet copied
	for ; j > 0; j-- {
		lcp, mid, tl, ok := shortEntry(d.data, pos)
		p := pos + 3
		if !ok {
			lcp, mid, tl, p = readEntry(d.data, pos)
		}
		if have := uint64(len(buf) - base); lcp > have {
			if lcp-have > uint64(tail) {
				panic(errEntry)
			}
			buf = append(buf, head[len(head)-tail:][:lcp-have]...)
		}
		if tl > uint64(len(head)) {
			panic(errEntry)
		}
		pos = p + int(mid)
		buf = append(buf[:base+int(lcp)], d.data[p:pos]...)
		tail = int(tl)
	}
	return append(buf, head[len(head)-tail:]...), true
}

// errEntry is the panic value of a decode that meets a bucket entry
// claiming a longer prefix than the term before it has, or a longer tail
// than its head. The lengths come from the stored bytes, which a crafted
// section can set to anything under a valid checksum. A middle or head
// that runs past the data fails its slice bounds, but an LCP inside the
// buffer's capacity would splice stale bytes into the term, and a tail
// past the head would read the bytes before it, so the decoders and the
// bucket scan check both.
var errEntry = fmt.Errorf("%w: dict bucket entry", codec.ErrCorrupt)

// cmpHeader compares the verbatim header of bucket k with s, starting
// at byte from, which both are known to share, a word at a time. It
// returns the ordering (-1, 0, +1 for header <, =, > s) and the full
// common prefix length.
//
//rdf:hotpath
func (d *Dict) cmpHeader(k int, s string, from int) (int, int) {
	h, _ := d.head(k)
	i, n := from, min(len(h), len(s))
	for i+8 <= n && binary.LittleEndian.Uint64(h[i:]) == le64(s[i:]) {
		i += 8
	}
	for i < n && h[i] == s[i] {
		i++
	}
	switch {
	case i < n:
		if h[i] < s[i] {
			return -1, i
		}
		return 1, i
	case len(h) < len(s):
		return -1, i
	case len(h) > len(s):
		return 1, i
	}
	return 0, i
}

// le64 is binary.LittleEndian.Uint64 over a string, so cmpHeader
// compares a word per step without converting s.
//
//rdf:hotpath
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// searchBucket finds s within bucket k, whose header sorts before s
// and shares its first match bytes with it, without materializing any
// entry: it tracks match, the longest common prefix of s and the last
// entry passed, and compares each entry through its stored LCP value.
// An entry whose LCP disagrees with match is ordered against s
// immediately — LCP below match means the entry already sorts past s
// (early exit), LCP above match means it still sorts before s (skipped
// without touching its bytes) — and only entries whose LCP equals match
// compare their middle, then their tail, with s; the tail is read from
// the head in hand.
//
//rdf:hotpath
func (d *Dict) searchBucket(k int, s string, match int) (int, bool) {
	head, pos := d.head(k)
	limit := d.bucketSize
	if rem := d.n - k*d.bucketSize; rem < limit {
		limit = rem
	}
	for i := 1; i < limit; i++ {
		lcp, mid, tail, ok := shortEntry(d.data, pos)
		p := pos + 3
		if !ok {
			lcp, mid, tail, p = readEntry(d.data, pos)
		}
		pos = p + int(mid)
		switch {
		case lcp < uint64(match):
			// The entry diverges from its predecessor before the prefix
			// matched so far, and sorted order makes it diverge upward.
			return 0, false
		case lcp > uint64(match):
			// The entry extends the predecessor beyond the first byte
			// where s already differs; it still sorts before s.
			continue
		}
		if tail > uint64(len(head)) {
			panic(errEntry)
		}
		c, j := cmpFrom(d.data[p:pos], s, match)
		if c == 0 {
			c, j = cmpFrom(head[len(head)-int(tail):], s, j)
		}
		switch {
		case c > 0:
			return 0, false // entry > s
		case c == 0 && j == len(s):
			return k*d.bucketSize + i, true
		}
		match = j // entry < s, or a proper prefix of it: keep scanning
	}
	return 0, false
}

// cmpFrom compares b with s from byte j on. It returns 0 when all of b
// matches (s may go on), +1 when b sorts after s at their first
// difference or s ends first, -1 when b sorts before s, and the offset
// in s of the first byte not matched.
//
//rdf:hotpath
func cmpFrom(b []byte, s string, j int) (int, int) {
	i := 0
	for i < len(b) && j+i < len(s) && b[i] == s[j+i] {
		i++
	}
	switch {
	case i == len(b):
		return 0, j + i
	case j+i == len(s) || b[i] > s[j+i]:
		return 1, j + i
	}
	return -1, j + i
}

// Locate returns the ID of s, or ok=false if absent. A binary search
// over the verbatim bucket headers finds the last header <= s, and the
// in-bucket scan compares through the stored LCP values with early exit
// instead of materializing entries. The header search is LCP-bounded:
// every header sorting between the two bracketing probes shares with s
// at least the shorter of their common prefixes with s, so each probe
// resumes the comparison there instead of at byte 0.
//
//rdf:hotpath
func (d *Dict) Locate(s string) (int, bool) {
	// Invariant: header(lo) < s < header(hi), where lo = -1 and hi =
	// numBuckets stand for -inf and +inf; llo and lhi are the common
	// prefix lengths of s with header(lo) and header(hi).
	lo, hi := -1, len(d.offsets)-1
	llo, lhi := 0, 0
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		c, l := d.cmpHeader(mid, s, min(llo, lhi))
		switch {
		case c < 0:
			lo, llo = mid, l
		case c > 0:
			hi, lhi = mid, l
		default:
			return mid * d.bucketSize, true
		}
	}
	if lo < 0 {
		return 0, false
	}
	return d.searchBucket(lo, s, llo)
}

// SizeBits returns the in-memory footprint in bits.
func (d *Dict) SizeBits() uint64 {
	return uint64(len(d.data))*8 + uint64(len(d.offsets))*32 + 2*64
}

// Space splits a dictionary's front-coded bytes between its parts.
type Space struct {
	Heads   int // bytes of the verbatim bucket heads, lengths included
	Entries int // bytes of the entries coded against them
}

// Space reports how the dictionary's front-coded bytes split between
// bucket heads and entries.
func (d *Dict) Space() Space {
	var sp Space
	for k := 0; k+1 < len(d.offsets); k++ {
		_, end := d.head(k)
		sp.Heads += end - int(d.offsets[k])
	}
	sp.Entries = len(d.data) - sp.Heads
	return sp
}

// Encode writes the dictionary to w.
func (d *Dict) Encode(w *codec.Writer) {
	w.Uvarint(uint64(d.n))
	w.Uvarint(uint64(d.bucketSize))
	w.Bytes(d.data)
	offsets := make([]uint64, len(d.offsets))
	for i, o := range d.offsets {
		offsets[i] = uint64(o)
	}
	ef.New(offsets).Encode(w)
}

// Decode reads a dictionary written by Encode.
func Decode(r *codec.Reader) (*Dict, error) {
	d := &Dict{owner: r.Owner()}
	d.n = int(r.Uvarint())
	d.bucketSize = int(r.Uvarint())
	d.data = r.BytesBuf()
	offsets, err := ef.Decode(r)
	if err != nil {
		return nil, err
	}
	if d.bucketSize <= 0 || d.bucketSize > MaxBytes || d.n < 0 || d.n > len(d.data) || offsets.Len() != (d.n+d.bucketSize-1)/d.bucketSize+1 {
		return nil, r.Fail(fmt.Errorf("%w: dict bucket size", codec.ErrCorrupt))
	}
	// The offsets ascend to the last one, len(data): bounding it bounds
	// them all before they narrow to uint32.
	switch last := offsets.Access(offsets.Len() - 1); {
	case last > MaxBytes:
		return nil, r.Fail(fmt.Errorf("%w: dict of %d front-coded bytes, over the %d-byte limit", codec.ErrCorrupt, last, uint64(MaxBytes)))
	case last != uint64(len(d.data)):
		return nil, r.Fail(fmt.Errorf("%w: dict offsets", codec.ErrCorrupt))
	}
	d.offsets = make([]uint32, offsets.Len())
	it := offsets.MakeIterator(0)
	for i := range d.offsets {
		o, _ := it.Next()
		d.offsets[i] = uint32(o)
	}
	return d, nil
}

// Builder accumulates strings before constructing a dictionary; it is a
// convenience for streaming loaders.
type Builder struct {
	strs []string
}

// Add appends a string (duplicates allowed).
func (b *Builder) Add(s string) { b.strs = append(b.strs, s) }

// Build sorts, deduplicates and constructs the dictionary.
func (b *Builder) Build(bucketSize int) (*Dict, error) {
	return FromUnsorted(b.strs, bucketSize)
}
