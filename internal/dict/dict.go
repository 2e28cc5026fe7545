// Package dict implements a front-coded compressed string dictionary
// mapping sorted strings to dense integer IDs and back. The paper treats
// the string dictionary as a separate problem (Section 1) and excludes it
// from all measurements; this implementation exists so the end-to-end
// tools and examples can ingest real N-Triples data.
//
// Layout: strings are sorted and grouped into buckets of fixed size; the
// first string of each bucket is stored verbatim and the rest as (shared
// prefix length, suffix) pairs. Lookup binary searches the bucket headers
// and scans one bucket.
package dict

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/ef"
)

// DefaultBucketSize balances space (larger buckets share more prefixes)
// against lookup latency (a lookup scans one bucket).
const DefaultBucketSize = 16

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
	offsets []uint64
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
	d    *Dict
	last []byte // the previous string: LCP source and order check
}

func newBuilder(bucketSize int) *builder {
	if bucketSize <= 0 {
		bucketSize = DefaultBucketSize
	}
	return &builder{d: &Dict{bucketSize: bucketSize}}
}

// add appends s, which must sort strictly after the previous string.
func add[T string | []byte](b *builder, s T) error {
	d := b.d
	lcp := commonPrefix(b.last, s)
	if d.n > 0 && (lcp == len(s) || lcp < len(b.last) && b.last[lcp] > s[lcp]) {
		return fmt.Errorf("dict: input not sorted/distinct at %d (%q >= %q)", d.n, b.last, s)
	}
	if d.n%d.bucketSize == 0 {
		d.offsets = append(d.offsets, uint64(len(d.data)))
		d.data = appendUvarint(d.data, uint64(len(s)))
		d.data = append(d.data, s...)
	} else {
		d.data = appendUvarint(d.data, uint64(lcp))
		d.data = appendUvarint(d.data, uint64(len(s)-lcp))
		d.data = append(d.data, s[lcp:]...)
	}
	b.last = append(b.last[:lcp], s[lcp:]...)
	d.n++
	return nil
}

// finish closes the offsets with the end of the data and returns the
// dictionary; the builder must not be used afterwards.
func (b *builder) finish() *Dict {
	b.d.offsets = append(b.d.offsets, uint64(len(b.d.data)))
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
// the extended buffer. The bucket is decoded with one suffix splice per
// entry directly into buf: the shared prefix already sits at buf's tail
// after the previous entry, so each step truncates to the stored LCP and
// appends the suffix — no intermediate strings are materialized, and the
// only allocation is growing buf when its capacity runs out.
//
//rdf:hotpath
//rdf:nonretaining
func (d *Dict) ExtractAppend(buf []byte, id int) ([]byte, bool) {
	if id < 0 || id >= d.n {
		return buf, false
	}
	base := len(buf)
	k := id / d.bucketSize
	pos := int(d.offsets[k])
	l, pos := readUvarint(d.data, pos)
	buf = append(buf, d.data[pos:pos+int(l)]...)
	pos += int(l)
	for i := 0; i < id%d.bucketSize; i++ {
		lcp, p := readUvarint(d.data, pos)
		suf, p2 := readUvarint(d.data, p)
		if lcp > uint64(len(buf)-base) {
			panic(errEntry)
		}
		buf = append(buf[:base+int(lcp)], d.data[p2:p2+int(suf)]...)
		pos = p2 + int(suf)
	}
	return buf, true
}

// errEntry is the panic value of a decode that meets a bucket entry
// claiming a longer prefix than the term before it has. The lengths come
// from the stored bytes, which a crafted section can set to anything
// under a valid checksum; a suffix or header that runs past the data
// fails its slice bounds, but an LCP inside the buffer's capacity would
// splice stale bytes into the term, so both decoders check it.
var errEntry = fmt.Errorf("%w: dict bucket entry", codec.ErrCorrupt)

// cmpHeader compares the verbatim header of bucket k with s, starting
// at byte from, which both are known to share, a word at a time. It
// returns the ordering (-1, 0, +1 for header <, =, > s) and the full
// common prefix length.
//
//rdf:hotpath
func (d *Dict) cmpHeader(k int, s string, from int) (int, int) {
	l, pos := readUvarint(d.data, int(d.offsets[k]))
	h := d.data[pos : pos+int(l)]
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
// decoded entry, and compares each entry through its stored LCP value.
// An entry whose LCP disagrees with match is ordered against s
// immediately — LCP below match means the entry already sorts past s
// (early exit), LCP above match means it still sorts before s (skipped
// without touching its suffix) — and only entries whose LCP equals match
// compare suffix bytes.
//
//rdf:hotpath
func (d *Dict) searchBucket(k int, s string, match int) (int, bool) {
	l, pos := readUvarint(d.data, int(d.offsets[k]))
	pos += int(l)
	limit := d.bucketSize
	if rem := d.n - k*d.bucketSize; rem < limit {
		limit = rem
	}
	for i := 1; i < limit; i++ {
		lcp, p := readUvarint(d.data, pos)
		suf, p2 := readUvarint(d.data, p)
		pos = p2 + int(suf)
		L := int(lcp)
		switch {
		case L < match:
			// The entry diverges from its predecessor before the prefix
			// matched so far, and sorted order makes it diverge upward.
			return 0, false
		case L > match:
			// The entry extends the predecessor beyond the first byte
			// where s already differs; it still sorts before s.
			continue
		}
		sb := d.data[p2:pos]
		j := 0
		for j < len(sb) && match+j < len(s) && sb[j] == s[match+j] {
			j++
		}
		if j == len(sb) {
			if match+j == len(s) {
				return k*d.bucketSize + i, true
			}
			match += j // entry is a proper prefix of s, keep scanning
			continue
		}
		if match+j == len(s) || sb[j] > s[match+j] {
			return 0, false // entry > s
		}
		match += j
	}
	return 0, false
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
	return uint64(len(d.data))*8 + uint64(len(d.offsets))*64 + 2*64
}

// Encode writes the dictionary to w.
func (d *Dict) Encode(w *codec.Writer) {
	w.Uvarint(uint64(d.n))
	w.Uvarint(uint64(d.bucketSize))
	w.Bytes(d.data)
	ef.New(d.offsets).Encode(w)
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
	if d.bucketSize <= 0 || d.n < 0 || offsets.Len() != (d.n+d.bucketSize-1)/d.bucketSize+1 {
		return nil, r.Fail(fmt.Errorf("%w: dict bucket size", codec.ErrCorrupt))
	}
	d.offsets = make([]uint64, offsets.Len())
	it := offsets.MakeIterator(0)
	it.NextBatch(d.offsets)
	if d.offsets[len(d.offsets)-1] != uint64(len(d.data)) {
		return nil, r.Fail(fmt.Errorf("%w: dict offsets", codec.ErrCorrupt))
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
