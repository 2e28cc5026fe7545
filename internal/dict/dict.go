// Package dict implements a front-coded compressed string dictionary
// mapping sorted strings to dense integer IDs and back. The paper treats
// the string dictionary as a separate problem (Section 1) and excludes it
// from all measurements; this implementation exists so the end-to-end
// tools and examples can ingest real N-Triples data.
//
// Layout: strings are sorted and grouped into buckets of fixed size, and
// buckets into groups of 16. The first string of each group, its sample,
// is stored verbatim, apart from the rest, so that the samples lie
// together. Every other string is front coded with a shared tail: how
// many bytes it drops from the end of the string it is coded against,
// the middle bytes it appends, and the length of a tail copied from the
// end of the group's sample. A bucket's first string, its head, is coded
// against the sample; the rest against the string before them. Sorted
// RDF terms share tails as much as prefixes — a typed literal's
// ^^<datatype> and an @lang tag end every neighbour — so a tail is
// stored once per group instead of once per term, and the three lengths
// nearly always fit one header byte. Lookup binary searches the samples,
// scans the group's heads and scans one bucket.
//
// A dictionary holds its strings in up to two runs, each sorted and
// coded as above on its own: IDs [0, k) are the first run and [k, n)
// the second, which starts a group of its own. The subject/object
// dictionary puts the terms that are the subject of a triple in the
// first run, so subject IDs fill [0, k) and every trie level keyed by
// a subject draws from that smaller range; a dictionary built from one
// sorted list has an empty second run.
package dict

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rdfindexes/internal/codec"
)

// DefaultBucketSize balances space (larger buckets share more prefixes)
// against lookup latency (a lookup scans one bucket).
const DefaultBucketSize = 16

// groupBuckets is the number of buckets per group: the first bucket's
// head is the group's verbatim sample, and a lookup scans the others'
// heads after binary searching the samples.
const groupBuckets = 16

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
// strings in sorted order within their run, the second run's numbered
// on from the first's, starting at 0.
type Dict struct {
	n, k int    // the strings, and those in the first run
	runs [2]run // IDs [0, k) and [k, n)
	// owner keeps the memory the runs view (a mapped store file) alive
	// for as long as the dictionary is reachable; nil when built in
	// memory.
	owner any
}

// run is one sorted run of front-coded strings, numbered from 0.
type run struct {
	n          int
	bucketSize int
	// samples holds each group's sample, a uvarint length and the
	// bytes; sampleAt the offset of each in samples.
	samples, sampleAt []byte
	// data holds the coded strings bucket after bucket, each bucket's
	// head first unless it is the sample; offsets the offset of each
	// bucket in data, then len(data). sampleAt and offsets are
	// little-endian uint32s, and a decoded dictionary views all four
	// slices where they are stored.
	data, offsets []byte
}

// New builds a dictionary over strs, which must be sorted and distinct,
// as one run.
func New(strs []string, bucketSize int) (*Dict, error) {
	return NewSplit(strs, nil, bucketSize)
}

// NewSplit builds a dictionary of two runs: first takes IDs [0,
// len(first)) and second the IDs after them. Each must be sorted and
// distinct, and no string may be in both.
func NewSplit(first, second []string, bucketSize int) (*Dict, error) {
	b := newBuilder(bucketSize)
	for i, strs := range [2][]string{first, second} {
		for _, s := range strs {
			if err := add(b, i, s); err != nil {
				return nil, err
			}
		}
	}
	for i, j := 0, 0; i < len(first) && j < len(second); {
		switch {
		case first[i] < second[j]:
			i++
		case first[i] > second[j]:
			j++
		default:
			return nil, fmt.Errorf("dict: %q is in both runs", first[i])
		}
	}
	return b.finish(), nil
}

// builder appends sorted, distinct strings to the two runs of a
// front-coded layout one at a time; NewSplit and Overlay.Fold share it.
type builder struct {
	runs   [2]run
	last   [2][]byte // each run's previous string: LCP source and order check
	sample [2][]byte // each run's current group sample: tail source
	limit  uint64    // the most front-coded bytes allowed, MaxBytes
}

func newBuilder(bucketSize int) *builder {
	if bucketSize <= 0 {
		bucketSize = DefaultBucketSize
	}
	// No dictionary holds more strings than MaxBytes (each takes a
	// byte), so a larger bucket is the same bucket.
	bucketSize = min(bucketSize, MaxBytes)
	b := &builder{limit: MaxBytes}
	b.runs[0].bucketSize, b.runs[1].bucketSize = bucketSize, bucketSize
	return b
}

// add appends s to run i; s must sort strictly after the run's
// previous string. A group's first string is its verbatim sample, a
// bucket's first string is coded against the sample, and every other
// string against the one before it.
func add[T string | []byte](b *builder, i int, s T) error {
	r, last, sample := &b.runs[i], b.last[i], b.sample[i]
	lcp := commonPrefix(last, s)
	if r.n > 0 && (lcp == len(s) || lcp < len(last) && last[lcp] > s[lcp]) {
		return fmt.Errorf("dict: run %d not sorted/distinct at %d (%q >= %q)", i, r.n, last, s)
	}
	k := len(r.offsets) / 4 // buckets started so far
	switch {
	case r.n%r.bucketSize != 0:
		r.data = appendCoded(r.data, len(last), s, lcp, sample)
	case k%groupBuckets == 0:
		r.offsets = binary.LittleEndian.AppendUint32(r.offsets, uint32(len(r.data)))
		r.sampleAt = binary.LittleEndian.AppendUint32(r.sampleAt, uint32(len(r.samples)))
		r.samples = appendUvarint(r.samples, uint64(len(s)))
		r.samples = append(r.samples, s...)
		b.sample[i] = append(sample[:0], s...)
	default:
		r.offsets = binary.LittleEndian.AppendUint32(r.offsets, uint32(len(r.data)))
		r.data = appendCoded(r.data, len(sample), s, commonPrefix(sample, s), sample)
	}
	if b.runs[0].size()+b.runs[1].size() > b.limit {
		return fmt.Errorf("dict: front-coded bytes pass the %d-byte limit at string %d of run %d", b.limit, r.n, i)
	}
	b.last[i] = append(last[:lcp], s[lcp:]...)
	r.n++
	return nil
}

// size returns the run's front-coded bytes.
func (r *run) size() uint64 { return uint64(len(r.samples)) + uint64(len(r.data)) }

// escape is the header byte whose tail field, 3, says that the drop,
// middle and tail lengths follow as three uvarints.
const escape = 3

// appendCoded appends s coded against a string of prevLen bytes with
// which it shares its first lcp bytes. The header byte is
// [drop:3 | mid:3 | tail:2]: drop = prevLen - lcp, the middle's length,
// and the tail's, the longest suffix of the rest of s that ends src too.
// A length that does not fit its field escapes the header. The middle
// follows the header.
func appendCoded[T string | []byte](data []byte, prevLen int, s T, lcp int, src []byte) []byte {
	rest := s[lcp:]
	tail := 0
	for tail < len(rest) && tail < len(src) && rest[len(rest)-1-tail] == src[len(src)-1-tail] {
		tail++
	}
	drop, mid := prevLen-lcp, len(rest)-tail
	if drop < 8 && mid < 8 && tail < escape {
		data = append(data, byte(drop<<5|mid<<2|tail))
	} else {
		data = append(data, escape)
		data = appendUvarint(data, uint64(drop))
		data = appendUvarint(data, uint64(mid))
		data = appendUvarint(data, uint64(tail))
	}
	return append(data, rest[:mid]...)
}

// finish closes each run's offsets with the end of its data and
// returns the dictionary; the builder must not be used afterwards.
func (b *builder) finish() *Dict {
	for i := range b.runs {
		r := &b.runs[i]
		r.offsets = binary.LittleEndian.AppendUint32(r.offsets, uint32(len(r.data)))
	}
	return &Dict{n: b.runs[0].n + b.runs[1].n, k: b.runs[0].n, runs: b.runs}
}

// FromUnsorted sorts and deduplicates strs, builds the dictionary of
// one run, and returns it. The input slice is not modified.
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

// entry reads the header byte of the coded string at pos: its drop,
// middle and tail lengths and the offset after it. A tail of escape
// says the lengths follow as uvarints instead, which the callers read
// with escaped, so that entry stays small enough to inline into the
// scans.
//
//rdf:hotpath
func entry(data []byte, pos int) (drop, mid, tail uint64, next int) {
	h := data[pos]
	return uint64(h >> 5), uint64(h >> 2 & 7), uint64(h & 3), pos + 1
}

// escaped reads the three uvarints that follow an escaped header.
func escaped(data []byte, pos int) (drop, mid, tail uint64, next int) {
	drop, pos = readUvarint(data, pos)
	mid, pos = readUvarint(data, pos)
	tail, pos = readUvarint(data, pos)
	return drop, mid, tail, pos
}

// buckets returns the number of buckets.
func (r *run) buckets() int { return len(r.offsets)/4 - 1 }

// offset returns the offset in data of bucket k, or len(data) for k =
// buckets().
//
//rdf:hotpath
func (r *run) offset(k int) int {
	return int(binary.LittleEndian.Uint32(r.offsets[4*k:]))
}

// sample returns the verbatim sample of group g.
//
//rdf:hotpath
func (r *run) sample(g int) []byte {
	l, pos := readUvarint(r.samples, int(binary.LittleEndian.Uint32(r.sampleAt[4*g:])))
	return r.samples[pos : pos+int(l)]
}

// bucket splits a valid ID within the run into its bucket and its entry
// index there. IDs and the bucket size fit 32 bits (every string takes
// at least a byte of the MaxBytes, which Decode checks), and a 32-bit
// division is several times cheaper than a 64-bit one on common CPUs.
//
//rdf:hotpath
func (r *run) bucket(id int) (int, int) {
	k := uint32(id) / uint32(r.bucketSize)
	return int(k), id - int(k)*r.bucketSize
}

// runOf returns the run that holds a valid ID and the ID within it.
//
//rdf:hotpath
func (d *Dict) runOf(id int) (*run, int) {
	if id < d.k {
		return &d.runs[0], id
	}
	return &d.runs[1], id - d.k
}

// Len returns the number of strings.
func (d *Dict) Len() int { return d.n }

// FirstRun returns the number of strings in the first run: IDs below
// it are the first run's, the rest the second's. In the subject/object
// dictionary the first run holds the subjects.
func (d *Dict) FirstRun() int { return d.k }

// Extract returns the string with the given ID.
func (d *Dict) Extract(id int) (string, bool) {
	b, ok := d.ExtractAppend(nil, id)
	if !ok {
		return "", false
	}
	return string(b), true
}

// ExtractAppend appends the string with the given ID to buf and returns
// the extended buffer: it walks from the group's sample through the
// bucket's head, coded against it, and the bucket's entries up to the
// ID, each one middle splice (see walker.walk). No intermediate strings
// are materialized, and the only allocation is growing buf when its
// capacity runs out.
//
//rdf:hotpath
//rdf:nonretaining
func (d *Dict) ExtractAppend(buf []byte, id int) ([]byte, bool) {
	if id < 0 || id >= d.n {
		return buf, false
	}
	r, id := d.runOf(id)
	k, j := r.bucket(id)
	if k%groupBuckets != 0 {
		j++ // the head is one more step from the sample
	}
	w := walker{buf: buf, base: len(buf)}
	w.reset(r, k)
	w.walk(j)
	return w.flush(), true
}

// walker decodes the coded strings of one bucket, one after another,
// into buf[base:]. Between steps buf[base:] holds the current string
// except for its last tail bytes: those end src, the group's sample,
// and are copied only when needed.
type walker struct {
	data []byte // the dictionary's coded strings
	src  []byte // the group's sample: tail source
	buf  []byte
	base int
	tail int // bytes of src's end that end the current string, not yet in buf
	pos  int // offset in data of the next coded string
}

// reset points w at bucket k of run r. The current string becomes the
// sample of k's group, all of it pending, and the next one bucket k's
// first coded string: its head, or for the group's first bucket, the
// entry after the sample.
//
//rdf:hotpath
func (w *walker) reset(r *run, k int) {
	w.data, w.src = r.data, r.sample(k/groupBuckets)
	w.buf, w.tail, w.pos = w.buf[:w.base], len(w.src), r.offset(k)
}

// walk decodes the next steps coded strings. Each step drops bytes to
// the string's prefix shared with the one before it — copying pending
// tail bytes only as far as that prefix reaches into them, which the
// sort order makes rare — and appends the middle; its own tail becomes
// the pending one.
//
//rdf:hotpath
func (w *walker) walk(steps int) {
	data, src, buf, tail, pos := w.data, w.src, w.buf, w.tail, w.pos
	for ; steps > 0; steps-- {
		drop, mid, tl, p := entry(data, pos)
		if tl == escape {
			drop, mid, tl, p = escaped(data, p)
		}
		have := uint64(len(buf) - w.base)
		prev := have + uint64(tail)
		if drop > prev || tl > uint64(len(src)) {
			panic(errEntry)
		}
		if lcp := prev - drop; lcp > have {
			buf = append(buf, src[len(src)-tail:][:lcp-have]...)
		} else {
			buf = buf[:w.base+int(lcp)]
		}
		pos = p + int(mid)
		// A short middle is copied as one word when buf and data have
		// room for it; the bytes past the middle are spare capacity,
		// which the next steps overwrite.
		if n := len(buf); mid < 8 && cap(buf)-n >= 8 && len(data)-p >= 8 {
			binary.LittleEndian.PutUint64(buf[n:n+8], binary.LittleEndian.Uint64(data[p:]))
			buf = buf[:n+int(mid)]
		} else {
			buf = append(buf, data[p:pos]...)
		}
		tail = int(tl)
	}
	w.buf, w.tail, w.pos = buf, tail, pos
}

// flush copies the pending tail and returns buf, which then ends with
// the whole current string.
//
//rdf:hotpath
func (w *walker) flush() []byte {
	if w.tail > 0 {
		w.buf = append(w.buf, w.src[len(w.src)-w.tail:]...)
		w.tail = 0
	}
	return w.buf
}

// errEntry is the panic value of a decode that meets a coded string
// dropping more bytes than the string before it has, or claiming a
// longer tail than its sample. The lengths come from the stored bytes,
// which a crafted section can set to anything under a valid checksum. A
// middle or sample that runs past the data fails its slice bounds, but
// a drop past the previous string would splice stale bytes into the
// term, and a tail past the sample would read the bytes before it, so
// the decoders and the scans check both. Check finds every such string
// without panicking.
var errEntry = fmt.Errorf("%w: dict bucket entry", codec.ErrCorrupt)

// cmpSample compares the sample of group g with s, starting at byte
// from, which both are known to share, a word at a time. It returns the
// ordering (-1, 0, +1 for sample <, =, > s) and the full common prefix
// length.
//
//rdf:hotpath
func (r *run) cmpSample(g int, s string, from int) (int, int) {
	h := r.sample(g)
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

// le64 is binary.LittleEndian.Uint64 over a string, so cmpSample
// compares a word per step without converting s.
//
//rdf:hotpath
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// searchGroup finds s within group g, whose sample sorts before s and
// shares its first match bytes with it, by scanning the group's coded
// heads for the last one that sorts before s, then that head's bucket.
// Every head is coded against the sample, so its stored LCP with the
// sample orders it against s without touching its bytes, by the rule
// searchBucket follows: LCP below match means the head (and every later
// one, whose LCP is no longer) sorts past s, LCP above match means it
// sorts before s and shares exactly match bytes with it, and only a
// head whose LCP equals match compares its middle, then its tail, with
// s.
//
//rdf:hotpath
func (r *run) searchGroup(g int, s string, match int) (int, bool) {
	k := g * groupBuckets
	src, pos := r.sample(g), r.offset(k)
	prev, m := uint64(len(src)), match // the candidate head's length and LCP with s
	last := min(k+groupBuckets, r.buckets())
	for h := k + 1; h < last; h++ {
		drop, mid, tail, p := entry(r.data, r.offset(h))
		if tail == escape {
			drop, mid, tail, p = escaped(r.data, p)
		}
		if drop > uint64(len(src)) || tail > uint64(len(src)) {
			panic(errEntry)
		}
		lcp := uint64(len(src)) - drop
		if lcp < uint64(match) {
			break
		}
		end := p + int(mid)
		j := match
		if lcp == uint64(match) {
			var c int
			c, j = cmpFrom(r.data[p:end], s, match)
			if c == 0 {
				c, j = cmpFrom(src[len(src)-int(tail):], s, j)
			}
			if c > 0 {
				break
			}
			if c == 0 && j == len(s) {
				return h * r.bucketSize, true
			}
		}
		k, pos, prev, m = h, end, lcp+mid+tail, j
	}
	return r.searchBucket(k, s, m, src, pos, prev)
}

// searchBucket finds s within bucket k, whose head sorts before s,
// shares its first match bytes with it and is prev bytes long, and
// whose first entry is at pos, without materializing any entry: it
// tracks match, the longest common prefix of s and the last entry
// passed, and compares each entry through its stored LCP with the one
// before it. An entry whose LCP disagrees with match is ordered against
// s immediately — LCP below match means the entry already sorts past s
// (early exit), LCP above match means it still sorts before s (skipped
// without touching its bytes) — and only entries whose LCP equals match
// compare their middle, then their tail, with s; the tail is read from
// the sample src.
//
//rdf:hotpath
func (r *run) searchBucket(k int, s string, match int, src []byte, pos int, prev uint64) (int, bool) {
	limit := min(r.bucketSize, r.n-k*r.bucketSize)
	for i := 1; i < limit; i++ {
		drop, mid, tail, p := entry(r.data, pos)
		if tail == escape {
			drop, mid, tail, p = escaped(r.data, p)
		}
		if drop > prev {
			panic(errEntry)
		}
		lcp := prev - drop
		pos = p + int(mid)
		prev = lcp + mid + tail
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
		if tail > uint64(len(src)) {
			panic(errEntry)
		}
		c, j := cmpFrom(r.data[p:pos], s, match)
		if c == 0 {
			c, j = cmpFrom(src[len(src)-int(tail):], s, j)
		}
		switch {
		case c > 0:
			return 0, false // entry > s
		case c == 0 && j == len(s):
			return k*r.bucketSize + i, true
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

// Locate returns the ID of s, or ok=false if absent. It searches the
// first run, then, when s is not there, the second.
//
//rdf:hotpath
func (d *Dict) Locate(s string) (int, bool) {
	if id, ok := d.runs[0].locate(s); ok {
		return id, true
	}
	if id, ok := d.runs[1].locate(s); ok {
		return d.k + id, true
	}
	return 0, false
}

// locate returns the ID of s within the run, or ok=false if absent. A
// binary search over the verbatim samples finds the last sample <= s,
// and the scans of its group's heads and of one bucket compare through
// the stored LCP values with early exit instead of materializing
// strings. The sample search is LCP-bounded: every sample sorting
// between the two bracketing probes shares with s at least the shorter
// of their common prefixes with s, so each probe resumes the comparison
// there instead of at byte 0.
//
//rdf:hotpath
func (r *run) locate(s string) (int, bool) {
	// Invariant: sample(lo) < s < sample(hi), where lo = -1 and hi =
	// the number of groups stand for -inf and +inf; llo and lhi are the
	// common prefix lengths of s with sample(lo) and sample(hi).
	lo, hi := -1, len(r.sampleAt)/4
	llo, lhi := 0, 0
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		c, l := r.cmpSample(mid, s, min(llo, lhi))
		switch {
		case c < 0:
			lo, llo = mid, l
		case c > 0:
			hi, lhi = mid, l
		default:
			return mid * groupBuckets * r.bucketSize, true
		}
	}
	if lo < 0 {
		return 0, false
	}
	return r.searchGroup(lo, s, llo)
}

// SizeBits returns the in-memory footprint in bits.
func (d *Dict) SizeBits() uint64 {
	var n int
	for i := range d.runs {
		r := &d.runs[i]
		n += len(r.samples) + len(r.sampleAt) + len(r.data) + len(r.offsets)
	}
	return uint64(n)*8 + 2*64
}

// Space splits a dictionary's stored bytes between its parts; they sum
// to SizeBits()/8 - 16.
type Space struct {
	Samples int // bytes of the verbatim group samples, lengths included
	Heads   int // bytes of the other bucket heads, coded against them
	Entries int // bytes of the entries coded against the string before
	Offsets int // bytes of the sample and bucket offsets
	Escaped int // coded heads and entries whose header escapes its lengths
}

// Space reports how the dictionary's bytes split between samples, coded
// heads, entries and offsets, and how many headers escape.
func (d *Dict) Space() Space {
	var sp Space
	for i := range d.runs {
		r := &d.runs[i]
		sp.Samples += len(r.samples)
		sp.Offsets += len(r.sampleAt) + len(r.offsets)
		heads := 0
		for k := 0; k < r.buckets(); k++ {
			pos, coded := r.offset(k), min(r.bucketSize, r.n-k*r.bucketSize)
			if k%groupBuckets == 0 {
				coded-- // the head is the sample
			}
			for j := 0; j < coded; j++ {
				_, mid, tail, p := entry(r.data, pos)
				if tail == escape {
					_, mid, _, p = escaped(r.data, p)
					sp.Escaped++
				}
				pos = p + int(mid)
				if j == 0 && k%groupBuckets != 0 {
					heads += pos - r.offset(k)
				}
			}
		}
		sp.Heads += heads
		sp.Entries += len(r.data) - heads
	}
	return sp
}

// Encode writes the dictionary to w: the string count, the first run's,
// the bucket size, and each run's samples, sample offsets, coded
// strings and bucket offsets.
func (d *Dict) Encode(w *codec.Writer) {
	w.Uvarint(uint64(d.n))
	w.Uvarint(uint64(d.k))
	w.Uvarint(uint64(d.runs[0].bucketSize))
	for i := range d.runs {
		r := &d.runs[i]
		w.Bytes(r.samples)
		w.Bytes(r.sampleAt)
		w.Bytes(r.data)
		w.Bytes(r.offsets)
	}
}

// Decode reads a dictionary written by Encode. It checks only what
// locates the runs, the samples and the buckets, in constant time, and
// views the bytes where r holds them; Check walks the rest.
func Decode(r *codec.Reader) (*Dict, error) {
	d := &Dict{owner: r.Owner()}
	n, k, bucketSize := r.Uvarint(), r.Uvarint(), r.Uvarint()
	var size uint64
	for i := range d.runs {
		rr := &d.runs[i]
		rr.samples = r.BytesBuf()
		rr.sampleAt = r.BytesBuf()
		rr.data = r.BytesBuf()
		rr.offsets = r.BytesBuf()
		size += rr.size()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Every string takes at least a byte, so a run holds no more
	// strings than it has bytes, and IDs fit 32 bits.
	switch {
	case bucketSize == 0 || bucketSize > MaxBytes:
		return nil, r.Fail(fmt.Errorf("%w: dict bucket size %d", codec.ErrCorrupt, bucketSize))
	case size > MaxBytes:
		return nil, r.Fail(fmt.Errorf("%w: dict of %d front-coded bytes, over the %d-byte limit", codec.ErrCorrupt, size, uint64(MaxBytes)))
	case k > n || k > d.runs[0].size() || n-k > d.runs[1].size():
		return nil, r.Fail(fmt.Errorf("%w: dict of %d strings, %d in the first run, in %d and %d bytes", codec.ErrCorrupt, n, k, d.runs[0].size(), d.runs[1].size()))
	}
	d.n, d.k = int(n), int(k)
	for i, c := range [2]int{d.k, d.n - d.k} {
		rr := &d.runs[i]
		rr.n, rr.bucketSize = c, int(bucketSize)
		if err := rr.checkOffsets(); err != nil {
			return nil, r.Fail(fmt.Errorf("%w: dict run %d: %v", codec.ErrCorrupt, i, err))
		}
	}
	return d, nil
}

// checkOffsets checks that the run has one offset per bucket and group
// and that they span its bytes. The offsets are uint32s, so bounding
// the bytes bounds them all; the first ones are 0 and the last bucket
// offset is len(data).
func (r *run) checkOffsets() error {
	buckets := (r.n + r.bucketSize - 1) / r.bucketSize
	groups := (buckets + groupBuckets - 1) / groupBuckets
	switch {
	case len(r.offsets) != 4*(buckets+1) || len(r.sampleAt) != 4*groups:
		return fmt.Errorf("%d buckets with %d offset bytes and %d sample offset bytes", buckets, len(r.offsets), len(r.sampleAt))
	case r.offset(0) != 0 || r.offset(buckets) != len(r.data) || groups > 0 && binary.LittleEndian.Uint32(r.sampleAt) != 0:
		return fmt.Errorf("offsets do not span the data")
	}
	return nil
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
