// Package store bundles a compressed index with its string dictionaries
// into the on-disk store the rdfstore CLI and the query server share. A
// loaded Store is immutable: the index, the dictionaries and the lookup
// helpers below are all read-only, so one Store may serve any number of
// goroutines concurrently (the "one index, N goroutines" contract of
// internal/core). Updates go through Mutable (mutable.go), which keeps
// that contract by publishing a fresh immutable Store view per write.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/faultfs"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/shard"
)

// Magic is the single-index store signature. The container carries
// per-section CRC32C checksums, so a flipped byte anywhere in the file is
// detected at open instead of decoding into silent garbage, and it is
// 8-byte aligned throughout, so the open serves the index straight from
// the mapped file:
//
//	magic
//	header  = dict flag, dictionaries            | CRC32C | pad
//	table   = one uint64 section payload length  | CRC32C | pad
//	section = serialized index                   | CRC32C
//
// Every checksum covers exactly the bytes of its section and trails
// them. Pads are zero bytes up to the next multiple of 8 from the start
// of the file, and word arrays inside a section are padded the same way
// relative to the section start (codec.Writer.Uint64s), so every word
// array lies 8-byte aligned in the file. There is no pad after the last
// checksum.
const Magic = "RDFSTORE3"

// MagicSharded is the multi-shard store signature: as Magic, but the
// header additionally ends with the shard count, the table holds one
// payload length per shard, and one checksummed section follows per
// shard, each padded to 8 bytes before the next.
const MagicSharded = "RDFSHARD3"

// CurrentVersion is the container format version Write produces and
// Read accepts. Files of older versions are rebuilt with rdfstore build.
const CurrentVersion = 3

// Integrity describes what Read verified about the container a Store
// was loaded from.
type Integrity struct {
	// Version is the container format version; every section's CRC32C
	// was verified at open. 0 for views that never touched disk (fresh
	// mutable snapshots inherit the loaded store's value).
	Version int
	// Mapped is true while the view's index and dictionaries are served
	// from the memory-mapped store file; false once a merge rebuilt them
	// on the heap, or where the platform reads the file into memory.
	Mapped bool
	// Quarantined lists shard sections that failed their checksum and
	// were excluded by a degraded open (nil after a strict Read).
	Quarantined []int
}

// Store is an index plus its dictionaries (nil Dicts for integer-only
// datasets that were built from binary triple files).
type Store struct {
	Index core.Index
	Dicts *rdf.Dicts
	// Gen is the write generation this view belongs to (0 for a store
	// loaded from disk). Mutable stamps it at publication, so a reader
	// holding the view holds its matching generation — the pair cannot
	// be torn by a concurrent write, which is what makes generation-keyed
	// response caches sound across merges (a merge remaps dictionary
	// IDs, so the same ID text means different terms across generations).
	Gen uint64
	// Integrity records the container version, the mapping and the
	// quarantine outcome of the load that produced this store.
	Integrity Integrity
	// Modified is when this view came to be: the container file's mtime
	// for a store loaded from disk, the publication time for a view
	// published by Mutable. It backs the HTTP Last-Modified header, so
	// it is per-view immutable like Gen.
	Modified time.Time
	// OpenDuration is how long the open that produced this view took:
	// Read's mapping and checksum pass, plus WAL replay for a Mutable,
	// whose views all carry the duration of its open.
	OpenDuration time.Duration
}

// fsys is the filesystem the write paths go through; the crash-torture
// tests swap in a faultfs.Injector.
var fsys faultfs.FS = faultfs.OS{}

// Write serializes the store to path: magic, optional dictionaries, then
// the index — the single-index format for plain indexes, the multi-shard
// container for a *shard.Store. Only static state serializes; a serving
// view (dynamic snapshot index, overlay dictionaries) must be folded
// (merged) first.
//
// The file is replaced atomically: Write writes a sibling temp file,
// fsyncs it, renames it over path and fsyncs the directory. A process
// serving the old file from a mapping keeps its inode and its data; no
// writer truncates a mapped file.
func Write(path string, st *Store) error {
	if _, ok := st.Index.(*core.DynamicSnapshot); ok {
		return fmt.Errorf("store: index is a serving snapshot, not serializable (merge first)")
	}
	var so, p *dict.Dict
	if st.Dicts != nil {
		var ok bool
		if so, ok = st.Dicts.SO.(*dict.Dict); !ok {
			return fmt.Errorf("store: SO dictionary is not serializable (fold the overlay first)")
		}
		if p, ok = st.Dicts.P.(*dict.Dict); !ok {
			return fmt.Errorf("store: P dictionary is not serializable (fold the overlay first)")
		}
	}
	sh, sharded := st.Index.(*shard.Store)
	if sharded {
		if q := sh.Quarantined(); len(q) > 0 {
			return fmt.Errorf("store: refusing to serialize a degraded store (shards %v quarantined); rebuild from the source data", q)
		}
	}
	tmp := path + ".tmp"
	if err := writeFile(tmp, st.Index, so, p, sh); err != nil {
		fsys.Remove(tmp) // best effort: the error that matters is err
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(path)
	return nil
}

// writeFile writes the container to path and fsyncs it; sh is nil for a
// single-index store.
func writeFile(path string, x core.Index, so, p *dict.Dict, sh *shard.Store) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	// Closed explicitly below so close-time write-back failures surface;
	// the defer only covers the error paths.
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	w := codec.NewWriter(f)
	if sh != nil {
		w.String(MagicSharded)
	} else {
		w.String(Magic)
	}
	// The header section (dictionaries, shard count) streams through the
	// writer's CRC32C tee; its checksum trails it.
	w.StartChecksum()
	if so != nil {
		w.Byte(1)
		so.Encode(w)
		p.Encode(w)
	} else {
		w.Byte(0)
	}
	if sh != nil {
		w.Uvarint(uint64(sh.NumShards()))
	}
	w.Uint32(w.StopChecksum())
	w.Pad()
	if err := w.Flush(); err != nil {
		return err
	}
	if sh != nil {
		err = writeSections(f, w.Written(), sh.NumShards(), sh.Shard)
	} else {
		err = writeSections(f, w.Written(), 1, func(int) core.Index { return x })
	}
	if err != nil {
		return err
	}
	// The merge path truncates the WAL once this file is renamed over
	// the live store; the data must be on disk before either step, or a
	// power failure could lose WAL-acknowledged writes.
	if err := f.Sync(); err != nil {
		return err
	}
	err = f.Close()
	f = nil
	return err
}

// writeSections streams the n index sections straight to the file, which
// is positioned at the 8-aligned offset pos, and then patches the
// section-length table in place: a placeholder table is written first,
// each section streams through a counting/hashing writer (no section is
// ever buffered whole, so writing costs O(1) extra memory regardless of
// store size) with its CRC32C and the pad to the next section right
// behind it, and a final seek pair fills in the measured lengths plus the
// table's own checksum.
func writeSections(f faultfs.File, pos int64, n int, section func(int) core.Index) error {
	// n uint64 payload lengths, the table's CRC32C, the pad to section 0.
	table := make([]byte, 8*n+4+codec.PadLen(int64(8*n+4)))
	if _, err := f.Write(table); err != nil {
		return err
	}
	var trailer [4 + 7]byte // a section's CRC32C and the pad behind it
	for i := 0; i < n; i++ {
		cw := &countingWriter{w: f}
		if err := core.WriteIndex(cw, section(i)); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(trailer[:], cw.crc)
		k := 4
		if i < n-1 {
			k += codec.PadLen(int64(cw.n) + 4) // sections start 8-aligned
		}
		if _, err := f.Write(trailer[:k]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(table[8*i:], cw.n)
	}
	binary.LittleEndian.PutUint32(table[8*n:], crc32.Checksum(table[:8*n], codec.Castagnoli))
	if _, err := f.Seek(pos, io.SeekStart); err != nil {
		return err
	}
	if _, err := f.Write(table); err != nil {
		return err
	}
	_, err := f.Seek(0, io.SeekEnd)
	return err
}

// countingWriter counts and CRC32C-hashes the bytes passed through to w.
type countingWriter struct {
	w   io.Writer
	n   uint64
	crc uint32
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	c.crc = crc32.Update(c.crc, codec.Castagnoli, p[:n])
	return n, err
}

// mapping owns one store file's bytes: a read-only shared memory map
// where the platform has one (mmap_linux.go), an aligned heap copy
// elsewhere. Every trie and dictionary decoded from it keeps a pointer to
// it, and every read of a view goes through one of them, so the mapping
// stays reachable while any view into it can still be read; a finalizer
// unmaps it afterwards. runtime.AddCleanup would do the same without
// resurrecting the owner, but it needs go1.24 and go.mod says go1.22.
type mapping struct {
	data   []byte
	mapped bool
	// credit is allocated and never written. It keeps the garbage
	// collector's heap goal counting the store, as it counted the heap
	// copy the mapping replaced; without it the goal shrinks by the
	// store's size and the collector runs several times as often. A
	// fresh allocation this size comes from untouched pages, so it costs
	// address space, not resident memory.
	credit []byte
}

// mappedBytes totals the mappings currently held by this process.
var mappedBytes atomic.Int64

// MappedBytes returns the bytes of store files currently mapped into
// memory by this process: the files of the serving views plus any older
// mapping a view still in use keeps alive.
func MappedBytes() int64 { return mappedBytes.Load() }

// openMapping maps the store file at path and returns it with the
// file's modification time. The format is little-endian and its word
// arrays are served in place, so a big-endian host is refused.
func openMapping(path string) (*mapping, time.Time, error) {
	if !codec.HostLittleEndian {
		return nil, time.Time{}, fmt.Errorf("store: %s: the mapped store format needs a little-endian host", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer f.Close() // a mapping outlives its descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, time.Time{}, err
	}
	data, mapped, err := mapFile(f, fi.Size())
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("store: map %s: %w", path, err)
	}
	m := &mapping{data: data, mapped: mapped}
	if mapped {
		m.credit = make([]byte, len(data))
		mappedBytes.Add(int64(len(data)))
		runtime.SetFinalizer(m, (*mapping).release)
	}
	return m, fi.ModTime(), nil
}

// release unmaps the file. It runs as the finalizer once nothing decoded
// from the mapping is reachable, or directly where nothing decoded from
// it can still be used: a failed open, a finished Verify.
func (m *mapping) release() {
	if !m.mapped {
		return
	}
	runtime.SetFinalizer(m, nil)
	m.mapped = false
	mappedBytes.Add(-int64(len(m.data)))
	_ = unmapFile(m.data) // a failed munmap leaves only address space behind
	m.data, m.credit = nil, nil
}

// part is one part of a store file as walkContainer found it.
type part struct {
	name    string // "magic", "header", "table", "index" or "shard N"
	bytes   int64
	section bool       // an index section (a shard of a sharded store)
	index   core.Index // the decoded section; nil on error
	err     error
}

// container is what walkContainer found in a store file.
type container struct {
	version int // CurrentVersion once the magic matched, else 0
	sharded bool
	shards  int // section count, once the header gave a valid one
	dicts   *rdf.Dicts
	parts   []part
}

func (c *container) fail(name string, bytes int, err error) *container {
	c.parts = append(c.parts, part{name: name, bytes: int64(bytes), err: err})
	return c
}

// walkContainer decodes a store file held in data: the magic, the
// header, the section table and every index section. Every part is
// checked against its trailing CRC32C over the bytes in data — an index
// section before any of it is decoded — and every pad byte must be zero.
// The walk records each part it reaches in c.parts with its outcome; it
// stops early only where the rest of the file cannot be located (a bad
// magic, an undecodable header, a corrupt table), so a checksum failure
// in one part does not hide the state of the others.
func walkContainer(data []byte, owner any) *container {
	c := &container{}
	r := codec.NewBytesReader(data, owner)
	magic := r.String()
	switch {
	case r.Err() != nil:
		return c.fail("magic", r.Offset(), r.Err())
	case magic == MagicSharded:
		c.sharded = true
	case magic != Magic:
		return c.fail("magic", r.Offset(), fmt.Errorf("not an rdfstore file (magic %q)", magic))
	}
	c.version = CurrentVersion

	// Header: dictionary flag + dictionaries (+ shard count), its CRC,
	// the pad to the table. Its length is known only by decoding it, so
	// the checksum is compared after the decode, which the bounded reader
	// keeps safe on any bytes.
	start := r.Offset()
	if r.Byte() == 1 {
		so, err := dict.Decode(r)
		if err != nil {
			return c.fail("header", r.Offset()-start, fmt.Errorf("SO dictionary: %w", err))
		}
		p, err := dict.Decode(r)
		if err != nil {
			return c.fail("header", r.Offset()-start, fmt.Errorf("P dictionary: %w", err))
		}
		c.dicts = &rdf.Dicts{SO: so, P: p}
	}
	if !c.sharded {
		c.shards = 1
	} else if n := r.Uvarint(); r.Err() == nil {
		if n < 1 || n > shard.MaxShards {
			r.Fail(fmt.Errorf("%w: shard count %d out of range [1, %d]", codec.ErrCorrupt, n, shard.MaxShards))
		} else {
			c.shards = int(n)
		}
	}
	end := r.Offset()
	stored := r.Uint32()
	r.Pad()
	if err := r.Err(); err != nil {
		return c.fail("header", r.Offset()-start, err)
	}
	if err := checksum("header", data[start:end], stored); err != nil {
		// The dictionaries decoded, so the header's shape is plausible
		// and the sections behind it may still be sound: keep walking.
		c.fail("header", r.Offset()-start, err)
	} else {
		c.parts = append(c.parts, part{name: "header", bytes: int64(r.Offset() - start)})
	}

	// Section-length table, its CRC, the pad to the first section.
	start = r.Offset()
	lengths := make([]int, c.shards)
	for i := range lengths {
		v := r.Uint64()
		if v > uint64(len(data)) {
			return c.fail("table", r.Offset()-start, fmt.Errorf("%w: section %d length %d", codec.ErrCorrupt, i, v))
		}
		lengths[i] = int(v)
	}
	end = r.Offset()
	stored = r.Uint32()
	r.Pad()
	if err := r.Err(); err != nil {
		return c.fail("table", r.Offset()-start, err)
	}
	if err := checksum("table", data[start:end], stored); err != nil {
		return c.fail("table", r.Offset()-start, err) // the offsets are untrustworthy
	}
	// Each section is followed by its CRC and, unless it is the last,
	// by the pad to the next one: bounds[i] is where section i ends.
	offs, bounds := make([]int, len(lengths)), make([]int, len(lengths))
	off := r.Offset()
	for i, l := range lengths {
		offs[i] = off
		off += l + 4
		if i < len(lengths)-1 {
			off += codec.PadLen(int64(off))
		}
		bounds[i] = off
	}
	if off != len(data) {
		return c.fail("table", r.Offset()-start, fmt.Errorf("%w: sections cover %d bytes, file has %d after the header",
			codec.ErrCorrupt, off-r.Offset(), len(data)-r.Offset()))
	}
	c.parts = append(c.parts, part{name: "table", bytes: int64(r.Offset() - start)})
	for i := range lengths {
		c.parts = append(c.parts, decodeSection(data[offs[i]:bounds[i]], lengths[i], sectionName(c.sharded, i), owner))
	}
	return c
}

// checksum compares the CRC32C of a part's bytes with the stored one.
func checksum(name string, b []byte, stored uint32) error {
	if sum := crc32.Checksum(b, codec.Castagnoli); sum != stored {
		return fmt.Errorf("%w: %s checksum mismatch (stored %08x, computed %08x)", codec.ErrCorrupt, name, stored, sum)
	}
	return nil
}

// decodeSection verifies and decodes one index section: b holds its
// payload of the given length, its CRC32C and the zero pad to the next
// section. A section whose bytes verify but do not decode is a
// writer/decoder mismatch rather than storage corruption, and is
// reported as such; a decoder panic is converted into an error, so one
// section's failure stays that section's.
func decodeSection(b []byte, length int, name string, owner any) (p part) {
	p = part{name: name, bytes: int64(length), section: true}
	defer func() {
		if r := recover(); r != nil {
			p.index, p.err = nil, fmt.Errorf("%w: section %s: decoder panic: %v", codec.ErrCorrupt, name, r)
		}
	}()
	if p.err = checksum("section "+name, b[:length], binary.LittleEndian.Uint32(b[length:])); p.err != nil {
		return p
	}
	for _, c := range b[length+4:] {
		if c != 0 {
			p.err = fmt.Errorf("%w: non-zero pad byte after section %s", codec.ErrCorrupt, name)
			return p
		}
	}
	if p.index, p.err = core.DecodeIndex(codec.NewBytesReader(b[:length], owner)); p.err != nil {
		p.err = fmt.Errorf("store: section %s: %w", name, p.err)
	}
	return p
}

// sectionName names an index section for error reports.
func sectionName(sharded bool, i int) string {
	if sharded {
		return fmt.Sprintf("shard %d", i)
	}
	return "index"
}

// Read loads a store written by Write. It maps the file, checks every
// section's checksum over the mapped bytes and decodes the sections in
// place: the index's word arrays and the dictionaries' bytes are views
// into the mapping, which lives as long as anything decoded from it (see
// mapping). Any checksum mismatch fails the open with the offending
// section named.
func Read(path string) (*Store, error) { return readStore(path, false) }

// ReadDegraded loads a store like Read, but a shard section that fails
// its checksum is quarantined instead of failing the open: the remaining
// shards keep serving (routed queries to the quarantined shard return no
// matches, fan-outs skip it) and the loss is recorded in
// Integrity.Quarantined for /stats and /healthz to surface. Header,
// dictionary or table corruption still fails — there is nothing to
// degrade to — as does a store with no healthy shard left.
func ReadDegraded(path string) (*Store, error) { return readStore(path, true) }

func readStore(path string, degraded bool) (st *Store, err error) {
	start := time.Now()
	m, modified, err := openMapping(path)
	if err != nil {
		return nil, err
	}
	// Decoders assume length fields they read are self-consistent; on a
	// corrupted file that assumption can surface as a slice-bounds panic
	// before a checksum is reached, and a file truncated by another
	// process while it is mapped faults on the lost pages (SIGBUS, turned
	// into a panic for the duration of the open). This boundary converts
	// any such panic into a corruption error: Read never takes the
	// process down.
	defer func() {
		if p := recover(); p != nil {
			st, err = nil, fmt.Errorf("store: %s: %w: decoder panic: %v", path, codec.ErrCorrupt, p)
		}
		if err != nil {
			m.release() // nothing decoded from it escapes a failed open
		} else {
			st.OpenDuration = time.Since(start)
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	c := walkContainer(m.data, m)
	st = &Store{Dicts: c.dicts, Modified: modified, Integrity: Integrity{Version: c.version, Mapped: m.mapped}}
	var shards []core.Index
	var quarantined []int
	for _, p := range c.parts {
		switch {
		case p.err == nil:
			if p.section {
				shards = append(shards, p.index)
			}
		case degraded && c.sharded && p.section:
			quarantined = append(quarantined, len(shards))
			shards = append(shards, nil)
		default:
			return nil, fmt.Errorf("store: %s: %w", path, p.err)
		}
	}
	if !c.sharded {
		st.Index = shards[0]
		return st, nil
	}
	if len(quarantined) == len(shards) {
		return nil, fmt.Errorf("store: %s: all %d shard sections failed verification", path, len(shards))
	}
	if len(quarantined) > 0 {
		st.Index, err = shard.NewDegraded(shards)
	} else {
		st.Index, err = shard.New(shards)
	}
	if err != nil {
		return nil, err
	}
	st.Integrity.Quarantined = quarantined
	return st, nil
}

// IsSharded reports whether the file at path is a multi-shard store,
// by sniffing its magic — no index data is decoded, so callers that
// must branch on shardedness before committing to a full load (the
// mutable open path) stay O(1).
func IsSharded(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	// The magic is one length byte and nine bytes of text; a longer
	// length prefix fails against the bytes read.
	var head [1 + len(Magic)]byte
	n, err := io.ReadFull(f, head[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return false, err
	}
	r := codec.NewBytesReader(head[:n], nil)
	magic := r.String()
	if err := r.Err(); err != nil {
		return false, err
	}
	switch magic {
	case Magic:
		return false, nil
	case MagicSharded:
		return true, nil
	}
	return false, fmt.Errorf("not an rdfstore file (magic %q)", magic)
}

// Shards returns the shard count of the store's index: the partition
// width for a sharded index, 1 for everything else.
func (st *Store) Shards() int {
	if sh, ok := st.Index.(*shard.Store); ok {
		return sh.NumShards()
	}
	return 1
}

// ParseTerm interprets a query term: "?" (or empty) is a wildcard, <...>
// and quoted literals go through the dictionary (the predicate
// dictionary when predicate is true), bare integers are raw IDs.
func (st *Store) ParseTerm(s string, predicate bool) (core.ID, error) {
	if s == "?" || s == "" {
		return core.Wildcard, nil
	}
	if strings.HasPrefix(s, "<") || strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "_:") {
		if st.Dicts == nil {
			return 0, fmt.Errorf("store has no dictionary; use integer IDs")
		}
		d := st.Dicts.SO
		if predicate {
			d = st.Dicts.P
		}
		id, ok := d.Locate(s)
		if !ok {
			return 0, fmt.Errorf("term %s not in dictionary", s)
		}
		return core.ID(id), nil
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("term %q is neither ?, a <uri>, a literal, nor an integer ID", s)
	}
	return core.ID(v), nil
}

// ParsePattern resolves the three term strings of a selection pattern.
func (st *Store) ParsePattern(s, p, o string) (core.Pattern, error) {
	var pat core.Pattern
	var err error
	if pat.S, err = st.ParseTerm(s, false); err != nil {
		return pat, err
	}
	if pat.P, err = st.ParseTerm(p, true); err != nil {
		return pat, err
	}
	if pat.O, err = st.ParseTerm(o, false); err != nil {
		return pat, err
	}
	return pat, nil
}

// Render maps a subject/object ID back to its term, falling back to
// <id> notation for integer-only stores.
func (st *Store) Render(id core.ID) string {
	if st.Dicts != nil {
		if s, ok := st.Dicts.SO.Extract(int(id)); ok {
			return s
		}
	}
	return fmt.Sprintf("<%d>", id)
}

// RenderPredicate maps a predicate ID back to its term.
func (st *Store) RenderPredicate(id core.ID) string {
	if st.Dicts != nil {
		if s, ok := st.Dicts.P.Extract(int(id)); ok {
			return s
		}
	}
	return fmt.Sprintf("<%d>", id)
}

// TranslateQuery rewrites URI/literal constants of a BGP query into
// dictionary IDs so the integer-level sparql parser can handle it.
// Constants in predicate position use the predicate dictionary;
// subject/object positions use the shared SO dictionary. The body is
// tokenized term-aware — dots inside <IRI>s and "literal"s (near
// universal in real RDF) are not pattern separators.
func (st *Store) TranslateQuery(qs string) (string, error) {
	open := strings.IndexByte(qs, '{')
	close := strings.LastIndexByte(qs, '}')
	if open < 0 || close < open {
		return "", fmt.Errorf("query has no { ... } block")
	}
	head := qs[:open+1]
	toks, err := tokenizeBGPBody(qs[open+1 : close])
	if err != nil {
		return "", err
	}
	var out strings.Builder
	out.WriteString(head)
	for len(toks) > 0 {
		if len(toks) < 3 {
			return "", fmt.Errorf("triple pattern %q does not have 3 terms", strings.Join(toks, " "))
		}
		for pos, f := range toks[:3] {
			if f == "." {
				return "", fmt.Errorf("triple pattern ends after %d terms", pos)
			}
			out.WriteByte(' ')
			if strings.HasPrefix(f, "?") || isNumericIRI(f) {
				out.WriteString(f)
				continue
			}
			if st.Dicts == nil {
				return "", fmt.Errorf("store has no dictionary; use <id> constants")
			}
			d := st.Dicts.SO
			if pos == 1 {
				d = st.Dicts.P
			}
			id, ok := d.Locate(f)
			if !ok {
				return "", fmt.Errorf("term %s not in dictionary", f)
			}
			fmt.Fprintf(&out, "<%d>", id)
		}
		toks = toks[3:]
		// The separating dot is mandatory between patterns, optional
		// after the last one.
		if len(toks) > 0 {
			if toks[0] != "." {
				return "", fmt.Errorf("expected '.' after triple pattern, got %q", toks[0])
			}
			toks = toks[1:]
		}
		out.WriteString(" .")
	}
	out.WriteString(" }")
	return out.String(), nil
}

// tokenizeBGPBody splits a BGP body into terms and "." separators. A
// dot is a separator only outside <...> and "..." spans; literals keep
// any @lang or ^^<datatype> suffix attached.
func tokenizeBGPBody(body string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(body) {
		c := body[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '.':
			toks = append(toks, ".")
			i++
		case c == '<':
			j := strings.IndexByte(body[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("unterminated <...> in BGP")
			}
			toks = append(toks, body[i:i+j+1])
			i += j + 1
		case c == '"':
			j := i + 1
			for j < len(body) {
				if body[j] == '\\' {
					j += 2
					continue
				}
				if body[j] == '"' {
					break
				}
				j++
			}
			if j >= len(body) {
				return nil, fmt.Errorf("unterminated string literal in BGP")
			}
			j++ // closing quote
			// Attached @lang or ^^<datatype> suffix; a bare '.' after
			// the quote stays a pattern separator.
			if j < len(body) && body[j] == '@' {
				j++
				for j < len(body) && (isNameByte(body[j]) || body[j] == '-') {
					j++
				}
			} else if j+1 < len(body) && body[j] == '^' && body[j+1] == '^' {
				j += 2
				if j < len(body) && body[j] == '<' {
					k := strings.IndexByte(body[j:], '>')
					if k < 0 {
						return nil, fmt.Errorf("unterminated datatype IRI in BGP")
					}
					j += k + 1
				}
			}
			toks = append(toks, body[i:j])
			i = j
		default:
			// Bare token (?var, _:blank, keyword): runs to whitespace or
			// a separating dot.
			j := i
			for j < len(body) && !isSpaceByte(body[j]) && body[j] != '.' {
				j++
			}
			toks = append(toks, body[i:j])
			i = j
		}
	}
	return toks, nil
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isNumericIRI(s string) bool {
	if !strings.HasPrefix(s, "<") || !strings.HasSuffix(s, ">") {
		return false
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return false
	}
	for _, c := range body {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
