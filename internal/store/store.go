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
	"path/filepath"
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
	"rdfindexes/internal/sparql"
)

// Magic is the store signature; a store file holds one index. The
// container carries per-section CRC32C checksums, so a flipped byte
// anywhere in the file is detected at open instead of decoding into
// silent garbage, and it is 8-byte aligned throughout, so the open serves
// the index straight from the mapped file:
//
//	magic
//	header  = dict flag (1), dictionaries        | CRC32C | pad
//	table   = one uint64 section payload length  | CRC32C | pad
//	section = serialized index                   | CRC32C
//
// Every checksum covers exactly the bytes of its section and trails
// them. Pads are zero bytes up to the next multiple of 8 from the start
// of the file, and word arrays inside a section are padded the same way
// relative to the section start (codec.Writer.Uint64s), so every word
// array lies 8-byte aligned in the file. There is no pad after the last
// checksum. The table gives the section's length up front, so the
// section's checksum is verified before any of it is decoded.
const Magic = "RDFSTORE10"

// CurrentVersion is the container format version Write produces and
// Read accepts. Files of older versions are refused by their magic,
// with the version named, and rebuilt with rdfstore build. v5 changed
// only the dictionaries' coding (two-level front coding: bucket heads
// coded against a verbatim group sample, one-byte entry headers, bucket
// offsets as fixed-width words); v3's and v4's container and index
// bytes are v5's. v6 numbers the SO dictionary subjects first, in two
// runs, and records where the second starts; the container and the
// index codecs are v5's, the index's IDs are not. v7 ends the SO
// dictionary's second run in numeric sections: its canonical
// xsd:integer and xsd:decimal literals, numbered in value order and
// stored as Elias-Fano sequences of values; each dictionary records
// how many sections it has, and a dictionary without numeric literals
// stores v6's bytes after that count. v8 keeps one section per datatype
// and scale, and no numeric literal among the strings; its bytes are
// v7's otherwise. v9 cross-compresses 2Tp's SPO against POS: SPO's
// third level holds each object's rank among its predicate's objects,
// Elias-Fano coded, where v8 held the object ID. The container and the
// other layouts' bytes are v8's, but a v8 2Tp file read as ranks would
// answer wrongly with every checksum intact, so the magic refuses it.
//
// v10 lets 2Tp cross-compress POS against a PS structure, the lists of
// each predicate's subjects (PEF coded, after the tries, as 2To's):
// POS's third level then holds each subject's rank in its predicate's
// list, PEF coded, where v9 held the Compact subject ID. A build keeps
// the ranks only where they and PS write fewer bytes than the IDs, and
// a flag byte before 2Tp's tries records which it kept. The container
// and the other layouts' index bytes are v9's, but a v9 2Tp file read
// as v10 would take its first trie's bytes for the flag, so the magic
// refuses it.
const CurrentVersion = 10

// magicStem is what every version's magic starts with; the version
// number follows it.
const magicStem = "RDFSTORE"

// Integrity describes what Read verified about the container a Store
// was loaded from.
type Integrity struct {
	// Version is the container format version; every section's CRC32C
	// was verified at open. 0 for views that never touched disk (fresh
	// mutable snapshots inherit the loaded store's value).
	Version int
	// Mapped is true while the view's index and dictionaries are served
	// from the memory-mapped store file — after a merge too, whose views
	// serve the file it wrote — and false where the platform reads the
	// file into memory.
	Mapped bool
}

// Store is an index plus its SO and P dictionaries.
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
	// Integrity records the container version and the mapping of the
	// load that produced this store.
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

// Write serializes the store to path: magic, dictionaries, then the
// index. Only static state serializes; a serving view (dynamic snapshot
// index, overlay dictionaries) must be folded (merged) first, and a
// store without dictionaries is refused, as is one whose tries' root
// counts disagree with its dictionaries, which Verify would fail.
//
// The file is replaced atomically: Write writes a sibling temp file,
// fsyncs it, renames it over path and fsyncs the directory. A process
// serving the old file from a mapping keeps its inode and its data; no
// writer truncates a mapped file.
func Write(path string, st *Store) error {
	if _, ok := st.Index.(*core.DynamicSnapshot); ok {
		return fmt.Errorf("store: index is a serving snapshot, not serializable (merge first)")
	}
	d := st.Dicts
	if d == nil {
		return fmt.Errorf("store: no dictionaries (build the store from N-Triples)")
	}
	so, ok := d.SO.(*dict.Dict)
	if !ok {
		return fmt.Errorf("store: SO dictionary is not serializable (fold the overlay first)")
	}
	p, ok := d.P.(*dict.Dict)
	if !ok {
		return fmt.Errorf("store: P dictionary is not serializable (fold the overlay first)")
	}
	if err := checkRoots(so, p, st.Index); err != nil {
		return fmt.Errorf("store: index and dictionaries disagree: %w", err)
	}
	tmp := path + ".tmp"
	if err := writeFile(tmp, st.Index, so, p); err != nil {
		fsys.Remove(tmp) // best effort: the error that matters is err
		return err
	}
	return replace(tmp, path)
}

// replace renames the synced file tmp over path and syncs the directory,
// so the rename is durable before any dependent state changes; on
// failure tmp is removed. The directory sync is best effort: not all
// filesystems support syncing a directory handle.
func replace(tmp, path string) error {
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// writeFile writes the container to path and fsyncs it.
func writeFile(path string, x core.Index, so, p *dict.Dict) error {
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
	w.String(Magic)
	// The header section (the dictionaries) streams through the writer's
	// CRC32C tee; its checksum trails it.
	w.StartChecksum()
	w.Byte(1) // the dictionary flag: a store always has its dictionaries
	so.Encode(w)
	p.Encode(w)
	w.Uint32(w.StopChecksum())
	w.Pad()
	if err := w.Flush(); err != nil {
		return err
	}
	if err := writeSection(f, w.Written(), x); err != nil {
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

// tableLen is the size of the section table: the index payload length
// as a uint64, the table's CRC32C and the pad to the 8-aligned section.
const tableLen = 8 + 4 + 4

// writeSection streams the index section straight to the file, which is
// positioned at the 8-aligned offset pos, and then patches the table in
// place: a placeholder table is written first, the section streams
// through a counting/hashing writer (it is never buffered whole, so
// writing costs O(1) extra memory regardless of store size) with its
// CRC32C right behind it, and a final seek pair fills in the measured
// length plus the table's own checksum.
func writeSection(f faultfs.File, pos int64, x core.Index) error {
	var table [tableLen]byte
	if _, err := f.Write(table[:]); err != nil {
		return err
	}
	cw := &countingWriter{w: f}
	if err := core.WriteIndex(cw, x); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.crc)
	if _, err := f.Write(trailer[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(table[:], cw.n)
	binary.LittleEndian.PutUint32(table[8:], crc32.Checksum(table[:8], codec.Castagnoli))
	if _, err := f.Seek(pos, io.SeekStart); err != nil {
		return err
	}
	if _, err := f.Write(table[:]); err != nil {
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
	m.data = nil
}

// part is one part of a store file as walkContainer found it.
type part struct {
	name  string // "magic", "header", "table" or "index"
	bytes int64
	err   error
}

// container is what walkContainer found in a store file.
type container struct {
	version int // CurrentVersion once the magic matched, else 0
	dicts   *rdf.Dicts
	index   core.Index // the decoded index section; nil on error
	parts   []part
}

func (c *container) fail(name string, bytes int, err error) *container {
	c.parts = append(c.parts, part{name: name, bytes: int64(bytes), err: err})
	return c
}

// walkContainer decodes a store file held in data: the magic, the
// header, the section table and the index section. Every part is checked
// against its trailing CRC32C over the bytes in data — the index section
// before any of it is decoded — and every pad byte must be zero. The
// walk records each part it reaches in c.parts with its outcome; it
// stops early only where the rest of the file cannot be located (a bad
// magic, an undecodable header, a corrupt table), so a checksum failure
// in the header does not hide the state of the index.
func walkContainer(data []byte, owner any) *container {
	c := &container{}
	r := codec.NewBytesReader(data, owner)
	magic := r.String()
	switch {
	case r.Err() != nil:
		return c.fail("magic", r.Offset(), r.Err())
	case magic != Magic:
		if rest, ok := strings.CutPrefix(magic, magicStem); ok {
			if v, err := strconv.Atoi(rest); err == nil && v > 0 && v < CurrentVersion {
				return c.fail("magic", r.Offset(), fmt.Errorf("store format v%d is no longer read (this build reads v%d): rebuild with rdfstore build", v, CurrentVersion))
			}
		}
		return c.fail("magic", r.Offset(), fmt.Errorf("not an rdfstore file (magic %q)", magic))
	}
	c.version = CurrentVersion

	// Header: dictionary flag + dictionaries, its CRC, the pad to the
	// table. Its length is known only by decoding it, so the checksum is
	// compared after the decode, which the bounded reader keeps safe on
	// any bytes. The flag is always 1; a 0 marks a store written without
	// dictionaries, which this build no longer reads.
	start := r.Offset()
	if flag := r.Byte(); r.Err() == nil && flag != 1 {
		return c.fail("header", r.Offset()-start, fmt.Errorf("dictionary flag %d in the header: stores without dictionaries are no longer read; rebuild the store from N-Triples with rdfstore build", flag))
	}
	so, err := dict.Decode(r)
	if err != nil {
		return c.fail("header", r.Offset()-start, fmt.Errorf("SO dictionary: %w", err))
	}
	p, err := dict.Decode(r)
	if err != nil {
		return c.fail("header", r.Offset()-start, fmt.Errorf("P dictionary: %w", err))
	}
	c.dicts = &rdf.Dicts{SO: so, P: p}
	end := r.Offset()
	stored := r.Uint32()
	r.Pad()
	if err := r.Err(); err != nil {
		return c.fail("header", r.Offset()-start, err)
	}
	if err := checksum("header", data[start:end], stored); err != nil {
		// The dictionaries decoded, so the header's shape is plausible
		// and the section behind it may still be sound: keep walking.
		c.fail("header", r.Offset()-start, err)
	} else {
		c.parts = append(c.parts, part{name: "header", bytes: int64(r.Offset() - start)})
	}

	// Section table: the index payload length, its CRC, the pad to the
	// section. The section and its CRC end the file.
	start = r.Offset()
	length := r.Uint64()
	end = r.Offset()
	stored = r.Uint32()
	r.Pad()
	if err := r.Err(); err != nil {
		return c.fail("table", r.Offset()-start, err)
	}
	if err := checksum("table", data[start:end], stored); err != nil {
		return c.fail("table", r.Offset()-start, err) // the length is untrustworthy
	}
	if rest := uint64(len(data) - r.Offset()); rest < 4 || length != rest-4 {
		return c.fail("table", r.Offset()-start, fmt.Errorf("%w: section of %d bytes plus its checksum, file has %d after the header",
			codec.ErrCorrupt, length, rest))
	}
	c.parts = append(c.parts, part{name: "table", bytes: int64(r.Offset() - start)})
	c.parts = append(c.parts, c.decodeIndex(data[r.Offset():], int(length), owner))
	return c
}

// checksum compares the CRC32C of a part's bytes with the stored one.
func checksum(name string, b []byte, stored uint32) error {
	if sum := crc32.Checksum(b, codec.Castagnoli); sum != stored {
		return fmt.Errorf("%w: %s checksum mismatch (stored %08x, computed %08x)", codec.ErrCorrupt, name, stored, sum)
	}
	return nil
}

// decodeIndex verifies and decodes the index section into c.index: b
// holds its payload of the given length and its CRC32C. A section whose
// bytes verify but do not decode is a writer/decoder mismatch rather
// than storage corruption, and is reported as such; a decoder panic is
// converted into an error.
func (c *container) decodeIndex(b []byte, length int, owner any) (p part) {
	p = part{name: "index", bytes: int64(length)}
	defer func() {
		if r := recover(); r != nil {
			c.index, p.err = nil, fmt.Errorf("%w: index section: decoder panic: %v", codec.ErrCorrupt, r)
		}
	}()
	if p.err = checksum("index section", b[:length], binary.LittleEndian.Uint32(b[length:])); p.err != nil {
		return p
	}
	if c.index, p.err = core.DecodeIndex(codec.NewBytesReader(b[:length], owner)); p.err != nil {
		p.err = fmt.Errorf("store: index section: %w", p.err)
	}
	return p
}

// Read loads a store written by Write. It maps the file, checks every
// section's checksum over the mapped bytes and decodes the sections in
// place: the index's word arrays and the dictionaries' bytes are views
// into the mapping, which lives as long as anything decoded from it (see
// mapping). Any checksum mismatch fails the open with the offending
// section named.
func Read(path string) (st *Store, err error) {
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
	for _, p := range c.parts {
		if p.err != nil {
			return nil, fmt.Errorf("store: %s: %w", path, p.err)
		}
	}
	return &Store{Index: c.index, Dicts: c.dicts, Modified: modified, Integrity: Integrity{Version: c.version, Mapped: m.mapped}}, nil
}

// ParseTerm interprets a query term: "?" (or empty) is a wildcard, <...>
// and quoted literals go through the dictionary (the predicate
// dictionary when predicate is true), bare integers are raw IDs.
func (st *Store) ParseTerm(s string, predicate bool) (core.ID, error) {
	if s == "?" || s == "" {
		return core.Wildcard, nil
	}
	if strings.HasPrefix(s, "<") || strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "_:") {
		return st.locate(s, predicate)
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
// <id> notation for an ID the dictionary does not hold.
func (st *Store) Render(id core.ID) string {
	if s, ok := st.Dicts.SO.Extract(int(id)); ok {
		return s
	}
	return fmt.Sprintf("<%d>", id)
}

// RenderPredicate maps a predicate ID back to its term, as Render does.
func (st *Store) RenderPredicate(id core.ID) string {
	if s, ok := st.Dicts.P.Extract(int(id)); ok {
		return s
	}
	return fmt.Sprintf("<%d>", id)
}

// NumericSection is one numeric section of the SO dictionary in the
// shape of core.R: the object IDs of one datatype and scale's canonical
// literals, consecutive and in value order, and their values, which R
// holds as the literal values scaled by 10^Scale, minus Min.
type NumericSection struct {
	Datatype dict.Datatype
	Scale    int // fraction digits of a decimal, 0 for an integer
	Min      int64
	R        *core.R
	Bytes    int // the section's footprint in the dictionary (dict.Section.Bytes)
}

// NumericSections returns the numeric sections of the SO dictionary;
// for a serving view, those of its merged base: a numeric term added
// since the last merge is a string until the next one.
func (st *Store) NumericSections() []NumericSection {
	r := st.Dicts.SO
	if o, ok := r.(*dict.Overlay); ok {
		r = o.Base()
	}
	d, ok := r.(*dict.Dict)
	if !ok {
		return nil
	}
	var out []NumericSection
	for _, s := range d.Sections() {
		out = append(out, NumericSection{Datatype: s.Datatype, Scale: s.Scale, Min: s.Min,
			R: core.NewRSequence(core.ID(s.Base), s.Values), Bytes: s.Bytes()})
	}
	return out
}

// IDRange returns the interval of object IDs whose values, scaled by
// 10^Scale, lie in [lo, hi]: the bounds a RangeSelecter's
// SelectObjectRange takes. ok is false when no value does.
func (s NumericSection) IDRange(lo, hi int64) (idLo, idHi core.ID, ok bool) {
	if lo > hi || hi < s.Min {
		return 0, 0, false
	}
	lo = max(lo, s.Min)
	return s.R.IDRange(uint64(lo)-uint64(s.Min), uint64(hi)-uint64(s.Min))
}

// ParseQuery parses a BGP query whose constants are RDF terms as the
// store's dictionaries spell them (or <id> constants), resolving each to
// its ID as the parser reaches it: predicate positions use the predicate
// dictionary, subject/object positions the shared SO dictionary.
func (st *Store) ParseQuery(qs string) (sparql.Query, error) {
	return sparql.ParseWith(qs, st.locate)
}

// ParseQueryInto is ParseQuery into q, reusing the capacity of q's
// slices (see sparql.ParseInto).
func (st *Store) ParseQueryInto(q *sparql.Query, qs string) error {
	return sparql.ParseInto(q, qs, st.locate)
}

// locate is ParseQuery's sparql.Resolver and ParseTerm's dictionary
// lookup.
func (st *Store) locate(term string, pred bool) (core.ID, error) {
	d := st.Dicts.SO
	if pred {
		d = st.Dicts.P
	}
	id, ok := d.Locate(term)
	if !ok {
		return 0, fmt.Errorf("term %s not in dictionary", term)
	}
	return core.ID(id), nil
}

// TranslateQuery rewrites a BGP query's RDF-term constants into
// dictionary IDs: ParseQuery's result as text in the integer syntax that
// sparql.Parse reads.
func (st *Store) TranslateQuery(qs string) (string, error) {
	q, err := st.ParseQuery(qs)
	if err != nil {
		return "", err
	}
	return q.String(), nil
}
