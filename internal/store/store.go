// Package store bundles a compressed index with its string dictionaries
// into the on-disk store the rdfstore CLI and the query server share. A
// loaded Store is immutable: the index, the dictionaries and the lookup
// helpers below are all read-only, so one Store may serve any number of
// goroutines concurrently (the "one index, N goroutines" contract of
// internal/core). Updates go through Mutable (mutable.go), which keeps
// that contract by publishing a fresh immutable Store view per write.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/faultfs"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/shard"
)

// MagicV1 is the legacy (unchecksummed) single-index store signature.
// V1 files still open — read-compat — but nothing verifies their bytes,
// which stats and verify surface as "unverified".
const MagicV1 = "RDFSTORE1"

// MagicShardedV1 is the legacy multi-shard store signature: magic, the
// optional dictionaries (shared by all shards), the shard count, a table
// of per-shard section byte lengths, then the shards' serialized indexes
// back to back. The length table gives every shard's file offset up
// front, so Read decodes the sections in parallel with independent
// readers.
const MagicShardedV1 = "RDFSHARD1"

// Magic is the current single-index store signature. Version 2 carries
// per-section CRC32C checksums so a flipped byte anywhere in the file is
// detected at open instead of decoding into silent garbage:
//
//	magic
//	header  = dict flag, dictionaries            | CRC32C
//	table   = one uint64 section payload length  | CRC32C
//	section = serialized index                   | CRC32C
//
// Every checksum covers exactly the bytes of its section and trails
// them, written through a counting/hashing writer at O(1) extra memory.
const Magic = "RDFSTORE2"

// MagicSharded is the current multi-shard store signature: as Magic, but
// the header additionally ends with the shard count, the table holds one
// payload length per shard, and one checksummed section follows per
// shard. Sections are still decoded in parallel; each section reader
// hashes its bytes as it goes and verifies its own trailing CRC.
const MagicSharded = "RDFSHARD2"

// CurrentVersion is the container format version Write produces.
const CurrentVersion = 2

// Integrity describes what Read verified about the container a Store
// was loaded from.
type Integrity struct {
	// Version is the container format version: 1 for the legacy
	// unchecksummed formats, 2 for the checksummed ones. 0 for views
	// that never touched disk (fresh mutable snapshots inherit the
	// loaded store's value).
	Version int
	// Verified is true when every section's CRC32C was checked at open.
	Verified bool
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
	// Integrity records the container version and checksum verification
	// outcome of the load that produced this store.
	Integrity Integrity
	// Modified is when this view came to be: the container file's mtime
	// for a store loaded from disk, the publication time for a view
	// published by Mutable. It backs the HTTP Last-Modified header, so
	// it is per-view immutable like Gen.
	Modified time.Time
	// OpenDuration is how long the open that produced this view took:
	// Read's decode and checksum pass, plus WAL replay for a Mutable,
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
	if sharded {
		w.String(MagicSharded)
	} else {
		w.String(Magic)
	}
	// The header section (dictionaries, shard count) streams through the
	// writer's CRC32C tee; its checksum trails it.
	w.StartChecksum()
	if st.Dicts != nil {
		w.Byte(1)
		so.Encode(w)
		p.Encode(w)
	} else {
		w.Byte(0)
	}
	if sharded {
		w.Uvarint(uint64(sh.NumShards()))
	}
	w.Uint32(w.StopChecksum())
	if err := w.Flush(); err != nil {
		return err
	}
	if sharded {
		err = writeSections(f, sh.NumShards(), sh.Shard)
	} else {
		err = writeSections(f, 1, func(int) core.Index { return st.Index })
	}
	if err != nil {
		return err
	}
	// The merge path renames this file over the live store and then
	// truncates the WAL; the data must be on disk before either step,
	// or a power failure could lose WAL-acknowledged writes.
	if err := f.Sync(); err != nil {
		return err
	}
	err = f.Close()
	f = nil
	return err
}

// writeSections streams the n index sections straight to the file and
// then patches the section-length table in place: a placeholder table is
// written first, each section streams through a counting/hashing writer
// (no section is ever buffered whole, so writing costs O(1) extra memory
// regardless of store size) with its CRC32C appended right behind it,
// and a final seek pair fills in the measured lengths plus the table's
// own checksum.
func writeSections(f faultfs.File, n int, section func(int) core.Index) error {
	tablePos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	// n uint64 payload lengths followed by the table's CRC32C.
	table := make([]byte, 8*n+4)
	if _, err := f.Write(table); err != nil {
		return err
	}
	var crcBuf [4]byte
	for i := 0; i < n; i++ {
		cw := &countingWriter{w: f}
		if err := core.WriteIndex(cw, section(i)); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(crcBuf[:], cw.crc)
		if _, err := f.Write(crcBuf[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(table[8*i:], cw.n)
	}
	binary.LittleEndian.PutUint32(table[8*n:], crc32.Checksum(table[:8*n], codec.Castagnoli))
	if _, err := f.Seek(tablePos, io.SeekStart); err != nil {
		return err
	}
	if _, err := f.Write(table); err != nil {
		return err
	}
	_, err = f.Seek(0, io.SeekEnd)
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

// Read loads a store written by Write, auto-detecting the four
// container formats (v1/v2, single/sharded) by their magic. Version-2
// files verify every section checksum during the load; any mismatch
// fails the open with the offending section named. Multi-shard files
// decode their shard sections in parallel.
func Read(path string) (*Store, error) { return readStore(path, false) }

// ReadDegraded loads a store like Read, but a v2 shard section that
// fails its checksum is quarantined instead of failing the open: the
// remaining shards keep serving (routed queries to the quarantined
// shard return no matches, fan-outs skip it) and the loss is recorded
// in Integrity.Quarantined for /stats and /healthz to surface. Header,
// dictionary or table corruption still fails — there is nothing to
// degrade to — as does a store with no healthy shard left.
func ReadDegraded(path string) (*Store, error) { return readStore(path, true) }

func readStore(path string, degraded bool) (st *Store, err error) {
	// Decoders assume length fields they read are self-consistent; on a
	// corrupted file that assumption can surface as a slice-bounds panic
	// before a checksum is reached. This boundary converts any such
	// panic into a corruption error: Read never takes the process down.
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			st, err = nil, fmt.Errorf("store: %s: %w: decoder panic: %v", path, codec.ErrCorrupt, p)
		}
		if st != nil {
			st.OpenDuration = time.Since(start)
		}
	}()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// One buffered stream shared by the header decoder and the section
	// loads of the single-index legacy format.
	br := bufio.NewReader(f)
	r := codec.NewReader(br)
	r.SetAllocLimit(fi.Size())
	magic := r.String()
	var v2, sharded bool
	switch magic {
	case MagicV1:
	case MagicShardedV1:
		sharded = true
	case Magic:
		v2 = true
	case MagicSharded:
		v2, sharded = true, true
	default:
		return nil, fmt.Errorf("not an rdfstore file (magic %q)", magic)
	}
	st = &Store{Integrity: Integrity{Version: 1}, Modified: fi.ModTime()}
	if v2 {
		st.Integrity = Integrity{Version: 2, Verified: true}
		r.StartChecksum()
	}
	if r.Byte() == 1 {
		so, err := dict.Decode(r)
		if err != nil {
			return nil, err
		}
		p, err := dict.Decode(r)
		if err != nil {
			return nil, err
		}
		st.Dicts = &rdf.Dicts{SO: so, P: p}
	}
	n := 1
	if sharded {
		n = int(r.Uvarint())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if n < 1 || n > shard.MaxShards {
			return nil, fmt.Errorf("%w: shard count %d out of range [1, %d]", codec.ErrCorrupt, n, shard.MaxShards)
		}
	}
	if v2 {
		sum := r.StopChecksum()
		stored := r.Uint32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if sum != stored {
			return nil, fmt.Errorf("%w: section header checksum mismatch (stored %08x, computed %08x)",
				codec.ErrCorrupt, stored, sum)
		}
	}
	if !v2 {
		// Legacy formats: no table for single indexes, an unchecksummed
		// length table for sharded ones. Nothing is verified.
		if sharded {
			st.Index, err = readShardsV1(f, fi.Size(), r, n)
		} else {
			if err := r.Err(); err != nil {
				return nil, err
			}
			st.Index, err = core.ReadIndexLimited(br, fi.Size())
		}
		if err != nil {
			return nil, err
		}
		return st, nil
	}

	// V2: checksummed section-length table, then one checksummed section
	// per index.
	lengths := make([]int64, n)
	var total int64
	r.StartChecksum()
	for i := range lengths {
		v := r.Uint64()
		if v > 1<<62 || int64(v) < 0 {
			return nil, fmt.Errorf("%w: section %d length %d", codec.ErrCorrupt, i, v)
		}
		lengths[i] = int64(v)
		total += lengths[i] + 4
	}
	tableSum := r.StopChecksum()
	tableStored := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if tableSum != tableStored {
		return nil, fmt.Errorf("%w: section table checksum mismatch (stored %08x, computed %08x)",
			codec.ErrCorrupt, tableStored, tableSum)
	}
	base := r.Read()
	if base+total != fi.Size() {
		return nil, fmt.Errorf("%w: sections cover %d bytes, file has %d after the header",
			codec.ErrCorrupt, total, fi.Size()-base)
	}
	shards := make([]core.Index, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	off := base
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int, off, length int64) {
			defer wg.Done()
			shards[i], errs[i] = readSectionChecksummed(f, off, length, sectionName(sharded, i))
		}(i, off, lengths[i])
		off += lengths[i] + 4
	}
	wg.Wait()
	if !sharded {
		if errs[0] != nil {
			return nil, errs[0]
		}
		st.Index = shards[0]
		return st, nil
	}
	var quarantined []int
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !degraded {
			return nil, err
		}
		quarantined = append(quarantined, i)
		shards[i] = nil
	}
	if len(quarantined) == n {
		return nil, fmt.Errorf("store: %s: all %d shard sections failed verification: %w", path, n, errs[0])
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

// sectionName names an index section for error reports.
func sectionName(sharded bool, i int) string {
	if sharded {
		return fmt.Sprintf("shard %d", i)
	}
	return "index"
}

// readSectionChecksummed loads one v2 index section: the payload bytes
// at [off, off+length) are decoded while streaming through a CRC32C
// hash, and the section's trailing stored checksum must match — whether
// or not the decode succeeded, so a flipped byte that still parses is
// caught, and one that breaks parsing is reported as the checksum
// mismatch it is.
func readSectionChecksummed(f *os.File, off, length int64, name string) (core.Index, error) {
	sr := io.NewSectionReader(f, off, length)
	h := crc32.New(codec.Castagnoli)
	br := bufio.NewReader(io.TeeReader(sr, h))
	x, decodeErr := core.ReadIndexLimited(br, length)
	// Hash whatever the decoder did not consume so the checksum always
	// covers the full section.
	if _, err := io.Copy(io.Discard, br); err != nil {
		return nil, fmt.Errorf("store: section %s: %w", name, err)
	}
	var crcb [4]byte
	if _, err := f.ReadAt(crcb[:], off+length); err != nil {
		return nil, fmt.Errorf("%w: section %s checksum missing: %v", codec.ErrCorrupt, name, err)
	}
	if stored := binary.LittleEndian.Uint32(crcb[:]); h.Sum32() != stored {
		return nil, fmt.Errorf("%w: section %s checksum mismatch (stored %08x, computed %08x)",
			codec.ErrCorrupt, name, stored, h.Sum32())
	}
	if decodeErr != nil {
		// The bytes verify but do not parse: a writer/decoder version
		// mismatch rather than storage corruption.
		return nil, fmt.Errorf("store: section %s: %w", name, decodeErr)
	}
	return x, nil
}

// readShardsV1 decodes the unchecksummed shard table of a legacy
// multi-shard store and loads every shard section concurrently through
// an independent section reader. r must be positioned at the length
// table; its consumed-byte counter gives the file offset of the first
// section (every header byte passes through it).
func readShardsV1(f *os.File, size int64, r *codec.Reader, n int) (*shard.Store, error) {
	lengths := make([]int64, n)
	var total int64
	for i := range lengths {
		v := r.Uint64()
		if v > 1<<62 || int64(v) < 0 {
			return nil, fmt.Errorf("%w: shard %d section length %d", codec.ErrCorrupt, i, v)
		}
		lengths[i] = int64(v)
		total += lengths[i]
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	base := r.Read()
	if base+total != size {
		return nil, fmt.Errorf("%w: shard sections cover %d bytes, file has %d after the header",
			codec.ErrCorrupt, total, size-base)
	}
	shards := make([]core.Index, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	off := base
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int, off, length int64) {
			defer wg.Done()
			shards[i], errs[i] = core.ReadIndexLimited(io.NewSectionReader(f, off, length), length)
		}(i, off, lengths[i])
		off += lengths[i]
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return shard.New(shards)
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
	r := codec.NewReader(f)
	magic := r.String()
	if err := r.Err(); err != nil {
		return false, err
	}
	switch magic {
	case MagicV1, Magic:
		return false, nil
	case MagicShardedV1, MagicSharded:
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
