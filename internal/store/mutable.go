package store

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/faultfs"
	"rdfindexes/internal/obs"
	"rdfindexes/internal/rdf"
)

// Mutable is the updatable serving store: the immutable on-disk Store
// (static index + front-coded dictionaries) extended with the paper's
// Section 3.1 amortized-update machinery, wired for concurrent serving.
//
//   - Writes go through a single-writer mutex into a core.DynamicIndex
//     log; triples may use never-before-seen terms, which are assigned
//     IDs by overlay dictionaries (immutable base + in-memory additions
//     sharing one ID space).
//   - Every accepted write is appended to a write-ahead log next to the
//     store file, so a restarted server recovers the pending log by
//     replaying it through the identical code path (the overlay assigns
//     the same IDs in the same order).
//   - Readers never lock: each write publishes a fresh immutable view —
//     a *Store whose Index is a core.DynamicSnapshot and whose Dicts are
//     overlay views — through an atomic pointer (RCU), so the pooled
//     zero-allocation read path of internal/core keeps holding.
//   - When the log reaches the merge threshold, the overlay dictionaries
//     are folded into rebuilt front-coded ones, every live triple is
//     remapped into the new ID space, the static index is rebuilt, the
//     store file is rewritten atomically (temp file + rename) and read
//     back, and the WAL is truncated.
//   - Every base a view serves — at open, after a merge, after a
//     snapshot from a replication leader — is a store Read returned for
//     the store file, installed by installLocked: the checksum-verified
//     mapping of the file, never an index built in memory.
type Mutable struct {
	mu        sync.Mutex // serializes writers and merges
	path      string
	walPath   string
	wal       faultfs.File
	threshold int
	base      *Store      // what Read returned for the store file; dyn and the overlays sit on it
	recovery  WALRecovery // what replayWAL found at open

	dyn *core.DynamicIndex
	so  *dict.Overlay
	p   *dict.Overlay

	// walRecords counts the records currently in the WAL. It can exceed
	// LogSize when inserts and deletes cancel out, so it gets its own
	// merge trigger: merging is the only point that truncates the WAL
	// and folds the overlays, and a churning writer must not grow either
	// without bound.
	walRecords int

	// walObs, when set, receives every durable WAL append and every
	// merge for WAL-shipping replication (see repl.go).
	walObs WALObserver

	view   atomic.Pointer[Store]
	gen    atomic.Uint64
	merges atomic.Uint64

	openDuration time.Duration // how long openMutable took; stamped on every view
	mergeSeconds obs.Histogram // duration of every completed merge

	// walBytes mirrors the WAL file's size so metric scrapes read it
	// with one atomic load instead of a Stat (or worse, taking mu while
	// a merge rewrites the store). Maintained at open (valid prefix
	// length), append (success or rollback) and merge truncation.
	walBytes atomic.Int64
}

// walChurnFactor bounds WAL growth under cancelling writes: a merge is
// forced once the WAL holds walChurnFactor*threshold records even if
// the logical log stays small.
const walChurnFactor = 4

// WALSuffix is appended to the store path to name its write-ahead log.
const WALSuffix = ".wal"

// WALRecovery reports what replayWAL found at open. A WAL damaged in the
// middle (bit flip, partial page loss) no longer fails the open: replay
// stops at the last verifiable record prefix, the writing opener
// truncates the damage away, and the loss is surfaced here so operators
// can tell "clean start" from "recovered with N records dropped".
type WALRecovery struct {
	// Replayed is the number of records successfully re-applied.
	Replayed int `json:"replayed"`
	// Corrupt is true when a damaged record stopped the replay before
	// the end of the file.
	Corrupt bool `json:"corrupt"`
	// TornTail is true when an unterminated final record (a crash
	// mid-append) was discarded; unlike Corrupt this is an expected
	// crash artifact, not data damage.
	TornTail bool `json:"torn_tail,omitempty"`
	// DroppedRecords counts complete records discarded after the valid
	// prefix (the corrupt record and everything behind it).
	DroppedRecords int `json:"dropped_records,omitempty"`
	// DroppedBytes counts WAL bytes discarded (corrupt suffix plus any
	// torn tail).
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
	// Error describes the first corruption encountered.
	Error string `json:"error,omitempty"`
}

// Recovery returns what the opening WAL replay found.
func (m *Mutable) Recovery() WALRecovery { return m.recovery }

// WriteResult reports the effect of one Insert or Delete.
type WriteResult struct {
	// Changed is true when the logical triple set changed.
	Changed bool `json:"changed"`
	// Merged is true when this write triggered a merge (log folded into
	// a rebuilt static index and persisted).
	Merged bool `json:"merged"`
	// Triples is the logical triple count after the write.
	Triples int `json:"triples"`
	// LogSize is the pending update-log size after the write.
	LogSize int `json:"log_size"`
	// Generation is the write generation of the view current after this
	// write — the read-your-writes token a client presents to a replica
	// via min-gen.
	Generation uint64 `json:"generation"`
}

// OpenMutable loads the store at path for serving with updates,
// replaying any write-ahead log left by a previous process. threshold
// == 0 selects core.DefaultMergeThreshold; threshold < 0 disables
// automatic merging (ReadView uses that to stay non-destructive).
//
// The WAL file carries an exclusive flock for the lifetime of the
// Mutable, so two writing processes (a server plus a CLI insert, say)
// cannot silently diverge: the second opener fails fast instead of
// acknowledging writes the first would erase at its next merge.
func OpenMutable(path string, threshold int) (*Mutable, error) {
	return openMutable(path, threshold, true)
}

func openMutable(path string, threshold int, lock bool) (*Mutable, error) {
	start := time.Now()
	if threshold == 0 {
		threshold = core.DefaultMergeThreshold
	}
	st, err := Read(path)
	if err != nil {
		return nil, err
	}
	m := &Mutable{path: path, walPath: path + WALSuffix, threshold: threshold}
	m.installLocked(st)
	if lock {
		// Only a writing open touches the WAL file: read views must work
		// without write permission and must never create or recreate it.
		m.wal, err = fsys.OpenFile(m.walPath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		if err := flockExclusive(m.wal); err != nil {
			m.wal.Close()
			return nil, fmt.Errorf("store: %s is in use by another process: %w", path, err)
		}
	}
	validLen, err := m.replayWAL()
	if err != nil {
		m.closeWAL()
		return nil, err
	}
	m.walBytes.Store(validLen)
	if lock {
		// Drop a torn tail or corrupt suffix so later appends cannot weld
		// onto it; read-only opens just ignore it.
		if fi, err := m.wal.Stat(); err == nil && fi.Size() > validLen {
			if err := m.wal.Truncate(validLen); err != nil {
				m.wal.Close()
				return nil, fmt.Errorf("store: WAL truncate torn tail: %w", err)
			}
		}
	}
	if m.mergeDueLocked() {
		if err := m.mergeLocked(); err != nil {
			m.closeWAL()
			return nil, err
		}
	}
	m.openDuration = time.Since(start)
	m.publishLocked()
	return m, nil
}

// closeWAL closes the WAL handle if one is open (read-only opens have
// none).
func (m *Mutable) closeWAL() {
	if m.wal != nil {
		m.wal.Close()
	}
}

// mergeDueLocked reports whether the pending state warrants a merge:
// the logical log reached the threshold, or cancelling churn bloated
// the WAL past walChurnFactor times it.
func (m *Mutable) mergeDueLocked() bool {
	return m.threshold > 0 &&
		(m.dyn.LogSize() >= m.threshold || m.walRecords >= walChurnFactor*m.threshold)
}

// ReadView loads the store at path as an immutable read view,
// incorporating any pending write-ahead log without disturbing it: no
// lock, no merge, no writes. The store file and the WAL are read
// without a lock, so a concurrent merge (which renames a new store file
// over the old and truncates the WAL) could slip between the two reads;
// ReadView detects that by re-checking the store file's identity after
// the replay and retries, so the returned view is always a state the
// serving process actually published. Without a WAL this is a plain
// Read.
func ReadView(path string) (*Store, error) {
	const attempts = 5
	var lastErr error
	for try := 0; try < attempts; try++ {
		before, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(path + WALSuffix); err != nil {
			if os.IsNotExist(err) {
				return Read(path)
			}
			return nil, err
		}
		m, err := openMutable(path, -1, false)
		if err != nil {
			// A merge mid-read can also surface as a parse failure
			// (store and WAL from different generations); retry those
			// too when the file identity moved.
			if after, serr := os.Stat(path); serr == nil && !os.SameFile(before, after) {
				lastErr = err
				continue
			}
			return nil, err
		}
		st := m.View()
		m.Close()
		after, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if os.SameFile(before, after) {
			return st, nil
		}
		lastErr = fmt.Errorf("store: %s was replaced concurrently", path)
	}
	return nil, fmt.Errorf("store: %s kept changing under the read (%d attempts): %w", path, attempts, lastErr)
}

// Close releases the write-ahead log file handle (dropping its flock).
// Pending log entries stay in the WAL and are recovered by the next
// OpenMutable.
func (m *Mutable) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return nil
	}
	err := m.wal.Close()
	m.wal = nil
	return err
}

// View returns the current immutable read view. The view is a consistent
// snapshot: any number of goroutines may query it concurrently, and it
// is never invalidated — later writes publish new views instead.
func (m *Mutable) View() *Store { return m.view.Load() }

// Generation returns a counter that increases on every write that
// changed the logical triple set (including merges). It is read off the
// current view — the view and its generation are stamped together at
// publication, so the pair cannot be torn. Caches keyed on query text
// must incorporate the generation of the view they were computed from.
func (m *Mutable) Generation() uint64 { return m.view.Load().Gen }

// Merges returns the number of merges performed since open.
func (m *Mutable) Merges() uint64 { return m.merges.Load() }

// MergeSeconds returns the histogram of completed merge durations, for
// a metrics registry to expose; the Mutable is its only writer.
func (m *Mutable) MergeSeconds() *obs.Histogram { return &m.mergeSeconds }

// Threshold returns the merge threshold.
func (m *Mutable) Threshold() int { return m.threshold }

// WALBytes returns the current size of the write-ahead log in bytes,
// without touching the filesystem or the writer lock — safe to call
// from a metrics scrape at any rate.
func (m *Mutable) WALBytes() int64 { return m.walBytes.Load() }

// publishLocked installs a fresh immutable view carrying the next write
// generation; callers hold m.mu. Stamping the generation inside the
// atomically-swapped view is load-bearing: readers obtain (view, gen)
// with one pointer load, so a cache key built from the generation can
// never describe IDs resolved against a different view's dictionaries.
func (m *Mutable) publishLocked() {
	m.view.Store(&Store{Index: m.dyn.Snapshot(), Dicts: &rdf.Dicts{SO: m.so.View(), P: m.p.View()},
		Gen: m.gen.Add(1), Integrity: m.base.Integrity, Modified: time.Now(), OpenDuration: m.openDuration})
}

// Insert adds one triple given as N-Triples terms or bare integer IDs
// the dictionaries hold. Terms never seen before are assigned fresh
// dictionary IDs via the overlay. The write is logged to the WAL before
// the result is visible to new views.
func (m *Mutable) Insert(s, p, o string) (WriteResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyLocked(opInsert, s, p, o, true)
}

// Delete removes one triple given as N-Triples terms. Deleting an
// absent triple (including one with unknown terms) is a no-op, not an
// error.
func (m *Mutable) Delete(s, p, o string) (WriteResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyLocked(opDelete, s, p, o, true)
}

// Merge forces the pending log to fold into a rebuilt, persisted static
// index even below the threshold.
func (m *Mutable) Merge() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dyn.LogSize() == 0 && m.walRecords == 0 {
		return nil
	}
	finalSeq := uint64(m.walRecords)
	if err := m.mergeLocked(); err != nil {
		return err
	}
	m.publishLocked()
	if m.walObs != nil {
		m.walObs.WALMerged(finalSeq, m.view.Load().Gen)
	}
	return nil
}

const (
	opInsert = 'I'
	opDelete = 'D'
)

// ErrTerm marks write failures caused by the request's terms (unbound,
// unparsable, wrong kind, out of range) as opposed to internal faults
// like WAL I/O or merge errors; the HTTP layer maps the two classes to
// 400 and 500.
var ErrTerm = errors.New("invalid write term")

// PrepareRebuild clears the way for overwriting the store at path with
// a freshly built one. It takes the WAL's non-blocking exclusive flock
// (the same liveness lock OpenMutable holds while serving) so a live
// writing process fails the rebuild fast instead of having its WAL
// yanked from under it; refuses while the WAL still holds acknowledged
// writes, which a rebuild would silently drop; and removes an empty
// leftover WAL so it cannot replay into the unrelated new store. A
// missing WAL needs no preparation.
func PrepareRebuild(path string) error {
	walPath := path + WALSuffix
	f, err := fsys.OpenFile(walPath, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	if err := flockExclusive(f); err != nil {
		return fmt.Errorf("store: %s is in use by another process: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() > 0 {
		return fmt.Errorf("store: %s holds pending writes for the previous store; merge them or delete the WAL before rebuilding", walPath)
	}
	return fsys.Remove(walPath)
}

// writeTerm is one resolved write-side term: its canonical WAL
// spelling, its ID (when found), and which dictionary would assign it
// one otherwise.
type writeTerm struct {
	key   string
	id    core.ID
	found bool
	dict  *dict.Overlay
}

// resolveWriteTerm parses and canonicalizes the write-side term at
// position pos of a triple (0 subject, 1 predicate, 2 object) and looks
// it up, without allocating: overlay IDs for genuinely new terms are
// assigned by applyLocked only after the whole triple validates, so a
// rejected request cannot leak terms into the dictionary. A literal
// subject, as a term or as the ID of one, is refused.
func (m *Mutable) resolveWriteTerm(s string, pos int) (writeTerm, error) {
	predicate := pos == 1
	if s == "" || s == "?" {
		return writeTerm{}, fmt.Errorf("%w: write terms must be bound, got %q", ErrTerm, s)
	}
	if strings.HasPrefix(s, "<") || strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "_:") {
		t, err := rdf.ParseTerm(s)
		if err != nil {
			return writeTerm{}, fmt.Errorf("%w: %v", ErrTerm, err)
		}
		if predicate && t.Kind != rdf.IRI {
			return writeTerm{}, fmt.Errorf("%w: predicate must be an IRI, got %s", ErrTerm, s)
		}
		if pos == 0 && t.Kind == rdf.Literal {
			return writeTerm{}, fmt.Errorf("%w: subject must be an IRI or a blank node, got %s", ErrTerm, s)
		}
		d := m.so
		if predicate {
			d = m.p
		}
		wt := writeTerm{key: t.Key(), dict: d}
		// Literal keys escape control characters, but IRIs, blank-node
		// labels and language tags pass bytes through raw — and the WAL
		// is line-framed, so an embedded newline would corrupt it
		// irrecoverably.
		if strings.ContainsAny(wt.key, "\n\r") {
			return writeTerm{}, fmt.Errorf("%w: term must not contain newline bytes", ErrTerm)
		}
		if n, ok := d.Locate(wt.key); ok {
			wt.id, wt.found = core.ID(n), true
		}
		return wt, nil
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return writeTerm{}, fmt.Errorf("%w: term %q is neither a <uri>, a literal, _:blank, nor an integer ID", ErrTerm, s)
	}
	if core.ID(v) > core.MaxID {
		return writeTerm{}, fmt.Errorf("%w: ID %d out of range", ErrTerm, v)
	}
	// Translate raw IDs to their canonical terms so the WAL stays
	// uniform N-Triples.
	d := m.so
	if predicate {
		d = m.p
	}
	str, ok := d.Extract(int(v))
	if !ok {
		return writeTerm{}, fmt.Errorf("%w: ID %d not in dictionary", ErrTerm, v)
	}
	if pos == 0 && strings.HasPrefix(str, `"`) {
		return writeTerm{}, fmt.Errorf("%w: subject must be an IRI or a blank node, ID %d is %s", ErrTerm, v, str)
	}
	return writeTerm{key: str, id: core.ID(v), found: true, dict: d}, nil
}

// applyLocked resolves terms, applies the operation to the dynamic
// index, appends the WAL record (when logWAL and the set changed), and
// publishes a fresh view (replay defers publication to OpenMutable).
// Callers hold m.mu.
func (m *Mutable) applyLocked(op byte, s, p, o string, logWAL bool) (WriteResult, error) {
	terms := [3]writeTerm{}
	for i, arg := range [3]string{s, p, o} {
		var err error
		if terms[i], err = m.resolveWriteTerm(arg, i); err != nil {
			return WriteResult{}, err
		}
	}
	res := WriteResult{Triples: m.dyn.NumTriples(), LogSize: m.dyn.LogSize()}
	// The view is nil only during the opening WAL replay, before the
	// first publication; replay callers ignore the result anyway.
	if v := m.view.Load(); v != nil {
		res.Generation = v.Gen
	}
	if op == opInsert {
		// All three terms validated; unknown ones may now safely enter
		// the overlay.
		for i := range terms {
			if !terms[i].found {
				terms[i].id = core.ID(terms[i].dict.Add(terms[i].key))
				terms[i].found = true
			}
		}
	} else if !terms[0].found || !terms[1].found || !terms[2].found {
		// Delete with an unknown term: the triple is certainly absent.
		return res, nil
	}
	skey, pkey, okey := terms[0].key, terms[1].key, terms[2].key
	t := core.Triple{S: terms[0].id, P: terms[1].id, O: terms[2].id}
	// WAL-first: a changing write becomes durable before it is applied,
	// so a failed append leaves the in-memory state exactly at the last
	// WAL record (stray overlay IDs aside, which the WAL's term-based
	// replay reassigns consistently anyway).
	if m.dyn.Lookup(t) == (op == opInsert) {
		return res, nil // no-op: insert of a present / delete of an absent triple
	}
	var line string
	if logWAL {
		var err error
		if line, err = m.appendWAL(op, skey, pkey, okey); err != nil {
			return WriteResult{}, err
		}
		m.walRecords++
	}
	var changed bool
	var err error
	if op == opInsert {
		changed, err = m.dyn.Insert(t)
	} else {
		changed, err = m.dyn.Delete(t)
	}
	if err != nil {
		return WriteResult{}, err
	}
	if !changed {
		// Unreachable given the Lookup gate; kept as a defensive check so
		// the WAL and the log can never silently disagree.
		return WriteResult{}, fmt.Errorf("store: WAL/log divergence applying %c %v", op, t)
	}
	res.Changed = true
	res.Triples = m.dyn.NumTriples()
	res.LogSize = m.dyn.LogSize()
	// During WAL replay (logWAL=false) merging and publication are both
	// deferred: OpenMutable performs one threshold check and one publish
	// after the replay completes, instead of copying the whole log into
	// a fresh snapshot per record.
	if !logWAL {
		return res, nil
	}
	seq := uint64(m.walRecords)
	if m.mergeDueLocked() {
		if err := m.mergeLocked(); err != nil {
			return WriteResult{}, err
		}
		res.Merged = true
		res.Triples = m.dyn.NumTriples()
		res.LogSize = 0
	}
	m.publishLocked()
	res.Generation = m.view.Load().Gen
	if m.walObs != nil {
		// The record is shipped first even when it triggered a merge:
		// followers replay it, then the epoch-end makes them merge the
		// same state locally.
		m.walObs.WALAppended(WALRecord{Seq: seq, Gen: res.Generation, Line: []byte(line)})
		if res.Merged {
			m.walObs.WALMerged(seq, res.Generation)
		}
	}
	return res, nil
}

// appendWAL writes one durable log record: a canonical N-Triples
// statement.
//
// Record framing (v2): "CCCCCCCC SEQ OP TERMS...\n" — an 8-hex-digit
// CRC32C over everything after its trailing space, then a monotonic
// sequence number (the record's 1-based position in the WAL, resetting
// when a merge truncates it). The CRC turns a bit flip anywhere in the
// record into a detected stop point for replay instead of applied
// garbage; the sequence number additionally catches records that are
// individually intact but out of place (a lost middle page splicing two
// valid regions together).
//
// Any failure rolls the file back to its pre-append length: a
// half-written record must not linger for the next append to weld onto
// (which would make the WAL permanently unparseable), and a record
// whose fsync failed must not resurface on replay after the caller was
// told the write failed.
func (m *Mutable) appendWAL(op byte, skey, pkey, okey string) (string, error) {
	body := fmt.Sprintf("%d %c %s %s %s .", m.walRecords+1, op, skey, pkey, okey)
	line := fmt.Sprintf("%08x %s\n", crc32.Checksum([]byte(body), codec.Castagnoli), body)
	if err := m.appendWALLine(line); err != nil {
		return "", err
	}
	return line, nil
}

// appendWALLine durably appends one pre-framed record line (newline
// included) to the WAL: write, fsync, and on any failure truncate back
// to the previous length so a half-written record never welds onto the
// valid prefix. Shared by local writes (appendWAL) and replicated
// applies (ApplyReplicated), which mirror the leader's framing verbatim.
func (m *Mutable) appendWALLine(line string) error {
	fi, err := m.wal.Stat()
	if err != nil {
		return fmt.Errorf("store: WAL stat: %w", err)
	}
	rollback := func(cause error) error {
		m.walBytes.Store(fi.Size())
		if terr := m.wal.Truncate(fi.Size()); terr != nil {
			return fmt.Errorf("%w (rollback also failed: %v; reopen the store to recover)", cause, terr)
		}
		return cause
	}
	if _, err := m.wal.WriteString(line); err != nil {
		return rollback(fmt.Errorf("store: WAL append: %w", err))
	}
	if err := m.wal.Sync(); err != nil {
		return rollback(fmt.Errorf("store: WAL sync: %w", err))
	}
	m.walBytes.Store(fi.Size() + int64(len(line)))
	return nil
}

// replayWAL re-applies pending operations left by a previous process,
// in order, through the same resolution path that wrote them — so
// overlay IDs are re-assigned deterministically. It returns the byte
// length of the valid record prefix and fills m.recovery:
//
//   - a final record without its terminating newline is a torn append
//     from a crash mid-write and is skipped;
//   - a complete record that lacks the CRC framing, fails its CRC,
//     carries the wrong sequence number, or does not parse is
//     corruption: replay stops at the last verifiable prefix and
//     everything behind the damage is discarded (the writing opener
//     truncates it away) — applying records past an undetected splice
//     could resurrect deleted triples;
//   - a record that verifies but whose terms cannot be re-applied is
//     not a storage fault and still fails the open.
func (m *Mutable) replayWAL() (validLen int64, err error) {
	f, err := fsys.Open(m.walPath)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	lineNo := 0
	// corrupt stops the replay, recording the damage; the remaining
	// complete records are counted so the loss is quantified.
	corrupt := func(format string, args ...any) (int64, error) {
		m.recovery.Corrupt = true
		m.recovery.Error = fmt.Sprintf("%s line %d: %s", m.walPath, lineNo, fmt.Sprintf(format, args...))
		m.recovery.DroppedRecords = 1
		for {
			rest, rerr := br.ReadString('\n')
			if rerr != nil {
				m.recovery.TornTail = rest != ""
				break
			}
			m.recovery.DroppedRecords++
		}
		if fi, serr := f.Stat(); serr == nil {
			m.recovery.DroppedBytes = fi.Size() - validLen
		}
		return validLen, nil
	}
	for {
		line, rerr := br.ReadString('\n')
		if rerr == io.EOF {
			// Any unterminated tail in line is a torn append: skip it.
			if line != "" {
				m.recovery.TornTail = true
				m.recovery.DroppedBytes += int64(len(line))
			}
			return validLen, nil
		}
		if rerr != nil {
			return validLen, rerr
		}
		lineNo++
		recLen := int64(len(line))
		line = strings.TrimSuffix(line, "\n")
		if line == "" {
			validLen += recLen
			continue
		}
		// Verify the checksum before even looking inside, then the
		// sequence number against this record's position.
		crcField, rest, ok := splitWALCRC(line)
		if !ok {
			return corrupt("record without CRC framing")
		}
		if crc32.Checksum([]byte(rest), codec.Castagnoli) != crcField {
			return corrupt("record checksum mismatch")
		}
		seqStr, body, ok := strings.Cut(rest, " ")
		if !ok {
			return corrupt("bad record %q", line)
		}
		seq, perr := strconv.ParseUint(seqStr, 10, 64)
		if perr != nil {
			return corrupt("bad sequence number %q", seqStr)
		}
		if seq != uint64(m.walRecords+1) {
			return corrupt("sequence jump: record claims %d, expected %d", seq, m.walRecords+1)
		}
		op, s, p, o, perr := parseWALStatement(body)
		if perr != nil {
			return corrupt("%v", perr)
		}
		if _, err := m.applyLocked(op, s, p, o, false); err != nil {
			return validLen, fmt.Errorf("store: WAL %s line %d: %w", m.walPath, lineNo, err)
		}
		m.walRecords++
		m.recovery.Replayed++
		validLen += recLen
	}
}

// parseWALStatement parses the operation byte and three terms of one
// WAL record statement (the body after the CRC and sequence fields): an
// N-Triples statement whose terms come back as keys. Shared by the
// opening replay and the replicated-apply path so both resolve terms
// identically.
func parseWALStatement(stmt string) (op byte, s, p, o string, err error) {
	if len(stmt) < 2 || stmt[1] != ' ' || (stmt[0] != opInsert && stmt[0] != opDelete) {
		return 0, "", "", "", fmt.Errorf("bad record %q", stmt)
	}
	st, ok, perr := rdf.ParseLine(stmt[2:])
	if perr != nil || !ok {
		return 0, "", "", "", fmt.Errorf("unparsable statement: %v", perr)
	}
	return stmt[0], st.S.Key(), st.P.Key(), st.O.Key(), nil
}

// splitWALCRC splits off a record's framing: an 8-hex-digit CRC field
// followed by a space.
func splitWALCRC(line string) (crc uint32, rest string, ok bool) {
	if len(line) < 10 || line[8] != ' ' {
		return 0, "", false
	}
	v, err := strconv.ParseUint(line[:8], 16, 32)
	if err != nil {
		return 0, "", false
	}
	return uint32(v), line[9:], true
}

// installLocked makes st, a store Read returned for the file at m.path,
// the base every later view serves: the dynamic index and the overlay
// dictionaries start empty over it, the layout and the integrity are
// its own, and the WAL position restarts at the top of an epoch. Open,
// merge and snapshot catch-up all reach the views through it. Callers
// hold m.mu or own m exclusively, and have made the WAL agree with st.
func (m *Mutable) installLocked(st *Store) {
	m.base = st
	m.dyn = core.NewDynamicFromIndex(st.Index, -1) // the Mutable drives merges
	// Read decodes front-coded dictionaries and nothing else.
	m.so = dict.NewOverlay(st.Dicts.SO.(*dict.Dict))
	m.p = dict.NewOverlay(st.Dicts.P.(*dict.Dict))
	m.walRecords = 0
	m.walBytes.Store(0)
}

// truncateWALLocked empties the WAL and syncs it, ending its epoch; a
// read-only open has no WAL to empty. It reports whether the truncate
// took effect: once it has, the WAL no longer holds the epoch's records
// whatever the sync returned, and the caller must end the epoch in
// memory too. Truncate keeps the append handle valid (O_APPEND
// repositions every write).
func (m *Mutable) truncateWALLocked() (truncated bool, err error) {
	if m.wal == nil {
		return true, nil
	}
	if err := m.wal.Truncate(0); err != nil {
		return false, fmt.Errorf("store: WAL truncate: %w", err)
	}
	if err := m.wal.Sync(); err != nil {
		return true, fmt.Errorf("store: WAL sync: %w", err)
	}
	return true, nil
}

// mergeLocked folds the pending log and overlay dictionaries into a
// rebuilt static store, persists it atomically (Write replaces the file
// by rename), reads the file back, truncates the WAL and installs what
// it read; the index built in memory is garbage once it returns. Until
// the truncate the pre-merge state keeps serving with its WAL intact: on
// a reopen that WAL replays over the merged file to the same triples, as
// every record it holds is already folded in. Callers hold m.mu.
func (m *Mutable) mergeLocked() error {
	start := time.Now()
	live := m.dyn.LiveTriples()
	// The folded SO dictionary numbers subjects first, as rdf.Encode
	// does: a term joins the first run when a live triple has it as
	// subject, so a term that gained its first subject triple moves
	// there and one that lost its last moves out.
	subject := make([]bool, m.so.Len())
	for _, t := range live {
		subject[t.S] = true
	}
	soDict, soMap, err := m.so.Fold(dict.DefaultBucketSize, func(id int) bool { return subject[id] })
	if err != nil {
		return fmt.Errorf("store: fold SO dictionary: %w", err)
	}
	pDict, pMap, err := m.p.Fold(dict.DefaultBucketSize, nil)
	if err != nil {
		return fmt.Errorf("store: fold P dictionary: %w", err)
	}
	for i, t := range live {
		live[i] = core.Triple{
			S: core.ID(soMap[t.S]),
			P: core.ID(pMap[t.P]),
			O: core.ID(soMap[t.O]),
		}
	}
	d := core.NewDataset(live)
	// Complete integer ranges over the dictionary ID spaces, matching
	// rdf.Encode: the subjects, and the whole SO dictionary for objects,
	// which may hold terms that no longer appear in any triple.
	d.NS, d.NO, d.NP = soDict.FirstRun(), soDict.Len(), pDict.Len()
	x, err := core.Build(d, m.base.Index.Layout())
	if err != nil {
		return fmt.Errorf("store: merge rebuild: %w", err)
	}
	if err := Write(m.path, &Store{Index: x, Dicts: &rdf.Dicts{SO: soDict, P: pDict}}); err != nil {
		return err
	}
	st, err := Read(m.path)
	if err != nil {
		return fmt.Errorf("store: merge read-back: %w", err)
	}
	truncated, err := m.truncateWALLocked()
	if !truncated {
		return err
	}
	m.installLocked(st) // even when the sync failed: the WAL is empty
	m.mergeSeconds.Observe(time.Since(start))
	m.merges.Add(1)
	return err
}
