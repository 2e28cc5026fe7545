package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"os"
	"strconv"
	"strings"

	"rdfindexes/internal/codec"
)

// This file is the store side of WAL-shipping replication
// (internal/repl): observation hooks that let a leader stream every
// durable WAL append to followers, and the follower-side entry points
// that replay shipped records and install full snapshots without ever
// exposing a torn view.

// WALRecord is one durable WAL append as seen by a replication
// observer: the record's sequence number within the current WAL epoch
// (an epoch is the life of one WAL file between merges — merging
// truncates the WAL and starts a new epoch over a new base store file)
// and the exact framed line bytes, CRC and trailing newline included,
// so a follower can verify and append them verbatim.
type WALRecord struct {
	Seq  uint64
	Gen  uint64 // write generation of the view published with this record
	Line []byte // not retained by Mutable; observers must copy to keep
}

// WALObserver receives replication events. Both callbacks run while the
// store's writer lock is held: they must be fast, must not block on the
// network, and must never call back into the Mutable (deadlock). The
// intended implementation copies the event into an in-memory log and
// signals streaming goroutines.
type WALObserver interface {
	// WALAppended fires after a record is durably in the WAL and the
	// corresponding view has been published.
	WALAppended(rec WALRecord)
	// WALMerged fires after a merge rebuilt the base store file and
	// truncated the WAL: the epoch ended at finalSeq, and followers that
	// replayed through it can reproduce the new base by merging locally.
	WALMerged(finalSeq uint64, gen uint64)
}

// SetWALObserver installs obs (nil detaches). Only one observer is
// supported; installing replaces the previous one.
func (m *Mutable) SetWALObserver(obs WALObserver) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.walObs = obs
}

// AttachWALObserver scans the WAL's current valid prefix through seed
// and installs obs under one writer-lock acquisition: no record can
// land between the seed scan and live observation, so the observer's
// event stream is gap-free from the scanned prefix onward.
func (m *Mutable) AttachWALObserver(obs WALObserver, seed func(seq uint64, line []byte) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.forEachWALRecordLocked(seed); err != nil {
		return err
	}
	m.walObs = obs
	return nil
}

// WALSeq returns the sequence number of the last record in the current
// WAL epoch (0 when the WAL is empty).
func (m *Mutable) WALSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(m.walRecords)
}

// Path returns the store file path this Mutable was opened from.
func (m *Mutable) Path() string { return m.path }

// forEachWALRecordLocked calls fn with every framed record line (newline
// included) in the WAL's valid prefix, in order. The caller holds the
// writer lock across the scan, so the lines form a consistent prefix of
// the current epoch; fn must not retain the line or call back into the
// Mutable.
func (m *Mutable) forEachWALRecordLocked(fn func(seq uint64, line []byte) error) error {
	limit := m.walBytes.Load()
	if limit == 0 {
		return nil
	}
	f, err := fsys.Open(m.walPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	buf := make([]byte, limit)
	if _, err := io.ReadFull(f, buf); err != nil {
		return fmt.Errorf("store: WAL scan: %w", err)
	}
	var seq uint64
	for len(buf) > 0 {
		nl := 0
		for nl < len(buf) && buf[nl] != '\n' {
			nl++
		}
		if nl == len(buf) {
			break // unterminated tail past the valid prefix; unreachable
		}
		line := buf[:nl+1]
		buf = buf[nl+1:]
		if nl == 0 {
			continue // blank line, as the replay path tolerates
		}
		seq++
		if err := fn(seq, line); err != nil {
			return err
		}
	}
	return nil
}

// Replication apply errors. ErrReplGap and ErrReplRecord mean the
// shipped stream and the local WAL disagree; the follower resolves
// either by falling back to a full snapshot.
var (
	// ErrReplGap reports a shipped record whose sequence number skips
	// ahead of the local WAL position.
	ErrReplGap = errors.New("store: replicated record skips sequence numbers")
	// ErrReplRecord reports a shipped record that fails its own CRC or
	// does not parse — damage in flight or a protocol desync.
	ErrReplRecord = errors.New("store: replicated record is invalid")
)

// ApplyReplicated verifies and applies one shipped WAL record line
// (framed exactly as appendWAL writes it: CRC, sequence number,
// operation, terms, newline). The record is appended to the local WAL
// verbatim — follower WALs are byte-for-byte mirrors of the leader's —
// and a fresh view is published after it applies, so readers only ever
// observe record boundaries. A record at or before the current position
// is a duplicate delivery and is skipped idempotently (dup=true).
func (m *Mutable) ApplyReplicated(line []byte) (dup bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return false, errors.New("store: ApplyReplicated on a closed or read-only store")
	}
	body := strings.TrimSuffix(string(line), "\n")
	crcField, rest, ok := splitWALCRC(body)
	if !ok {
		return false, fmt.Errorf("%w: missing CRC framing", ErrReplRecord)
	}
	if crc32.Checksum([]byte(rest), codec.Castagnoli) != crcField {
		return false, fmt.Errorf("%w: checksum mismatch", ErrReplRecord)
	}
	seqStr, stmt, ok := strings.Cut(rest, " ")
	if !ok {
		return false, fmt.Errorf("%w: no sequence field", ErrReplRecord)
	}
	seq, perr := strconv.ParseUint(seqStr, 10, 64)
	if perr != nil {
		return false, fmt.Errorf("%w: bad sequence number %q", ErrReplRecord, seqStr)
	}
	if seq <= uint64(m.walRecords) {
		return true, nil // duplicate delivery (reconnect overlap): already applied
	}
	if seq != uint64(m.walRecords)+1 {
		return false, fmt.Errorf("%w: record %d arrived at position %d", ErrReplGap, seq, m.walRecords+1)
	}
	op, s, p, o, perr2 := parseWALStatement(stmt, m.so != nil)
	if perr2 != nil {
		return false, fmt.Errorf("%w: %v", ErrReplRecord, perr2)
	}
	// Durable-first, exactly like a local write: the verbatim line goes
	// to the local WAL with fsync and rollback-on-failure, then applies.
	if err := m.appendWALLine(string(line)); err != nil {
		return false, err
	}
	m.walRecords++
	if _, err := m.applyLocked(op, s, p, o, false); err != nil {
		return false, err
	}
	m.publishLocked()
	if m.walObs != nil {
		m.walObs.WALAppended(WALRecord{Seq: seq, Gen: m.view.Load().Gen, Line: line})
	}
	return false, nil
}

// InstallSnapshot replaces the entire store with a full snapshot
// streamed from a leader: n bytes of a serialized store container read
// from r. The bytes land in a temp file and are verified by Read
// (receiveSnapshot); only then is the WAL emptied, the file renamed over
// the store file and the verified mapping installed and published. The
// WAL's records belong to the base the store file holds, so they go
// before the file does: every failure leaves the file, the WAL and the
// in-memory state at one epoch. A failure up to the truncate changes
// nothing. Once the truncate has taken effect, a failed WAL sync or
// rename installs the old base at the top of its epoch and returns the
// error without publishing: the view on show keeps serving until the
// next write publishes the old base. A torn snapshot never becomes a
// view.
func (m *Mutable) InstallSnapshot(r io.Reader, n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return errors.New("store: InstallSnapshot on a closed or read-only store")
	}
	tmp, st, err := receiveSnapshot(m.path, r, n)
	if err != nil {
		return err
	}
	truncated, err := m.truncateWALLocked()
	if err != nil {
		fsys.Remove(tmp)
	} else {
		err = replace(tmp, m.path)
	}
	if err != nil {
		if truncated {
			m.installLocked(m.base) // still the store file's content, now without a log
		}
		return err
	}
	m.installLocked(st)
	m.publishLocked()
	return nil
}

// ReceiveSnapshot stores a full snapshot — n bytes of a serialized store
// container read from r — at path, where no store is open: a replica
// bootstraps through it. It takes the receive path InstallSnapshot
// takes, so a short or damaged stream leaves neither path nor a temp
// file behind.
func ReceiveSnapshot(path string, r io.Reader, n int64) error {
	tmp, _, err := receiveSnapshot(path, r, n)
	if err != nil {
		return err
	}
	return replace(tmp, path)
}

// receiveSnapshot copies n bytes from r into a temp file beside path,
// syncs it and verifies it with Read, returning the temp file's name and
// what Read made of it. On any failure the temp file is gone.
func receiveSnapshot(path string, r io.Reader, n int64) (tmp string, st *Store, err error) {
	tmp = path + ".snap.tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return "", nil, err
	}
	_, err = io.CopyN(f, r, n)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return "", nil, fmt.Errorf("store: snapshot receive: %w", err)
	}
	if st, err = Read(tmp); err != nil {
		fsys.Remove(tmp)
		return "", nil, fmt.Errorf("store: snapshot verify: %w", err)
	}
	return tmp, st, nil
}

// FileFingerprint identifies a store file's exact content: CRC64-ECMA
// over every byte plus the length. Replication uses it as the epoch
// identity — a follower resumes tailing only when its base store file
// fingerprint matches the leader's; any mismatch (a merge the follower
// missed, a divergent local rebuild) falls back to full-snapshot
// catch-up. O(file) at open and per merge, never on a serving path.
func FileFingerprint(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fp, _, err := Fingerprint(f)
	return fp, err
}

// Fingerprint is FileFingerprint over the bytes r yields, returning
// their count alongside.
func Fingerprint(r io.Reader) (fp uint64, size int64, err error) {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	if size, err = io.Copy(h, r); err != nil {
		return 0, 0, err
	}
	return h.Sum64() ^ uint64(size), size, nil
}
