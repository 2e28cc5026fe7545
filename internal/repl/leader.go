package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rdfindexes/internal/store"
)

// LeaderOptions tune a replication leader. The zero value is production
// defaults; tests tighten the timings.
type LeaderOptions struct {
	// HeartbeatInterval is how often an idle stream sends a heartbeat
	// frame (commit offset + generation + leader clock). Default 1s.
	HeartbeatInterval time.Duration
	// HelloTimeout bounds how long an accepted connection may take to
	// send its hello before being dropped. Default 10s.
	HelloTimeout time.Duration
}

func (o LeaderOptions) withDefaults() LeaderOptions {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.HelloTimeout <= 0 {
		o.HelloTimeout = 10 * time.Second
	}
	return o
}

// LeaderStats is a point-in-time snapshot of a leader's replication
// counters, surfaced through /stats and /metrics.
type LeaderStats struct {
	Followers      int    `json:"followers"`
	Epoch          uint64 `json:"epoch_fingerprint"`
	Seq            uint64 `json:"wal_seq"`
	RecordsShipped uint64 `json:"records_shipped"`
	SnapshotsSent  uint64 `json:"snapshots_sent"`
	Heartbeats     uint64 `json:"heartbeats_sent"`
}

// Leader streams a Mutable's WAL to any number of followers. It
// installs itself as the store's WAL observer, keeps an in-memory event
// log covering the current epoch and the previous one (older positions
// fall back to snapshots), and serves each accepted connection with its
// own writer goroutine.
type Leader struct {
	mut  *store.Mutable
	opts LeaderOptions
	hub  hub

	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
	conns    sync.Map // net.Conn → struct{}
	shipped  atomic.Uint64
	snaps    atomic.Uint64
	beats    atomic.Uint64
	follower atomic.Int64
}

// NewLeader attaches a replication leader to mut. The current WAL is
// loaded into the event log so followers can resume from any live
// position.
func NewLeader(mut *store.Mutable, opts LeaderOptions) (*Leader, error) {
	fp, err := store.FileFingerprint(mut.Path())
	if err != nil {
		return nil, fmt.Errorf("repl: fingerprint base store: %w", err)
	}
	l := &Leader{mut: mut, opts: opts.withDefaults()}
	gen := mut.Generation()
	l.hub.init(fp, gen)
	// Seed the event log with the WAL's current contents and install the
	// live observer under one writer-lock acquisition, so no record can
	// fall into the gap between the scan and live observation.
	if err := mut.AttachWALObserver((*leaderObserver)(l), func(seq uint64, line []byte) error {
		l.hub.appendRecord(fp, seq, gen, line)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("repl: seed WAL event log: %w", err)
	}
	return l, nil
}

// leaderObserver implements store.WALObserver on a separate type so the
// observer methods (which run under the store's writer lock and must
// not call back into it) do not sit on Leader's public API.
type leaderObserver Leader

func (o *leaderObserver) WALAppended(rec store.WALRecord) {
	l := (*Leader)(o)
	l.hub.appendRecord(l.hub.currentFp(), rec.Seq, rec.Gen, rec.Line)
}

func (o *leaderObserver) WALMerged(finalSeq, gen uint64) {
	l := (*Leader)(o)
	// The merge just renamed the rebuilt store file into place; its
	// fingerprint is the new epoch identity. Reading the file here runs
	// under the store's writer lock — O(file), merge-frequency only.
	newFp, err := store.FileFingerprint(l.mut.Path())
	if err != nil {
		// Without the new fingerprint the stream cannot continue
		// verifiably; poison the epoch so followers snapshot.
		newFp = 0
	}
	l.hub.endEpoch(finalSeq, newFp, gen)
}

// Serve accepts follower connections on ln until Close. It blocks; run
// it in a goroutine.
func (l *Leader) Serve(ln net.Listener) error {
	l.ln = ln
	for {
		conn, err := ln.Accept()
		if err != nil {
			if l.closed.Load() {
				return nil
			}
			return err
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.serveConn(conn)
		}()
	}
}

// Close detaches from the store, stops accepting, and closes all
// follower connections.
func (l *Leader) Close() error {
	l.closed.Store(true)
	l.mut.SetWALObserver(nil)
	if l.ln != nil {
		l.ln.Close()
	}
	l.conns.Range(func(k, _ any) bool {
		k.(net.Conn).Close()
		return true
	})
	l.hub.wakeAll()
	l.wg.Wait()
	return nil
}

// Stats snapshots the leader's counters.
func (l *Leader) Stats() LeaderStats {
	fp, seq, _ := l.hub.position()
	return LeaderStats{
		Followers:      int(l.follower.Load()),
		Epoch:          fp,
		Seq:            seq,
		RecordsShipped: l.shipped.Load(),
		SnapshotsSent:  l.snaps.Load(),
		Heartbeats:     l.beats.Load(),
	}
}

// Addr returns the listener address once Serve has been called.
func (l *Leader) Addr() net.Addr {
	if l.ln == nil {
		return nil
	}
	return l.ln.Addr()
}

func (l *Leader) serveConn(conn net.Conn) {
	l.conns.Store(conn, struct{}{})
	l.follower.Add(1)
	defer func() {
		l.follower.Add(-1)
		l.conns.Delete(conn)
		conn.Close()
	}()
	conn.SetReadDeadline(time.Now().Add(l.opts.HelloTimeout))
	payload, err := readFrame(conn)
	if err != nil {
		return
	}
	h, err := decodeHello(payload)
	if err != nil || h.version != protocolVersion {
		return
	}
	conn.SetReadDeadline(time.Time{})

	sub := l.hub.subscribe()
	defer l.hub.unsubscribe(sub)

	pos, ok := uint64(0), false
	if !h.wantSnapshot {
		pos, ok = l.hub.resumeAt(h.baseFp, h.seq)
	}
	if !ok {
		pos, err = l.sendSnapshot(conn)
		if err != nil {
			return
		}
	}
	l.streamEvents(conn, sub, pos)
}

// sendSnapshot streams the current base store file (header + raw bytes)
// and returns the event-log position from which the records of that
// file's epoch follow. The file is read through an open handle, so a
// concurrent merge renaming a new file over the path cannot tear the
// bytes; the fingerprint is re-checked against the hub after hashing
// and the read retried when a merge slipped between open and hash.
func (l *Leader) sendSnapshot(conn net.Conn) (pos uint64, err error) {
	for try := 0; ; try++ {
		f, err := os.Open(l.mut.Path())
		if err != nil {
			return 0, err
		}
		fp, size, err := store.Fingerprint(f)
		if err != nil {
			f.Close()
			return 0, err
		}
		pos, gen, ok := l.hub.epochStart(fp)
		if !ok {
			f.Close()
			if try < 5 {
				continue // merged between open and hash; re-read
			}
			return 0, errors.New("repl: store file kept changing under snapshot")
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return 0, err
		}
		if err := writeFrame(conn, encodeSnapshotHeader(fp, gen, uint64(size))); err != nil {
			f.Close()
			return 0, err
		}
		_, err = io.Copy(conn, io.NewSectionReader(f, 0, size))
		f.Close()
		if err != nil {
			return 0, err
		}
		l.snaps.Add(1)
		return pos, nil
	}
}

// streamEvents ships event-log entries from pos onward, heartbeating
// when idle, until the connection dies or the leader closes. A follower
// that falls behind the event log's retention (two epochs) is cut off
// and will reconnect into the snapshot path.
func (l *Leader) streamEvents(conn net.Conn, sub *subscriber, pos uint64) {
	for {
		evs, next, ok := l.hub.eventsFrom(pos)
		if !ok {
			return // fell behind retention; follower reconnects → snapshot
		}
		pos = next
		for _, ev := range evs {
			var payload []byte
			switch ev.kind {
			case frameRecord:
				payload = encodeRecord(ev.fp, ev.gen, ev.line)
			case frameEpochEnd:
				payload = encodeEpochEnd(ev.fp, ev.seq, ev.newFp, ev.gen)
			}
			if err := writeFrame(conn, payload); err != nil {
				return
			}
			if ev.kind == frameRecord {
				l.shipped.Add(1)
			}
		}
		if len(evs) > 0 {
			continue // drain before sleeping
		}
		select {
		case <-sub.wake:
		case <-time.After(l.opts.HeartbeatInterval):
			fp, seq, gen := l.hub.position()
			if err := writeFrame(conn, encodeHeartbeat(fp, seq, gen, time.Now().UnixNano())); err != nil {
				return
			}
			l.beats.Add(1)
		}
		if l.closed.Load() {
			return
		}
	}
}

// event is one entry in the hub's log: a shipped WAL record or an epoch
// end (merge).
type event struct {
	kind  byte   // frameRecord or frameEpochEnd
	fp    uint64 // record: its epoch; epochEnd: the epoch that ended
	seq   uint64 // record: its sequence; epochEnd: the final sequence
	gen   uint64
	line  []byte // record only (owned copy)
	newFp uint64 // epochEnd only
}

// subscriber is one streaming connection's wake handle.
type subscriber struct {
	wake chan struct{}
}

// hub is the shared event log. Writers (the store's WAL observer)
// append under the store's writer lock; streaming goroutines copy
// slices out under the hub lock and never block writers on the network.
// Lock ordering: store.Mutable.mu → hub.mu; hub methods never call into
// the Mutable.
type hub struct {
	mu     sync.Mutex
	fp     uint64 // current epoch fingerprint
	prevFp uint64 // previous epoch's, for retention checks
	seq    uint64 // last record sequence in the current epoch
	gen    uint64 // latest write generation
	base   uint64 // absolute index of events[0]
	events []event
	subs   map[*subscriber]struct{}
}

func (h *hub) init(fp, gen uint64) {
	h.fp, h.gen = fp, gen
	h.subs = make(map[*subscriber]struct{})
}

func (h *hub) currentFp() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fp
}

func (h *hub) position() (fp, seq, gen uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fp, h.seq, h.gen
}

// appendRecord adds one shipped record, deduping by sequence number
// (the seed scan and the live observer can overlap by a record).
func (h *hub) appendRecord(fp, seq, gen uint64, line []byte) {
	h.mu.Lock()
	if fp == h.fp && seq <= h.seq {
		h.mu.Unlock()
		return
	}
	h.events = append(h.events, event{
		kind: frameRecord, fp: fp, seq: seq, gen: gen,
		line: append([]byte(nil), line...),
	})
	h.seq, h.gen = seq, gen
	h.wakeLocked()
	h.mu.Unlock()
}

// endEpoch records a merge: the current epoch ended at finalSeq and the
// rebuilt base file (fingerprint newFp) starts the next. Events older
// than the epoch that just ended are dropped — retention is the closed
// epoch plus the new one, so a follower can be at most one merge behind
// before snapshot catch-up kicks in.
func (h *hub) endEpoch(finalSeq, newFp, gen uint64) {
	h.mu.Lock()
	ended := h.fp
	h.events = append(h.events, event{
		kind: frameEpochEnd, fp: ended, seq: finalSeq, gen: gen, newFp: newFp,
	})
	// Drop events from epochs before the one that just ended.
	drop := 0
	for drop < len(h.events) {
		ev := h.events[drop]
		if ev.fp == ended || (ev.kind == frameEpochEnd && ev.newFp == ended) {
			break
		}
		drop++
	}
	if drop > 0 {
		h.events = append([]event(nil), h.events[drop:]...)
		h.base += uint64(drop)
	}
	h.prevFp = ended
	h.fp, h.seq, h.gen = newFp, 0, gen
	h.wakeLocked()
	h.mu.Unlock()
}

func (h *hub) subscribe() *subscriber {
	s := &subscriber{wake: make(chan struct{}, 1)}
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s
}

func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
}

func (h *hub) wakeAll() {
	h.mu.Lock()
	h.wakeLocked()
	h.mu.Unlock()
}

func (h *hub) wakeLocked() {
	for s := range h.subs {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// resumeAt returns the absolute event index from which a follower at
// (fp, seq) can resume tailing, or ok=false when the retained log no
// longer covers that position (snapshot required). The position is
// valid iff the follower's next record (seq+1 of its epoch) — or that
// epoch's end marker at exactly seq — is still retained, or the
// follower is exactly at the live head.
func (h *hub) resumeAt(fp, seq uint64) (pos uint64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, ev := range h.events {
		if ev.kind == frameRecord && ev.fp == fp {
			if ev.seq <= seq {
				continue // follower already has it
			}
			if ev.seq == seq+1 {
				return h.base + uint64(i), true
			}
			return 0, false // retention gap
		}
		if ev.kind == frameEpochEnd && ev.fp == fp {
			if ev.seq == seq {
				return h.base + uint64(i), true
			}
			return 0, false // records between seq and the epoch end are gone
		}
	}
	if fp == h.fp && seq == h.seq {
		return h.base + uint64(len(h.events)), true
	}
	return 0, false
}

// epochStart returns the position of the first retained event of epoch
// fp (the log head when none exist yet) and the generation to stamp on
// a snapshot of that epoch's base file. ok=false when fp is not the
// current epoch — the caller raced a merge and must re-read the file.
func (h *hub) epochStart(fp uint64) (pos, gen uint64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if fp != h.fp {
		return 0, 0, false
	}
	for i, ev := range h.events {
		if ev.kind == frameRecord && ev.fp == fp {
			return h.base + uint64(i), h.gen, true
		}
	}
	return h.base + uint64(len(h.events)), h.gen, true
}

// eventsFrom copies the retained events at and after absolute position
// pos. ok=false when pos has been dropped from retention. The returned
// slice aliases immutable event values (lines are owned copies), safe
// to use without the lock.
func (h *hub) eventsFrom(pos uint64) (evs []event, next uint64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if pos < h.base {
		return nil, 0, false
	}
	i := pos - h.base
	if i >= uint64(len(h.events)) {
		return nil, pos, true
	}
	evs = append(evs, h.events[i:]...)
	return evs, h.base + uint64(len(h.events)), true
}
