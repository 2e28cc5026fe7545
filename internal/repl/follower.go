package repl

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"sync/atomic"
	"time"

	"rdfindexes/internal/store"
)

// FollowerOptions tune a replication follower. The zero value is
// production defaults; tests tighten the timings.
type FollowerOptions struct {
	// ReadTimeout bounds each frame read; it must exceed the leader's
	// heartbeat interval or an idle stream looks dead. Default 5s.
	ReadTimeout time.Duration
	// SnapshotTimeout bounds receiving one full snapshot body. Default 5m.
	SnapshotTimeout time.Duration
	// BackoffMin/BackoffMax bound the jittered exponential reconnect
	// backoff. Defaults 100ms and 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Dial opens the replication link; tests substitute fault-injecting
	// dialers. Default: TCP with a 5s timeout.
	Dial func(addr string) (net.Conn, error)
	// Logf, when set, receives one line per reconnect and snapshot
	// fallback for operator visibility.
	Logf func(format string, args ...any)
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 5 * time.Second
	}
	if o.SnapshotTimeout <= 0 {
		o.SnapshotTimeout = 5 * time.Minute
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	return o
}

// FollowerStats is a point-in-time snapshot of a follower's replication
// state, surfaced through /stats and /metrics.
type FollowerStats struct {
	Leader             string  `json:"leader"`
	Connected          bool    `json:"connected"`
	CaughtUp           bool    `json:"caught_up"`
	LastSeq            uint64  `json:"replica_last_seq"`
	AppliedGeneration  uint64  `json:"applied_generation"`
	Reconnects         uint64  `json:"reconnects"`
	SnapshotsInstalled uint64  `json:"snapshots_installed"`
	RecordsApplied     uint64  `json:"records_applied"`
	DupRecords         uint64  `json:"duplicate_records"`
	LagSeconds         float64 `json:"replication_lag_seconds"`
}

// Follower tails a leader's WAL stream into its own Mutable, publishing
// a fresh RCU view per applied record. It reconnects with jittered
// exponential backoff, resumes from its last verified sequence number,
// and falls back to full-snapshot catch-up when the leader merged past
// its position or the local state diverged.
type Follower struct {
	mut  *store.Mutable
	addr string
	opts FollowerOptions

	// forceSnapshot is only touched by the Run goroutine's session loop:
	// set when the local position can no longer be reconciled with the
	// stream (gap, damage, divergent merge), cleared after a snapshot.
	forceSnapshot bool

	connected    atomic.Bool
	caughtUp     atomic.Bool
	appliedGen   atomic.Uint64
	lastSeq      atomic.Uint64
	reconnects   atomic.Uint64
	snapshots    atomic.Uint64
	applied      atomic.Uint64
	dups         atomic.Uint64
	lastSyncNano atomic.Int64 // local clock at last applied record / confirming heartbeat
}

// OpenFollower opens (or bootstraps) the store at path as a replica of
// the leader at addr. A missing store file is fetched as a full
// verified snapshot before the store opens. The returned follower does
// not replicate until Run is called; local merges are disabled (the
// leader's epoch ends drive them), and the caller must not write to the
// store.
func OpenFollower(path, addr string, opts FollowerOptions) (*Follower, error) {
	opts = opts.withDefaults()
	bootstrapped := false
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if err := bootstrapSnapshot(path, addr, opts); err != nil {
			return nil, fmt.Errorf("repl: bootstrap from %s: %w", addr, err)
		}
		bootstrapped = true
	}
	// Threshold -1 disables every locally-triggered merge: the follower
	// merges exactly when the leader's stream says the epoch ended, so
	// the two WALs stay byte-for-byte aligned.
	mut, err := store.OpenMutable(path, -1)
	if err != nil {
		return nil, err
	}
	f := &Follower{mut: mut, addr: addr, opts: opts}
	if bootstrapped {
		f.snapshots.Add(1)
	}
	return f, nil
}

// bootstrapSnapshot fetches a full snapshot into path with a one-shot
// connection, through the store's verified snapshot receive.
func bootstrapSnapshot(path, addr string, opts FollowerOptions) error {
	conn, err := opts.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(opts.SnapshotTimeout))
	h := hello{version: protocolVersion, wantSnapshot: true}
	if err := writeFrame(conn, h.encode()); err != nil {
		return err
	}
	payload, err := readFrame(conn)
	if err != nil {
		return err
	}
	if len(payload) == 0 || payload[0] != frameSnapshot {
		return fmt.Errorf("%w: want snapshot, got %q", ErrFrame, payload[0])
	}
	_, _, size, err := decodeSnapshotHeader(payload)
	if err != nil {
		return err
	}
	return store.ReceiveSnapshot(path, conn, int64(size))
}

// Mutable returns the follower's store for serving. Callers must treat
// it as read-only.
func (f *Follower) Mutable() *store.Mutable { return f.mut }

// Leader returns the leader address this follower replicates from.
func (f *Follower) Leader() string { return f.addr }

// Ready reports whether the follower is connected and caught up with
// the leader's commit offset — the load-balancer readiness signal.
func (f *Follower) Ready() bool { return f.connected.Load() && f.caughtUp.Load() }

// AppliedGeneration returns the latest leader write generation known to
// be fully contained in the current view — the value min-gen reads are
// checked against.
func (f *Follower) AppliedGeneration() uint64 { return f.appliedGen.Load() }

// Stats snapshots the follower's replication state.
func (f *Follower) Stats() FollowerStats {
	var lag float64
	if t := f.lastSyncNano.Load(); t > 0 {
		lag = time.Since(time.Unix(0, t)).Seconds()
	}
	return FollowerStats{
		Leader:             f.addr,
		Connected:          f.connected.Load(),
		CaughtUp:           f.caughtUp.Load(),
		LastSeq:            f.lastSeq.Load(),
		AppliedGeneration:  f.appliedGen.Load(),
		Reconnects:         f.reconnects.Load(),
		SnapshotsInstalled: f.snapshots.Load(),
		RecordsApplied:     f.applied.Load(),
		DupRecords:         f.dups.Load(),
		LagSeconds:         lag,
	}
}

// Run replicates until ctx is cancelled, reconnecting with jittered
// exponential backoff on every failure. It returns ctx.Err() on
// cancellation; it never gives up on its own.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.opts.BackoffMin
	for {
		progressed, err := f.session(ctx)
		f.connected.Store(false)
		f.caughtUp.Store(false)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f.reconnects.Add(1)
		if f.opts.Logf != nil && err != nil {
			f.opts.Logf("repl: follower session ended: %v (snapshot=%v)", err, f.forceSnapshot)
		}
		if progressed {
			backoff = f.opts.BackoffMin
		}
		// Full jitter: anywhere in [backoff, 2*backoff) so a fleet of
		// followers losing one leader does not reconnect in lockstep.
		d := backoff + time.Duration(rand.Int64N(int64(backoff)))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
		if backoff *= 2; backoff > f.opts.BackoffMax {
			backoff = f.opts.BackoffMax
		}
	}
}

// Close closes the follower's store. Call after Run has returned.
func (f *Follower) Close() error { return f.mut.Close() }

// session runs one connection: hello, then apply frames until the link
// or the protocol breaks. progressed reports whether any frame was
// applied, which resets the reconnect backoff.
func (f *Follower) session(ctx context.Context) (progressed bool, err error) {
	conn, err := f.opts.Dial(f.addr)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	// Unblock reads when ctx dies mid-session.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()

	curFp, err := store.FileFingerprint(f.mut.Path())
	if err != nil {
		return false, err
	}
	h := hello{
		version:      protocolVersion,
		baseFp:       curFp,
		seq:          f.mut.WALSeq(),
		wantSnapshot: f.forceSnapshot,
	}
	conn.SetWriteDeadline(time.Now().Add(f.opts.ReadTimeout))
	if err := writeFrame(conn, h.encode()); err != nil {
		return false, err
	}
	f.connected.Store(true)
	f.lastSeq.Store(h.seq)

	for {
		conn.SetReadDeadline(time.Now().Add(f.opts.ReadTimeout))
		payload, err := readFrame(conn)
		if err != nil {
			return progressed, err
		}
		switch payload[0] {
		case frameRecord:
			fp, gen, line, err := decodeRecord(payload)
			if err != nil {
				return progressed, err
			}
			if fp != curFp {
				f.forceSnapshot = true
				return progressed, fmt.Errorf("repl: record for epoch %016x, local epoch %016x", fp, curFp)
			}
			dup, err := f.mut.ApplyReplicated(line)
			if err != nil {
				if errors.Is(err, store.ErrReplGap) || errors.Is(err, store.ErrReplRecord) {
					f.forceSnapshot = true
				}
				return progressed, err
			}
			if dup {
				f.dups.Add(1)
				continue
			}
			// The view containing this write is published; only now may
			// min-gen reads observe its generation.
			f.lastSeq.Store(f.mut.WALSeq())
			f.appliedGen.Store(gen)
			f.applied.Add(1)
			f.lastSyncNano.Store(time.Now().UnixNano())
			progressed = true

		case frameEpochEnd:
			prevFp, prevFinal, newFp, gen, err := decodeEpochEnd(payload)
			if err != nil {
				return progressed, err
			}
			if prevFp != curFp || prevFinal != f.mut.WALSeq() {
				f.forceSnapshot = true
				return progressed, fmt.Errorf("repl: epoch end %016x@%d does not match local %016x@%d",
					prevFp, prevFinal, curFp, f.mut.WALSeq())
			}
			// The follower rebuilds the base the leader just merged to
			// (the WAL records were identical) and starts its next epoch
			// at sequence 0.
			if err := f.mut.Merge(); err != nil {
				return progressed, err
			}
			myFp, err := store.FileFingerprint(f.mut.Path())
			if err != nil {
				return progressed, err
			}
			if newFp != 0 && myFp != newFp {
				// The local rebuild diverged byte-wise from the leader's.
				// Correctness comes from the snapshot fallback, not from
				// assuming determinism.
				f.forceSnapshot = true
				return progressed, fmt.Errorf("repl: merged to %016x, leader announced %016x", myFp, newFp)
			}
			curFp = myFp
			f.lastSeq.Store(0)
			f.appliedGen.Store(gen)
			f.lastSyncNano.Store(time.Now().UnixNano())
			progressed = true

		case frameHeartbeat:
			fp, seq, gen, _, err := decodeHeartbeat(payload)
			if err != nil {
				return progressed, err
			}
			// Heartbeats are advisory: one raced ahead of an in-flight
			// epoch end is simply ignored.
			if fp != curFp {
				continue
			}
			if seq == f.mut.WALSeq() {
				f.appliedGen.Store(gen)
				f.caughtUp.Store(true)
				f.lastSyncNano.Store(time.Now().UnixNano())
			} else {
				f.caughtUp.Store(false)
			}

		case frameSnapshot:
			fp, gen, size, err := decodeSnapshotHeader(payload)
			if err != nil {
				return progressed, err
			}
			conn.SetReadDeadline(time.Now().Add(f.opts.SnapshotTimeout))
			if err := f.mut.InstallSnapshot(conn, int64(size)); err != nil {
				// A failed install may have fallen back to the base the
				// store file holds, older than what was applied so far;
				// its first view is published after this store, so no
				// generation is vouched for until the stream sets one.
				f.appliedGen.Store(0)
				return progressed, err
			}
			curFp = fp
			f.forceSnapshot = false
			f.lastSeq.Store(0)
			f.appliedGen.Store(gen)
			f.snapshots.Add(1)
			f.lastSyncNano.Store(time.Now().UnixNano())
			progressed = true

		default:
			return progressed, fmt.Errorf("%w: unknown frame type %q", ErrFrame, payload[0])
		}
	}
}
