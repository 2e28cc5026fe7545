package server

import (
	"fmt"
	"net/http"
	"strconv"
)

// Replication-aware serving. A server constructed with Options.Replica
// is a read replica: its store is owned by the replication follower,
// writes are refused with the leader's address, /readyz reflects
// catch-up state, and the min-gen consistency token is checked against
// the follower's applied leader generation instead of the local view
// generation.

// generationHeader is the response header carrying the generation token
// a client can later present via min-gen for read-your-writes.
const generationHeader = "X-RDF-Generation"

// leaderHeader tells a client that hit a replica's write endpoint where
// the writer lives.
const leaderHeader = "X-RDF-Leader"

// generationToken returns the consistency token for a response served
// from the view at gen. On a replica the token space is the leader's
// write generations — the numbers clients got back from their writes —
// tracked as the follower's applied generation; locally published view
// generations would not be comparable. Tokens are scoped to one leader
// session: a leader restart restarts the space, so clients must not
// persist them.
func (s *Server) generationToken(gen uint64) uint64 {
	if s.cfg.Replica != nil {
		return s.cfg.Replica.AppliedGeneration()
	}
	return gen
}

// checkMinGen enforces the min-gen read-your-writes token: a client
// that wrote at generation G sends min-gen=G and must never see a view
// older than G. A replica that has not yet applied G answers 503 with a
// jittered Retry-After instead of serving stale data; a malformed token
// is the client's error. Returns false when the response has been
// written.
func (s *Server) checkMinGen(w http.ResponseWriter, raw string, gen uint64) bool {
	if raw == "" {
		return true
	}
	min, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("min-gen %q is not a generation number", raw))
		return false
	}
	have := s.generationToken(gen)
	if have >= min {
		return true
	}
	s.rejectedStale.Add(1)
	setRetryAfter(w, 1)
	httpError(w, http.StatusServiceUnavailable,
		fmt.Errorf("view at generation %d has not caught up to min-gen %d; retry shortly", have, min))
	return false
}

// handleReadyz is the readiness probe, split from /healthz liveness so
// load balancers drain a pod that is alive but must not take traffic: a
// replica still catching up (or disconnected). Liveness stays green —
// restarting would not help.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if f := s.cfg.Replica; f != nil && !f.Ready() {
		setRetryAfter(w, 1)
		st := f.Stats()
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "not ready: replica catching up (connected=%v seq=%d lag=%.2fs leader=%s)\n",
			st.Connected, st.LastSeq, st.LagSeconds, st.Leader)
		return
	}
	fmt.Fprintln(w, "ready")
}
