package server

import (
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/obs"
	"rdfindexes/internal/server/results"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/store"
)

// The SPARQL 1.1 Protocol endpoint. Queries arrive as GET ?query=, as a
// POST body with Content-Type application/sparql-query, or as the query
// field of a POST form; results stream in whichever SPARQL result
// format (JSON, XML, CSV, TSV) the Accept header negotiates. Responses
// carry an ETag derived from the store's write generation, so a client
// or intermediary cache revalidates with one conditional request and a
// 304 for as long as no write has been merged — and no longer. Updates
// arrive as a POST body with Content-Type application/sparql-update or
// as the update field of a POST form (update.go).

// The protocol's direct-POST media types.
const (
	sparqlQueryType  = "application/sparql-query"
	sparqlUpdateType = "application/sparql-update"
)

// maxQueryBytes bounds every POST body, direct or form, query or update;
// a store query is text a human or planner wrote, not bulk data.
const maxQueryBytes = 1 << 20

// gzipPool recycles gzip writers across responses; a gzip.Writer holds
// ~1.4 MiB of window state, far too much to build per request.
var gzipPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// wantsGzip reports whether the Accept-Encoding header admits gzip with
// a nonzero quality. Like etagMatch it scans the header in place and
// allocates nothing.
func wantsGzip(accept string) bool {
	for rest := accept; rest != ""; {
		var elem string
		elem, rest, _ = strings.Cut(rest, ",")
		coding, params, _ := strings.Cut(elem, ";")
		if !strings.EqualFold(strings.TrimSpace(coding), "gzip") {
			continue
		}
		for params != "" {
			var p string
			p, params, _ = strings.Cut(params, ";")
			if k, v, ok := strings.Cut(p, "="); ok && strings.EqualFold(strings.TrimSpace(k), "q") {
				if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && f <= 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

// etagMatch reports whether an If-None-Match header matches the entity
// tag. Weak-validator prefixes compare equal: byte-identical bodies are
// a stronger guarantee than the weak comparison needs.
func etagMatch(header, etag string) bool {
	for rest := header; rest != ""; {
		var c string
		c, rest, _ = strings.Cut(rest, ",")
		c = strings.TrimSpace(c)
		if c == "*" || strings.TrimPrefix(c, "W/") == etag {
			return true
		}
	}
	return false
}

// queryParam returns the first value of the URL query parameter name in
// raw, as url.ParseQuery(raw).Get(name) would, without building the map:
// pairs holding a semicolon or a malformed escape are skipped, as
// ParseQuery skips them.
func queryParam(raw, name string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if key != name {
			if !strings.ContainsAny(key, "%+") {
				continue
			}
			if k, err := url.QueryUnescape(key); err != nil || k != name {
				continue
			}
		}
		if v, err := url.QueryUnescape(value); err == nil {
			return v
		}
	}
	return ""
}

// protocolRequest extracts the operation from whichever protocol request
// form was used: a query (GET ?query=, an application/sparql-query body,
// a form's query field) or an update (an application/sparql-update body,
// a form's update field). A failure is described as an HTTP status;
// update reports what the request was, failed or not.
func protocolRequest(r *http.Request) (text string, update bool, status int, err error) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		if qs := queryParam(r.URL.RawQuery, "query"); qs != "" {
			return qs, false, 0, nil
		}
		return "", false, http.StatusBadRequest, errors.New("missing query parameter")
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if i := strings.IndexByte(ct, ';'); i >= 0 {
			ct = ct[:i]
		}
		switch strings.ToLower(strings.TrimSpace(ct)) {
		case sparqlQueryType:
			text, status, err = readBody(r, "query")
			return text, false, status, err
		case sparqlUpdateType:
			text, status, err = readBody(r, "update")
			return text, true, status, err
		case "application/x-www-form-urlencoded", "":
			// Only an over-limit body fails the request here; a malformed
			// pair is skipped, as url.ParseQuery skips it, and the missing
			// field answers below.
			if err := r.ParseForm(); tooLarge(err) {
				return "", false, http.StatusRequestEntityTooLarge, errBodyTooLarge
			}
			qs, us := r.PostForm.Get("query"), r.PostForm.Get("update")
			switch {
			case qs != "" && us != "":
				return "", false, http.StatusBadRequest, errors.New("a form carries a query or an update, not both")
			case us != "":
				return us, true, 0, nil
			case qs != "":
				return qs, false, 0, nil
			}
			return "", false, http.StatusBadRequest, errors.New("missing query or update form field")
		default:
			return "", false, http.StatusUnsupportedMediaType,
				fmt.Errorf("unsupported request media type %q (use %s, %s or a form)", ct, sparqlQueryType, sparqlUpdateType)
		}
	default:
		return "", false, http.StatusMethodNotAllowed, errors.New("protocol requests use GET, HEAD or POST")
	}
}

// errBodyTooLarge answers a POST body over maxQueryBytes.
var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", maxQueryBytes)

// tooLarge reports whether err is the handler's body bound tripping.
func tooLarge(err error) bool {
	var mb *http.MaxBytesError
	return errors.As(err, &mb)
}

// readBody reads a direct POST body of the named kind.
func readBody(r *http.Request, kind string) (string, int, error) {
	body, err := io.ReadAll(r.Body)
	switch {
	case tooLarge(err):
		return "", http.StatusRequestEntityTooLarge, errBodyTooLarge
	case err != nil:
		return "", http.StatusBadRequest, fmt.Errorf("reading %s body: %w", kind, err)
	case len(body) == 0:
		return "", http.StatusBadRequest, fmt.Errorf("empty %s body", kind)
	}
	return string(body), 0, nil
}

// Header values that never change are shared by every response, so
// setting one allocates nothing; net/http only reads them. Header keys
// set directly are spelled in canonical form ("Etag", not "ETag").
var (
	missValue     = []string{"miss"}
	hitValue      = []string{"hit"}
	gzipValue     = []string{"gzip"}
	varyValue     = []string{"Accept, Accept-Encoding"}
	ctypeValues   = formatValues(results.Format.ContentType)
	generationKey = http.CanonicalHeaderKey(generationHeader)
)

// formatValues is one header value per result format, indexed by format.
func formatValues(value func(results.Format) string) [][]string {
	fs := results.Formats()
	out := make([][]string, len(fs))
	for _, f := range fs {
		out[f] = []string{value(f)}
	}
	return out
}

// setComputed sets the header values a response computes for two
// allocations in all, one string they share and one []string holding
// them: Server-Timing is b[:split] (none when split is 0) and
// Content-Length b[split:] (none when that is empty).
func setComputed(h http.Header, b []byte, split int) {
	if len(b) == 0 {
		return
	}
	all := string(b)
	vals := make([]string, 0, 2)
	if split > 0 {
		vals = append(vals, all[:split])
		h["Server-Timing"] = vals[:1:1]
	}
	if split < len(all) {
		n := len(vals)
		vals = append(vals, all[split:])
		h["Content-Length"] = vals[n : n+1 : n+1]
	}
}

// response carries a result set, a miss or a hit, from the row writer to
// the client. The row writer's buffer is the only buffer between a
// solution row and the socket: nothing reaches w — no status, no header —
// before the row writer's first flush, which comes only once its pending
// bytes reach results.StreamAt (DESIGN.md, "Response path").
type response struct {
	w     http.ResponseWriter
	ctype []string     // the Content-Type header value
	zw    *gzip.Writer // reset onto w when the client accepts gzip, else nil
	tr    *obs.Trace   // the request's stage trace, for Server-Timing
	t0    time.Time    // request start
	hit   bool         // the rows come from the result cache

	out io.Writer // w, or zw over it; nil until the headers are committed
}

// open commits the headers of a 200 response. A complete (one-piece)
// body lets Server-Timing carry every stage, total being the request's
// time so far, and, uncompressed, announce its length (negative:
// unknown); a streamed response announces the pre-stream stages here and
// the rest in a trailer.
func (o *response) open(complete bool, length int, total time.Duration) {
	h := o.w.Header()
	h["Content-Type"] = o.ctype
	cache, verdict := "miss", missValue
	if o.hit {
		cache, verdict = "hit", hitValue
	}
	h["X-Cache"] = verdict
	var buf [256]byte
	b := appendServerTiming(buf[:0], o.tr, cache)
	if complete {
		b = appendPostTiming(append(b, ", "...), o.tr, total)
	}
	split := len(b)
	o.out = o.w
	if o.zw != nil {
		h["Content-Encoding"] = gzipValue
		o.out = o.zw
	} else if length >= 0 {
		b = strconv.AppendInt(b, int64(length), 10)
	}
	setComputed(h, b, split)
}

// Write is the row writer's flush; the first one makes the response
// streamed. The wall time spent downstream — gzip and client I/O — is the
// render stage, priced at two clock reads per write, and a row writer
// writes at most once per results.StreamAt bytes. Like every stage
// boundary after the parse, the reads are monotonic offsets from t0,
// which cost one clock read where time.Now costs two.
func (o *response) Write(p []byte) (int, error) {
	if o.out == nil {
		o.open(false, -1, 0)
	}
	start := time.Since(o.t0)
	n, err := o.out.Write(p)
	o.tr.AddStage(obs.StageRender, time.Since(o.t0)-start)
	return n, err
}

// finish ends a response whose rows went through rw into o. ran is when
// the run ended, as time since the request's start, and err is what cut
// it short (nil: the body is complete). key and roles are what a complete
// one-piece miss is cached under and with: the result-cache key and the
// plan's Roles. A hit stores nothing.
//
// One-piece (rw never flushed): rw.Pending() is the whole body and the
// IDs of all its rows, and nothing is on the wire, so a failure still
// answers with its status. A complete miss offers the result cache an
// exact-size copy of the IDs — the only part of the answer that outlives
// the request — and the body goes out with its Content-Length in a
// single write (gzip leaves the length unknown and the response chunked).
//
// Streamed (the head left with the first flush): a failure can only end
// the body early, and the answer, of which rw holds just the tail, is
// never cached.
func (s *Server) finish(o *response, rw *results.Writer, key string, roles []core.Role, ran time.Duration, err error) {
	streamed := o.out != nil
	if !streamed {
		if err != nil {
			s.fail(o.w, failStatus(err), err)
			return
		}
		body, ids := rw.Pending()
		if !o.hit {
			// A cell renders to 1 byte or more (a CSV comma), so the IDs of
			// a one-piece answer can outgrow its body; the size check holds
			// every entry below StreamAt all the same.
			a := answer{roles: roles, ids: ids, rows: rw.Rows()}
			if s.cfg.CacheEntries > 0 && a.size() < results.StreamAt {
				a.ids = slices.Clone(ids)
				s.results.Put(key, a)
			}
			s.onePiece.Add(1)
		}
		now := time.Since(o.t0)
		o.tr.AddStage(obs.StageRender, now-ran)
		o.open(true, len(body), now)
	} else if !o.hit {
		s.streamed.Add(1)
		if err != nil {
			s.failed.Add(1)
		}
	}
	// A write error means the client is gone; there is nobody to tell.
	_ = rw.Flush()
	if o.zw != nil {
		o.zw.Close()
	}
	if streamed {
		// Best effort: the trailer reaches clients that read trailers and
		// costs nothing otherwise.
		o.w.Header().Set(http.TrailerPrefix+"Server-Timing", postTiming(o.tr, time.Since(o.t0)))
	}
}

// failStatus maps what stopped a query before its first byte to a status:
// the server's deadline is a gateway timeout, a client that went away gets
// the answer nobody reads, anything else is the executor's fault.
func failStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// appendServerTiming renders the Server-Timing entries known before the
// first body byte: the result-cache verdict and the stages that precede
// execution.
func appendServerTiming(b []byte, tr *obs.Trace, cache string) []byte {
	b = strconv.AppendQuote(append(b, "cache;desc="...), cache)
	b = appendDur(b, ", queue;dur=", tr.Stages[obs.StageQueue])
	b = appendDur(b, ", parse;dur=", tr.Stages[obs.StageParse])
	return appendDur(b, ", plan;dur=", tr.Stages[obs.StagePlan])
}

// postTiming renders the entries known once the body is rendered: in the
// header of a one-piece response (taken just before its single write), in
// the trailer of a streamed one.
func postTiming(tr *obs.Trace, total time.Duration) string {
	var b [96]byte
	return string(appendPostTiming(b[:0], tr, total))
}

func appendPostTiming(b []byte, tr *obs.Trace, total time.Duration) []byte {
	b = appendDur(b, "exec;dur=", tr.Stages[obs.StageExec])
	b = appendDur(b, ", render;dur=", tr.Stages[obs.StageRender])
	return appendDur(b, ", total;dur=", total)
}

// appendDur appends a Server-Timing dur parameter: milliseconds with
// three decimals, as strconv.AppendFloat(float64(d)/1e6, 'f', 3) spells
// them. That call always takes strconv's multi-precision path, so the
// digits come from the integer microseconds instead; it is left only the
// exact half-microsecond ties, which the float quotient rounds either
// way (4500 ns to 0.004 but 5500 ns to 0.005), and durations that are
// negative or too long for a float64 to hold exactly.
func appendDur(b []byte, name string, d time.Duration) []byte {
	b = append(b, name...)
	if d < 0 || d >= 1<<53 || d%1000 == 500 {
		return strconv.AppendFloat(b, float64(d)/1e6, 'f', 3, 64)
	}
	us := (d + 500) / 1000
	b = strconv.AppendInt(b, int64(us/1000), 10)
	frac := us % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// resultKey is the result-cache key of q under a row limit at write
// generation gen. q.AppendTo renders the dictionary-resolved BGP
// canonically, so the key normalizes whitespace and spelling, and it
// spells the projection, so one key means one list of column names. The
// generation is load-bearing beyond staleness: a merge remaps dictionary
// IDs, so the same ID text means different terms across generations, and
// the cached answer is IDs. The format is not in the key: every format
// and encoding renders the same cached rows.
func resultKey(gen uint64, q sparql.Query, limit int) string {
	var b [256]byte
	k := q.AppendTo(append(strconv.AppendUint(append(b[:0], "p|g"...), gen, 10), '|'))
	return string(strconv.AppendInt(append(k, '|'), int64(limit), 10))
}

// notModified reports whether the request's conditional headers prove
// the client's copy current: If-None-Match against the generation ETag
// (which takes precedence per RFC 9110), else If-Modified-Since
// against the view's publication time at whole-second granularity.
func notModified(r *http.Request, etag string, modified time.Time) bool {
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		return etagMatch(inm, etag)
	}
	if ims := r.Header.Get("If-Modified-Since"); ims != "" && !modified.IsZero() {
		if t, err := http.ParseTime(ims); err == nil {
			return !modified.Truncate(time.Second).After(t)
		}
	}
	return false
}

// handleProtocol serves one SPARQL protocol request, handing parsed
// updates to handleWrite. Beyond the protocol's three query forms it
// answers HEAD with validators only, honors
// If-None-Match/If-Modified-Since, and accepts two extensions: ?limit=
// (row cap) and ?explain=1 (the plan and per-operator cardinalities as
// JSON instead of results; see explain.go). Every query carries a stage
// trace whose timings feed the latency histograms, Server-Timing (all of
// it in the header of a one-piece response, split across header and
// trailer of a streamed one) and — past the configured threshold — the
// slow-query log.
func (s *Server) handleProtocol(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, maxQueryBytes)
	}
	qs, update, status, err := protocolRequest(r)
	if !update {
		s.protocols.Add(1)
	}
	if err != nil {
		if status == http.StatusMethodNotAllowed {
			w.Header().Set("Allow", "GET, HEAD, POST")
		}
		s.fail(w, status, err)
		return
	}
	if update {
		u, err := parseUpdate(qs)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		s.handleWrite(w, r, u)
		return
	}
	tr := obs.AcquireTrace()
	defer tr.Release()
	f, ok := results.Negotiate(r.Header.Get("Accept"))
	if !ok {
		s.fail(w, http.StatusNotAcceptable,
			fmt.Errorf("no acceptable result format; supported: %s", results.SupportedTypes()))
		return
	}
	limit, err := parseLimitValue(queryParam(r.URL.RawQuery, "limit"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	explain := queryParam(r.URL.RawQuery, "explain") == "1"

	st, gen := s.view()
	// The min-gen consistency token gates the whole request — including
	// revalidation: a 304 against a stale view would be just as stale as
	// a 200 from it.
	if !s.checkMinGen(w, queryParam(r.URL.RawQuery, "min-gen"), gen) {
		return
	}
	vals := s.validators(st, gen)
	h := w.Header()
	h[generationKey] = vals.generation
	// The representation is fully determined by (write generation,
	// format): the view is immutable and query evaluation is
	// deterministic over it. That makes the pair a sound strong
	// validator — a matching If-None-Match revalidates without parsing,
	// planning or touching the index, which is the entire point of
	// keying revalidation on the RCU generation. Last-Modified carries
	// the view's publication time (the store file's mtime when
	// read-only) as the weaker fallback validator for clients that only
	// speak If-Modified-Since. An explain response is volatile
	// (timings), so it neither carries the validators nor honors the
	// conditionals.
	if vals.lastModified != nil {
		h["Last-Modified"] = vals.lastModified
	}
	if !explain {
		etag := vals.etags[f]
		h["Etag"] = etag
		h["Vary"] = varyValue
		if notModified(r, etag[0], st.Modified) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}

	pt := time.Now()
	qp := queries.Get().(*sparql.Query)
	defer queries.Put(qp)
	if err := st.ParseQueryInto(qp, qs); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	q := *qp
	tr.AddStage(obs.StageParse, time.Since(pt))

	if r.Method == http.MethodHead {
		// The validators and negotiated type above are everything a HEAD
		// asks for; execution is skipped (the body would be thrown away).
		h["Content-Type"] = ctypeValues[f]
		w.WriteHeader(http.StatusOK)
		return
	}

	key := resultKey(gen, q, limit)
	var ans answer
	hit := false
	if !explain {
		ans, hit = s.results.Get(key)
	}

	x := s.begin(r)
	defer x.end()
	ctx := &x.ctx
	var plan *sparql.Compiled
	if !hit {
		// A hit skips the worker slot, planning and execution: its rows
		// are in hand, and only rendering them is left.
		qt := time.Now()
		if err := s.acquire(ctx); err != nil {
			s.rejectBusy(w)
			return
		}
		defer s.release()
		tr.AddStage(obs.StageQueue, time.Since(qt))

		plt := time.Now()
		plan, err = sparql.Compile(q, sparql.Plan(q))
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		tr.AddStage(obs.StagePlan, time.Since(plt))

		if explain {
			s.serveExplain(ctx, w, st, gen, qs, q, plan, limit, tr, t0)
			return
		}
	}

	o := &x.resp
	*o = response{w: w, ctype: ctypeValues[f], tr: tr, t0: t0, hit: hit}
	if wantsGzip(r.Header.Get("Accept-Encoding")) {
		// Reset reopens a closed (or untouched) writer, so pooled reuse is
		// safe whichever way the response ends.
		zw := gzipPool.Get().(*gzip.Writer)
		defer gzipPool.Put(zw)
		zw.Reset(w)
		o.zw = zw
	}
	roles := ans.roles
	if !hit {
		roles = plan.Roles
	}
	wr := results.Acquire(f, st, o)
	defer wr.Release()
	if hit || s.cfg.CacheEntries <= 0 {
		// Nothing will read the IDs this writer keeps: a Flush before any
		// output ends the keeping and writes nothing.
		wr.Flush()
	}
	// The key spells the projection, so a hit's column names are those its
	// cached rows were written under.
	wr.Begin(q.Vars, roles...)

	et := time.Since(t0)
	var rows int
	var truncated bool
	run := obs.StageExec
	if hit {
		// The cached rows go to the writer in the executor's block size, so
		// the writer flushes between blocks as it does on a miss, and a
		// wordier rendering buffers at most one block past StreamAt.
		run = obs.StageRender
		w := len(roles)
		for i := 0; i < ans.rows; i += hitBlockRows {
			n := min(hitBlockRows, ans.rows-i)
			wr.WriteBlock(ans.ids[i*w:(i+n)*w], n)
		}
	} else {
		_, rows, truncated, err = execute(ctx, plan, st, tr, limit, wr.WriteBlock)
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	} else {
		wr.End()
	}
	// Execution and serialization interleave once the response streams;
	// the response's timer separates them: exec is the wall time of the
	// run minus whatever of it was spent pushing bytes downstream. A hit
	// executes nothing, so all of its run is render.
	ran := time.Since(t0)
	tr.AddStage(run, max(ran-et-tr.Stages[obs.StageRender], 0))
	s.finish(o, wr, key, roles, ran, err)
	total := time.Since(t0)
	s.observeRequest(tr, total)
	if !hit {
		s.slow.Record("sparql", qs, gen, rows, truncated, errMsg, total, tr)
	}
}

// hitBlockRows is how many cached rows a hit hands its row writer at a
// time: the block size of sparql.Run, whose blocks a miss writes.
const hitBlockRows = 256

// queries recycles the parsed queries of protocol requests: a request
// keeps nothing of its Query past its end (the plan compiled from it
// lives only as long as the request), so it parses into a recycled one
// without allocating.
var queries = sync.Pool{New: func() any { return new(sparql.Query) }}

// protocolValidators are the header values of protocol responses that
// depend only on the view served, formatted once per view rather than
// once per request. They identify the view by its generation, token and
// publication time, not by pointer, so they never keep a retired view
// alive.
type protocolValidators struct {
	gen, token   uint64
	modified     time.Time
	generation   []string   // X-RDF-Generation: the consistency token
	lastModified []string   // nil when the view has no publication time
	etags        [][]string // ETag per result format
}

// validators returns the header values for the view st at write
// generation gen.
func (s *Server) validators(st *store.Store, gen uint64) *protocolValidators {
	token := s.generationToken(gen)
	if v := s.valid.Load(); v != nil && v.gen == gen && v.token == token && v.modified.Equal(st.Modified) {
		return v
	}
	v := &protocolValidators{
		gen:        gen,
		token:      token,
		modified:   st.Modified,
		generation: []string{strconv.FormatUint(token, 10)},
		etags: formatValues(func(f results.Format) string {
			return `"g` + strconv.FormatUint(gen, 10) + `-` + f.String() + `"`
		}),
	}
	if !st.Modified.IsZero() {
		v.lastModified = []string{st.Modified.UTC().Format(http.TimeFormat)}
	}
	s.valid.Store(v)
	return v
}
