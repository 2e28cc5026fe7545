// Command rdfstore is the end-to-end store: it builds a compressed index
// from an N-Triples file, saves it to disk with its dictionaries, answers
// triple selection patterns and SPARQL basic graph patterns against it,
// and serves it over HTTP to concurrent clients.
//
// Usage:
//
//	rdfstore build -in data.nt -layout 2Tp -out store.idx
//	rdfstore query -store store.idx -s '<http://ex/alice>' -p '?' -o '?'
//	rdfstore sparql -store store.idx -q 'SELECT ?x WHERE { ?x <http://ex/knows> ?y . }'
//	rdfstore insert -store store.idx -s '<http://ex/alice>' -p '<http://ex/knows>' -o '<http://ex/carol>'
//	rdfstore delete -store store.idx -s '<http://ex/alice>' -p '<http://ex/knows>' -o '<http://ex/carol>'
//	rdfstore merge -store store.idx
//	rdfstore stats -store store.idx
//	rdfstore verify -store store.idx
//	rdfstore serve -store store.idx -addr :8080 -workers 8
//	rdfstore serve -store leader.idx -addr :8080 -replicate-addr :7878
//	rdfstore serve -store replica.idx -addr :8081 -follow leaderhost:7878
//
// build reads N-Triples only (a .nt file; rdfgen -format nt writes one).
//
// verify checks every container section (header with the dictionaries,
// section table, index) against its stored CRC32C checksum and scans the
// WAL, reporting per-section results; it exits non-zero if anything is
// corrupt. Stores are opened by mapping the file: the index is served
// from the mapped bytes, not decoded into memory. Files written by
// earlier format versions are rebuilt with build.
//
// insert and delete append to a write-ahead log (store.idx.wal) and keep
// the static index untouched until the pending log reaches the merge
// threshold (or merge is run), at which point the store file is rewritten
// atomically. serve recovers the pending log on startup and accepts
// writes as SPARQL updates on /sparql: a POST of one
// "INSERT DATA { s p o . }" or "DELETE DATA { s p o . }" as an
// application/sparql-update body or an update= form field.
//
// serve answers standard SPARQL 1.1 Protocol queries on /sparql (GET,
// HEAD or POST, ?query= with results as SPARQL JSON/XML/CSV/TSV by
// Accept header, ?explain=1 for a JSON execution profile instead of
// results); see internal/server for the endpoint table. Prometheus metrics are
// exposed on /metrics, a JSON summary with latency percentiles on
// /stats, and -slow-query DURATION samples queries over the threshold
// to stderr as JSON lines.
//
// serve -replicate-addr makes the process a replication leader: it
// ships every WAL record (and merge epoch transition) to followers over
// a checksummed frame protocol. serve -follow makes it a read replica:
// the store file is bootstrapped from the leader when absent, writes
// answer 403 with the leader's address, /readyz reports catch-up state,
// and reads honor the min-gen consistency token (see internal/repl and
// DESIGN.md "Replication").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/repl"
	"rdfindexes/internal/server"
	"rdfindexes/internal/sparql"
	"rdfindexes/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			fmt.Fprintln(os.Stderr, "usage: rdfstore build|query|sparql|insert|delete|merge|stats|verify|serve [flags]")
			os.Exit(2)
		}
		if err == errParse {
			// The FlagSet already printed the error and usage.
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rdfstore: %v\n", err)
		os.Exit(1)
	}
}

var (
	errUsage = fmt.Errorf("usage")
	// errParse marks a flag parse failure whose diagnostics the FlagSet
	// has already written to stderr.
	errParse = fmt.Errorf("flag parse error")
)

// parseFlags runs fs.Parse, folding its already-printed errors into the
// sentinels main knows not to re-print.
func parseFlags(fs *flag.FlagSet, args []string) error {
	switch err := fs.Parse(args); {
	case err == nil:
		return nil
	case errors.Is(err, flag.ErrHelp):
		return flag.ErrHelp
	default:
		return errParse
	}
}

// run dispatches a subcommand, writing results to out; it is the
// testable entry point behind main.
func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	var err error
	switch args[0] {
	case "build":
		err = buildCmd(args[1:], out)
	case "query":
		err = queryCmd(args[1:], out)
	case "sparql":
		err = sparqlCmd(args[1:], out)
	case "insert":
		err = writeCmd("insert", args[1:], out)
	case "delete":
		err = writeCmd("delete", args[1:], out)
	case "merge":
		err = mergeCmd(args[1:], out)
	case "stats":
		err = statsCmd(args[1:], out)
	case "verify":
		err = verifyCmd(args[1:], out)
	case "serve":
		err = serveCmd(args[1:], out)
	default:
		return errUsage
	}
	if errors.Is(err, flag.ErrHelp) {
		// -h/-help printed the flag defaults; that is a successful run.
		return nil
	}
	return err
}

func buildCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	in := fs.String("in", "", "input N-Triples file (.nt)")
	layout := fs.String("layout", "2Tp", "index layout: 3T|CC|2Tp|2To")
	outPath := fs.String("out", "store.idx", "output store file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("build needs -in")
	}
	if !strings.HasSuffix(*in, ".nt") {
		return fmt.Errorf("build reads N-Triples (.nt) only, not %s: generate them with rdfgen -format nt", *in)
	}
	l, err := core.ParseLayout(*layout)
	if err != nil {
		return err
	}
	// A previous updatable store at the output path must not leak into
	// the rebuild: refuse while its WAL is live (flocked by a serving
	// process) or holds acknowledged writes, drop an empty leftover.
	if err := store.PrepareRebuild(*outPath); err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	statements, err := rdf.ParseAll(f)
	if err != nil {
		return err
	}
	d, dicts, err := rdf.Encode(statements)
	if err != nil {
		return err
	}
	st := &store.Store{Dicts: dicts}
	if st.Index, err = core.Build(d, l); err != nil {
		return err
	}
	if err := store.Write(*outPath, st); err != nil {
		return err
	}
	fmt.Fprintf(out, "indexed %d triples as %v: %.2f bits/triple -> %s\n",
		st.Index.NumTriples(), l, core.BitsPerTriple(st.Index), *outPath)
	return nil
}

func queryCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	path := fs.String("store", "store.idx", "store file")
	s := fs.String("s", "?", "subject term")
	p := fs.String("p", "?", "predicate term")
	o := fs.String("o", "?", "object term")
	limit := fs.Int("limit", 20, "max results to print (-1 for all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	st, err := store.ReadView(*path)
	if err != nil {
		return err
	}
	pat, err := st.ParsePattern(*s, *p, *o)
	if err != nil {
		return err
	}

	// Matches render through the pooled dictionary cursors: each
	// front-coded bucket entry of a sorted result run decodes once, and
	// the line is built in one reused buffer instead of per-row strings.
	rend := store.AcquireRenderer(st)
	defer rend.Release()
	it := st.Index.Select(pat)
	var buf [256]core.Triple
	var line []byte
	count := 0
	for {
		k := it.NextBatch(buf[:])
		if k == 0 {
			break
		}
		for _, t := range buf[:k] {
			count++
			if *limit >= 0 && count > *limit {
				continue
			}
			line = rend.AppendTerm(line[:0], t.S)
			line = append(line, ' ')
			line = rend.AppendPredicate(line, t.P)
			line = append(line, ' ')
			line = rend.AppendTerm(line, t.O)
			line = append(line, ' ', '.', '\n')
			if _, err := out.Write(line); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "-- %d matches (pattern %v)\n", count, pat.Shape())
	return nil
}

func sparqlCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sparql", flag.ContinueOnError)
	path := fs.String("store", "store.idx", "store file")
	qs := fs.String("q", "", "SELECT query, e.g. 'SELECT ?x WHERE { ?x <http://ex/knows> ?y . }'")
	limit := fs.Int("limit", 20, "max solutions to print (-1 for all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *qs == "" {
		return fmt.Errorf("sparql needs -q")
	}
	st, err := store.ReadView(*path)
	if err != nil {
		return err
	}
	q, err := st.ParseQuery(*qs)
	if err != nil {
		return err
	}
	plan, err := sparql.Compile(q, sparql.Plan(q))
	if err != nil {
		return err
	}
	// Solutions stream as slot rows through the pooled renderer: no
	// per-row maps, no per-term strings.
	rend := store.AcquireRenderer(st)
	defer rend.Release()
	var line []byte
	var writeErr error
	printed := 0
	execStats, err := sparql.Run(context.Background(), plan, st.Index, sparql.Options{}, sparql.EachRow(func(row []core.ID) {
		if writeErr != nil || (*limit >= 0 && printed >= *limit) {
			return
		}
		printed++
		line = line[:0]
		for i, v := range q.Vars {
			if i > 0 {
				line = append(line, '\t')
			}
			line = append(line, '?')
			line = append(line, v...)
			line = append(line, '=')
			line = rend.Append(line, plan.Roles[i], row[i])
		}
		line = append(line, '\n')
		if _, werr := out.Write(line); werr != nil {
			writeErr = werr
		}
	}))
	if err != nil {
		return err
	}
	if writeErr != nil {
		return writeErr
	}
	fmt.Fprintf(out, "-- %d solutions; %d atomic patterns issued; %d triples matched\n",
		execStats.Results, execStats.PatternsIssued, execStats.TriplesMatched)
	return nil
}

// writeCmd applies one insert or delete through the mutable store: the
// write lands in the WAL immediately and folds into the static index at
// the merge threshold.
func writeCmd(name string, args []string, out io.Writer) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	path := fs.String("store", "store.idx", "store file")
	s := fs.String("s", "", "subject term")
	p := fs.String("p", "", "predicate term")
	o := fs.String("o", "", "object term")
	threshold := fs.Int("threshold", 0, "merge threshold (0 = default)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	m, err := store.OpenMutable(*path, *threshold)
	if err != nil {
		return err
	}
	defer m.Close()
	var res store.WriteResult
	if name == "insert" {
		res, err = m.Insert(*s, *p, *o)
	} else {
		res, err = m.Delete(*s, *p, *o)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: changed=%v merged=%v triples=%d pending=%d\n",
		name, res.Changed, res.Merged, res.Triples, res.LogSize)
	return nil
}

// mergeCmd forces the pending log to fold into a rebuilt store file.
func mergeCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	path := fs.String("store", "store.idx", "store file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	m, err := store.OpenMutable(*path, 0)
	if err != nil {
		return err
	}
	defer m.Close()
	st := m.View()
	pending := 0
	if dyn, ok := st.Index.(*core.DynamicSnapshot); ok {
		pending = dyn.LogSize()
	}
	if err := m.Merge(); err != nil {
		return err
	}
	st = m.View()
	fmt.Fprintf(out, "merged %d pending updates: %d triples, %.2f bits/triple -> %s\n",
		pending, st.Index.NumTriples(), core.BitsPerTriple(st.Index), *path)
	return nil
}

func statsCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	path := fs.String("store", "store.idx", "store file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	st, err := store.ReadView(*path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "layout:       %v\n", st.Index.Layout())
	fmt.Fprintf(out, "triples:      %d\n", st.Index.NumTriples())
	fmt.Fprintf(out, "index space:  %.2f bits/triple (%.2f MiB)\n",
		core.BitsPerTriple(st.Index), float64(st.Index.SizeBits())/8/1024/1024)
	fmt.Fprintf(out, "dictionaries: %d SO terms, %d predicates (%.2f MiB)\n",
		st.Dicts.SO.Len(), st.Dicts.P.Len(),
		float64(st.Dicts.SO.SizeBits()+st.Dicts.P.SizeBits())/8/1024/1024)
	fmt.Fprintf(out, "SO dict:      %s\n", dictSpace(st.Dicts.SO, true))
	for _, sec := range st.NumericSections() {
		fmt.Fprintf(out, "SO numeric:   %v, scale %d: %d terms, %d bytes\n", sec.Datatype, sec.Scale, sec.R.Len(), sec.Bytes)
	}
	fmt.Fprintf(out, "P dict:       %s\n", dictSpace(st.Dicts.P, false))
	for _, s := range core.Sequences(st.Index) {
		fmt.Fprintf(out, "sequence:     %s\n", sequenceLine(s, st.Index.NumTriples()))
	}
	fmt.Fprintf(out, "format:       %s\n", formatLine(st.Integrity.Version, st.Integrity.Mapped))
	return nil
}

// sequenceLine describes one stored sequence of the index: its trie
// and level, or PS's part, what a cross-compressed level's ranks are
// among, its codec, the bytes it writes and their bits per triple.
func sequenceLine(s core.Sequence, triples int) string {
	name := s.Owner + " " + s.Part
	if s.Ranks != "" {
		name += " (ranks vs " + s.Ranks + ")"
	}
	bits := s.Seq.SizeBits()
	perTriple := 0.0
	if triples > 0 {
		perTriple = float64(bits) / float64(triples)
	}
	return fmt.Sprintf("%-27s %-7s %9d bytes %6.2f bits/triple", name, s.Seq.Kind(), bits/8, perTriple)
}

// dictSpace describes a dictionary's stored bytes: the verbatim group
// samples, the bucket heads coded against them, the entries coded
// against the term before them, the sample and bucket offsets, the
// numeric sections, how many coded terms escape their header byte, and
// bytes per term. For the SO dictionary it also gives how many terms
// are subjects, the first run of IDs. Terms added since the last merge
// are counted apart; they live in the WAL and the overlay, not in the
// store file.
func dictSpace(r dict.Reader, subjects bool) string {
	pending := 0
	if o, ok := r.(*dict.Overlay); ok {
		r, pending = o.Base(), o.AddedLen()
	}
	d, ok := r.(*dict.Dict)
	if !ok {
		return fmt.Sprintf("%d terms", r.Len())
	}
	sp := d.Space()
	total := sp.Samples + sp.Heads + sp.Entries + sp.Offsets + sp.Numeric
	terms := fmt.Sprintf("%d terms", d.Len())
	if subjects {
		terms += fmt.Sprintf(" (%d subjects)", d.FirstRun())
	}
	line := fmt.Sprintf("%s, %d bytes (samples %d, heads %d, entries %d, offsets %d, numeric %d; %d escaped headers), %.2f B/term",
		terms, total, sp.Samples, sp.Heads, sp.Entries, sp.Offsets, sp.Numeric, sp.Escaped, float64(total)/float64(max(d.Len(), 1)))
	if pending > 0 {
		line += fmt.Sprintf("; %d pending", pending)
	}
	return line
}

// formatLine describes a container version for stats and verify.
func formatLine(version int, mapped bool) string {
	if mapped {
		return fmt.Sprintf("v%d (checksums verified, mapped)", version)
	}
	return fmt.Sprintf("v%d (checksums verified)", version)
}

// verifyCmd checks the store section by section against its stored
// checksums (and scans the WAL, when one exists), printing a per-section
// report. Corruption anywhere makes the command fail, so scripts can
// gate on the exit status.
func verifyCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	path := fs.String("store", "store.idx", "store file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	rep, err := store.Verify(*path)
	if err != nil {
		return err
	}
	if rep.Version > 0 {
		fmt.Fprintf(out, "%s: format %s\n", rep.Path, formatLine(rep.Version, rep.Mapped))
	}
	for _, sec := range rep.Sections {
		status := "ok"
		switch {
		case sec.OK:
		case sec.Name == "magic":
			status = sec.Error // a foreign or outdated file, not damage
		default:
			status = "CORRUPT: " + sec.Error
		}
		if sec.Bytes > 0 {
			fmt.Fprintf(out, "  %-10s %12d bytes  %s\n", sec.Name, sec.Bytes, status)
		} else {
			fmt.Fprintf(out, "  %-10s %s\n", sec.Name, status)
		}
	}
	if rec := rep.WAL; rec != nil {
		if rec.Corrupt {
			fmt.Fprintf(out, "  %-10s CORRUPT after %d valid records (%d records / %d bytes would be dropped): %s\n",
				"wal", rec.Replayed, rec.DroppedRecords, rec.DroppedBytes, rec.Error)
		} else if rec.TornTail {
			fmt.Fprintf(out, "  %-10s %d records ok; torn tail from an interrupted append (%d bytes, dropped on next writing open)\n",
				"wal", rec.Replayed, rec.DroppedBytes)
		} else {
			fmt.Fprintf(out, "  %-10s %d records ok\n", "wal", rec.Replayed)
		}
	}
	if !rep.OK {
		return fmt.Errorf("%s failed verification", rep.Path)
	}
	fmt.Fprintf(out, "%s: OK\n", rep.Path)
	return nil
}

func serveCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	path := fs.String("store", "store.idx", "store file")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "max concurrent queries (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request execution deadline")
	cache := fs.Int("cache", 256, "result cache entries (-1 disables)")
	readonly := fs.Bool("readonly", false, "serve the store immutably (no SPARQL updates, no WAL)")
	threshold := fs.Int("threshold", 0, "pending-update merge threshold (0 = default)")
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof/* runtime profiling endpoints")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown deadline for draining in-flight requests")
	rate := fs.Float64("rate-limit", 0, "per-client requests/second on query and write endpoints (0 disables)")
	burst := fs.Int("rate-burst", 0, "per-client token-bucket burst (0 = 2x rate)")
	brkN := fs.Int("breaker-threshold", 5, "consecutive internal write failures that open the write circuit breaker (negative disables)")
	brkCool := fs.Duration("breaker-cooldown", 10*time.Second, "how long the opened breaker rejects writes before probing")
	slowQ := fs.Duration("slow-query", 0, "log queries slower than this to stderr as JSON lines (0 disables)")
	replAddr := fs.String("replicate-addr", "", "accept WAL-shipping replication followers on this address (leader role)")
	follow := fs.String("follow", "", "replicate from the leader at this address and serve as a read replica")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *follow != "" && (*readonly || *replAddr != "") {
		return fmt.Errorf("-follow serves a read replica; it cannot combine with -readonly or -replicate-addr")
	}
	if *replAddr != "" && *readonly {
		return fmt.Errorf("-replicate-addr needs the write path; it cannot combine with -readonly")
	}
	cfg := server.Options{
		Workers:          *workers,
		Timeout:          *timeout,
		CacheEntries:     *cache,
		Pprof:            *pprofOn,
		RateLimit:        *rate,
		RateBurst:        *burst,
		BreakerThreshold: *brkN,
		BreakerCooldown:  *brkCool,
		SlowQuery:        *slowQ,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	var srv *server.Server
	var st *store.Store
	var mut *store.Mutable
	var leader *repl.Leader
	var followerStop context.CancelFunc
	if *follow != "" {
		// Read replica: the follower owns the mutable store (bootstrapping
		// it from the leader when the file does not exist yet) and the
		// server refuses direct writes, pointing clients at the leader.
		f, err := repl.OpenFollower(*path, *follow, repl.FollowerOptions{
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "repl: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		mut = f.Mutable()
		st = mut.View()
		cfg.Replica = f
		srv = server.NewMutable(mut, cfg)
		rctx, cancel := context.WithCancel(context.Background())
		followerStop = cancel
		go f.Run(rctx)
		fmt.Fprintf(out, "replicating from %s\n", *follow)
	} else if *readonly {
		// ReadView folds in any pending WAL without locking or touching
		// it, so a read-only replica can serve next to a writing process.
		var err error
		st, err = store.ReadView(*path)
		if err != nil {
			return err
		}
		srv = server.New(st, cfg)
	} else {
		m, err := store.OpenMutable(*path, *threshold)
		if err != nil {
			return err
		}
		mut = m
		st = m.View()
		if *replAddr != "" {
			// Leader role: attach the WAL-shipping hub before the server
			// so its metrics register, and start accepting followers
			// alongside the HTTP listener.
			l, err := repl.NewLeader(m, repl.LeaderOptions{})
			if err != nil {
				m.Close()
				return err
			}
			rln, err := net.Listen("tcp", *replAddr)
			if err != nil {
				l.Close()
				return err
			}
			leader = l
			cfg.ReplLeader = l
			go l.Serve(rln)
			fmt.Fprintf(out, "replication leader listening on %s\n", rln.Addr())
		}
		srv = server.NewMutable(m, cfg)
		if rec := m.Recovery(); rec.Corrupt {
			fmt.Fprintf(out, "WAL recovery: %d records replayed, %d dropped after corruption (%s)\n",
				rec.Replayed, rec.DroppedRecords, rec.Error)
		}
	}
	// Bind before announcing, so ":0" invocations (tests, scripted
	// topologies) can read the real port off the serving line.
	hln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving %d triples (%v, %.2f bits/triple) on %s\n",
		st.Index.NumTriples(), st.Index.Layout(), core.BitsPerTriple(st.Index), hln.Addr())

	hs := newHTTPServer(srv)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(hln) }()
	var serveErr error
	select {
	case serveErr = <-errc:
	case <-ctx.Done():
		// Graceful drain on SIGINT/SIGTERM: stop accepting, give
		// in-flight requests (which hold worker-pool slots) the drain
		// deadline to finish, then fall through to close the WAL so the
		// flock releases and no acknowledged write is left buffered.
		fmt.Fprintln(out, "shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		serveErr = hs.Shutdown(shutCtx)
	}
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	// Replication links shut before the WAL handle closes: the leader
	// detaches its observer and drops followers (who will reconnect to a
	// successor), the follower stops its session loop so nothing applies
	// records into a closing store.
	if leader != nil {
		leader.Close()
	}
	if followerStop != nil {
		followerStop()
	}
	if mut != nil {
		// Closed after the listener has drained: no request can race the
		// WAL handle, and a close failure (lost flock release, dirty
		// handle) surfaces instead of vanishing in a defer.
		if err := mut.Close(); err != nil && serveErr == nil {
			serveErr = err
		}
	}
	return serveErr
}

// The connection bounds of serve. A client that sends half a request
// line, or keeps a connection open between requests, would otherwise hold
// a goroutine and a descriptor for as long as it likes. They are fixed
// values rather than flags; tests shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in serve's HTTP server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
