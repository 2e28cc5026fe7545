package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// The write routes the benchmark knows. Today writes exist only on the
// deprecated /insert and /delete; ROADMAP item 2 moves them to the
// SPARQL 1.1 Update form on /sparql. probeWriteRoute picks whichever the
// server accepts, so that move needs no edit here.
const (
	routeUpdate = "POST /sparql (application/sparql-update)"
	routeLegacy = "POST /insert, /delete"
)

// writer sends acknowledged writes over one connection.
type writer struct {
	c     *conn
	base  string
	route string
}

// probeWriteRoute finds the write route by inserting one triple of fresh
// terms: first as a SPARQL update, then on the legacy endpoints.
func probeWriteRoute(c *conn, base string) (*writer, error) {
	w := &writer{c: c, base: base}
	const s, p, o = "<http://bench.example/probe/s>", "<http://bench.example/probe/p>", "<http://bench.example/probe/o>"
	var errs []string
	for _, route := range []string{routeUpdate, routeLegacy} {
		w.route = route
		err := w.writeOp(true, s, p, o)
		if err == nil {
			return w, nil
		}
		errs = append(errs, route+": "+err.Error())
	}
	return nil, fmt.Errorf("no write route accepted a probe insert: %s", strings.Join(errs, "; "))
}

// writeOp inserts or deletes one triple and returns nil once the server
// acknowledged it. It is the only place that knows how a write is spelled.
func (w *writer) writeOp(insert bool, s, p, o string) error {
	var req *http.Request
	var err error
	switch w.route {
	case routeUpdate:
		verb := "DELETE"
		if insert {
			verb = "INSERT"
		}
		body := verb + " DATA { " + s + " " + p + " " + o + " . }"
		req, err = http.NewRequest(http.MethodPost, w.base+"/sparql", strings.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/sparql-update")
		}
	default:
		path := "/delete"
		if insert {
			path = "/insert"
		}
		q := url.Values{"s": {s}, "p": {p}, "o": {o}}
		req, err = http.NewRequest(http.MethodPost, w.base+path+"?"+q.Encode(), nil)
	}
	if err != nil {
		return err
	}
	resp, err := w.c.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// writeTriple is the i-th triple mixed-rw writes. Subject and object are
// fresh terms no read query mentions, so reads keep their verified
// answers while writes land; the predicate is one the data already has.
func writeTriple(i int, pred string) (s, p, o string) {
	return fmt.Sprintf("<http://bench.example/written/s%d>", i), pred,
		fmt.Sprintf("<http://bench.example/written/o%d>", i)
}

// writeLog records which writes the server acknowledged.
type writeLog struct {
	preds   []string // predicate pool, from the data
	acked   []bool   // acked[i]: the insert of triple i was acknowledged
	deleted []bool   // deleted[i]: a later delete of triple i was acknowledged
}

// op is the k-th scheduled write: three inserts, then a delete of the
// triple inserted three operations earlier, so the log holds both kinds
// and the store's size stays near its start.
func (l *writeLog) op(k int) (insert bool, i int) {
	if k%4 == 3 {
		return false, k - 3
	}
	return true, k
}

func (l *writeLog) pred(i int) string { return l.preds[i%len(l.preds)] }

// check reads every written triple back. An acknowledged insert that was
// not deleted must answer with exactly its object; a deleted one must be
// gone (no row, or the term unknown again). It returns how many triples
// were checked and how many were in the wrong state.
func (l *writeLog) check(c *conn, base string) (checked, wrong int, first error) {
	for i, acked := range l.acked {
		if !acked {
			continue
		}
		checked++
		s, p, o := writeTriple(i, l.pred(i))
		u, _ := url.Parse(base + "/sparql?query=" + url.QueryEscape("SELECT ?o WHERE { "+s+" "+p+" ?o . }"))
		status, body, _, err := c.get(&request{url: u}, true)
		var rows []string
		if err == nil && status == http.StatusOK {
			rows, err = decodeRows(body, []string{"o"})
		}
		switch {
		case err != nil:
		case l.deleted[i] && (status == http.StatusBadRequest || (status == http.StatusOK && len(rows) == 0)):
			continue
		case l.deleted[i]:
			err = fmt.Errorf("deleted triple %d still answers (status %d, %d rows)", i, status, len(rows))
		case status != http.StatusOK:
			err = fmt.Errorf("acknowledged insert %d: status %d", i, status)
		case len(rows) != 1 || rows[0] != o:
			err = fmt.Errorf("acknowledged insert %d answers %q, want %q", i, rows, o)
		default:
			continue
		}
		wrong++
		if first == nil {
			first = err
		}
	}
	return checked, wrong, first
}
