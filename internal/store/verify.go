package store

import (
	"fmt"
	"os"
	"runtime/debug"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
)

// SectionStatus is one section's verification outcome.
type SectionStatus struct {
	// Name identifies the section: "magic", "header", "table", "index",
	// "wal", or "container" when the walk itself failed.
	Name string `json:"name"`
	// Bytes is the section's size where known (0 when the walk could not
	// establish it).
	Bytes int64 `json:"bytes,omitempty"`
	// OK is false when the section failed its checksum or decode.
	OK bool `json:"ok"`
	// Error describes the failure.
	Error string `json:"error,omitempty"`
}

// VerifyReport is the per-section integrity report behind `rdfstore
// verify`.
type VerifyReport struct {
	Path string `json:"path"`
	// Version is the container format version (0 when the magic did not
	// match).
	Version int `json:"version"`
	// Mapped is true when the walk read the file through a memory map,
	// as Read serves it.
	Mapped bool `json:"mapped"`
	// OK is true when no section failed.
	OK       bool            `json:"ok"`
	Sections []SectionStatus `json:"sections"`
	// WAL reports the write-ahead log scan when one exists next to the
	// store (nil otherwise).
	WAL *WALRecovery `json:"wal,omitempty"`
}

// fail records one failed section and flips the report.
func (rep *VerifyReport) fail(name string, bytes int64, err error) {
	rep.OK = false
	rep.Sections = append(rep.Sections, SectionStatus{Name: name, Bytes: bytes, Error: err.Error()})
}

func (rep *VerifyReport) pass(name string, bytes int64) {
	rep.Sections = append(rep.Sections, SectionStatus{Name: name, Bytes: bytes, OK: true})
}

// Verify checks the store at path section by section and reports every
// failure instead of stopping at the first, so an operator sees the full
// extent of the damage (one flipped sector vs. a truncated half). It
// walks the mapped file exactly as Read does — checksums, pads and full
// decodes — and checks every dictionary entry besides, which Read leaves
// to the access paths, but does not need the whole store to be loadable.
// The returned error covers only environmental problems (the file cannot
// be opened, statted or mapped); corruption is reported through the
// report itself.
func Verify(path string) (rep *VerifyReport, err error) {
	m, _, err := openMapping(path)
	if err != nil {
		return nil, err
	}
	defer m.release() // nothing decoded from it outlives the walk
	rep = &VerifyReport{Path: path, OK: true, Mapped: m.mapped}
	defer func() {
		if p := recover(); p != nil {
			rep.fail("container", 0, fmt.Errorf("%w: decoder panic: %v", codec.ErrCorrupt, p))
			err = nil
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	c := walkContainer(m.data, m)
	rep.Version = c.version
	for _, p := range c.parts {
		if p.name == "header" && p.err == nil {
			p.err = checkDicts(c.dicts, c.index)
		}
		if p.err != nil {
			rep.fail(p.name, p.bytes, p.err)
		} else {
			rep.pass(p.name, p.bytes)
		}
	}
	rep.verifyWAL(path)
	return rep, nil
}

// checkDicts runs the deep check Read leaves out on both dictionaries
// and names the one that fails. With the index decoded, it also checks
// that each stored trie's roots span the ID space its first component
// draws from: SPO's the SO dictionary's subjects, POS's the predicates,
// OSP's and OPS's the whole SO dictionary. The dictionaries and the
// index may each pass their own checks and still disagree there, and
// then IDs would name the wrong terms.
func checkDicts(d *rdf.Dicts, x core.Index) error {
	so, p := d.SO.(*dict.Dict), d.P.(*dict.Dict)
	if err := so.Check(); err != nil {
		return fmt.Errorf("SO dictionary: %w", err)
	}
	if err := p.Check(); err != nil {
		return fmt.Errorf("P dictionary: %w", err)
	}
	if x == nil {
		return nil
	}
	for _, c := range []struct {
		perm core.Perm
		want int
		what string
	}{
		{core.PermSPO, so.FirstRun(), "SO dictionary subjects"},
		{core.PermPOS, p.Len(), "predicates"},
		{core.PermOSP, so.Len(), "SO dictionary terms"},
		{core.PermOPS, so.Len(), "SO dictionary terms"},
	} {
		if t := x.Trie(c.perm); t != nil && t.NumRoots() != c.want {
			return fmt.Errorf("%w: %v trie of the index has %d roots, for %d %s", codec.ErrCorrupt, c.perm, t.NumRoots(), c.want, c.what)
		}
	}
	return nil
}

// verifyWAL scans the write-ahead log next to the store, when one
// exists, by replaying it read-only through the identical recovery path
// a serving open uses — so "verify says clean" and "the server opens it"
// cannot disagree.
func (rep *VerifyReport) verifyWAL(path string) {
	if _, err := os.Stat(path + WALSuffix); err != nil {
		return // no WAL (or it vanished); nothing to scan
	}
	if !rep.OK {
		// The store itself is damaged; the WAL replays against its terms,
		// so a scan would only report noise.
		return
	}
	m, err := openMutable(path, -1, false)
	if err != nil {
		rep.fail("wal", 0, err)
		return
	}
	rec := m.Recovery()
	m.Close()
	rep.WAL = &rec
	if rec.Corrupt {
		rep.OK = false
	}
}
