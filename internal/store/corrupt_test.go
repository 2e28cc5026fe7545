package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
	"rdfindexes/internal/seq"
	"rdfindexes/internal/trie"
)

// writeSampleFile serializes the shared sample store and returns its
// path and bytes.
func writeSampleFile(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.idx")
	if err := Write(path, buildSample(t, core.Layout2Tp)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestReadFlippedByteEveryOffset flips one byte at every offset of a
// store file and asserts Read detects each: the format checksums every
// byte and requires every pad byte to be zero (magic aside, where the
// flip breaks the signature), so there is no offset where silent
// acceptance is correct — and no input that may panic instead of
// returning an error.
func TestReadFlippedByteEveryOffset(t *testing.T) {
	path, data := writeSampleFile(t)
	for off := range data {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xa5
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path); err == nil {
			t.Fatalf("flipped byte at offset %d/%d accepted", off, len(data))
		}
	}
}

// writeIndexLast writes a random store of the layout and returns its
// path, its bytes and the bounds [start, end) of its index section, the
// file's last section: the section's checksum is the file's last four
// bytes.
func writeIndexLast(t *testing.T, layout core.Layout) (st *Store, path string, data []byte, start, end int) {
	t.Helper()
	st = randomStore(t, rand.New(rand.NewSource(3)), 2000, 500, 4, layout)
	var section bytes.Buffer
	if err := core.WriteIndex(&section, st.Index); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "store.idx")
	if err := Write(path, st); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end = len(data) - 4
	start = end - section.Len()
	if start < 0 || !bytes.Equal(data[start:end], section.Bytes()) {
		t.Fatal("the index section is not the end of the file")
	}
	return st, path, data, start, end
}

// rewriteIndex stores data with the index section's checksum recomputed
// over [start, end), so that only the decoder can tell a crafted
// sequence from a good one.
func rewriteIndex(t *testing.T, path string, data []byte, start, end int) {
	t.Helper()
	binary.LittleEndian.PutUint32(data[end:], crc32.Checksum(data[start:end], codec.Castagnoli))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReadCraftedPEF opens a store whose index section carries a correct
// checksum over a crafted partitioned Elias-Fano sequence: the last
// partition of 3T's OSP third level lost the set bit of its last value.
// Read must refuse it as corrupt at open, not serve a sequence whose
// reads run past the partition.
func TestReadCraftedPEF(t *testing.T) {
	_, path, data, start, end := writeIndexLast(t, core.Layout3T)
	// The section ends with that sequence's payload words, whose last set
	// bit is the last partition's last value.
	i := end - 1
	for data[i] == 0 {
		i--
	}
	data[i] &^= 1 << (bits.Len8(data[i]) - 1)
	rewriteIndex(t, path, data, start, end)
	if _, err := Read(path); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "pef partition") {
		t.Fatalf("Read of a crafted partition: %v, want a pef partition ErrCorrupt", err)
	}
}

// TestReadCraftedCompact opens stores whose index section carries a
// correct checksum over a crafted header of 2Tp's POS third level, the
// section's last sequence, coded Compact: a width of 0, one past the
// built width, and past 64 bits. Read must refuse each as corrupt at
// open, not panic or serve reads past the vector.
func TestReadCraftedCompact(t *testing.T) {
	st, path, data, start, end := writeIndexLast(t, core.Layout2Tp)
	subjects := st.Index.Trie(core.PermPOS).Nodes(2)
	if subjects.Kind() != seq.KindCompact {
		t.Fatalf("2Tp's POS third level is %v, want Compact", subjects.Kind())
	}
	// The sequence ends the section: its kind byte, the width, the
	// count, the vector's bit length and word count, pad, then the words.
	n := subjects.Len()
	var top uint64
	for i := range n {
		top = max(top, subjects.At(0, i))
	}
	width := bits.Len64(top | 1) // the width the encoder picks for top
	nbits := n * width
	words := (nbits + 63) / 64
	head := binary.AppendUvarint([]byte{byte(seq.KindCompact), byte(width)}, uint64(n))
	head = binary.AppendUvarint(head, uint64(nbits))
	head = binary.AppendUvarint(head, uint64(words))
	at := bytes.LastIndex(data[start:end-8*words], head)
	if at < 0 {
		t.Fatal("the Compact header is not before the section's last words")
	}
	at += start + 1 // the width byte
	for _, w := range []byte{0, byte(width + 1), 65} {
		crafted := append([]byte(nil), data...)
		crafted[at] = w
		rewriteIndex(t, path, crafted, start, end)
		if _, err := Read(path); !errors.Is(err, codec.ErrCorrupt) || !strings.Contains(err.Error(), "compact vector header") {
			t.Fatalf("Read of a Compact width %d: %v, want a compact vector header ErrCorrupt", w, err)
		}
	}
}

// TestReadRefusesNoDicts pins that every store carries its dictionaries:
// Write refuses a store without them, and Read and Verify refuse, under
// header, a container whose dictionary flag is 0, as one written without
// dictionaries would be: the flag, the header's checksum and its pad,
// then the sample store's table and index section.
func TestReadRefusesNoDicts(t *testing.T) {
	path, data := writeSampleFile(t)
	if err := Write(path, &Store{Index: buildSample(t, core.Layout2Tp).Index}); err == nil {
		t.Fatal("Write accepted a store without dictionaries")
	}
	r := codec.NewBytesReader(data, nil)
	_ = r.String() // magic
	head := r.Offset()
	r.Byte() // dictionary flag
	for range 2 {
		if _, err := dict.Decode(r); err != nil {
			t.Fatal(err)
		}
	}
	r.Uint32()
	r.Pad()
	crafted := append([]byte(nil), data[:head]...)
	crafted = append(crafted, 0)
	crafted = binary.LittleEndian.AppendUint32(crafted, crc32.Checksum([]byte{0}, codec.Castagnoli))
	for len(crafted)%8 != 0 {
		crafted = append(crafted, 0)
	}
	crafted = append(crafted, data[r.Offset():]...)
	if err := os.WriteFile(path, crafted, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "dictionary flag 0 in the header: stores without dictionaries are no longer read"
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Read of a store without dictionaries: %v, want %q", err, want)
	}
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || len(rep.Sections) != 1 || rep.Sections[0].Name != "header" || !strings.Contains(rep.Sections[0].Error, want) {
		t.Fatalf("Verify of a store without dictionaries: %+v, want the header naming %q", rep, want)
	}
}

// TestReadTruncatedEveryLength truncates a store at every possible
// length and asserts Read errors each time — short headers, half
// tables, pads, sections cut mid-payload, and a missing trailing
// checksum all included.
func TestReadTruncatedEveryLength(t *testing.T) {
	path, data := writeSampleFile(t)
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(data))
		}
	}
}

// TestVerifyReport pins the verify walk: a clean store reports every
// section ok; a flipped byte in the index payload is attributed to the
// index section while the rest stay ok.
func TestVerifyReport(t *testing.T) {
	path, data := writeSampleFile(t)
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Version != CurrentVersion || rep.Mapped != mapsFiles {
		t.Fatalf("clean store: %+v", rep)
	}
	var names []string
	for _, sec := range rep.Sections {
		names = append(names, sec.Name)
	}
	if strings.Join(names, " ") != "header table index" {
		t.Fatalf("sections: %+v", rep.Sections)
	}

	// Damage the index payload (its trailing CRC is the last 4 bytes of
	// the file; the byte before that is payload).
	mut := append([]byte(nil), data...)
	mut[len(mut)-5] ^= 0x01
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("corrupt index not reported")
	}
	var bad []string
	for _, sec := range rep.Sections {
		if !sec.OK {
			bad = append(bad, sec.Name)
		}
	}
	if len(bad) != 1 || bad[0] != "index" {
		t.Fatalf("corruption attributed to %v, want [index]; report %+v", bad, rep.Sections)
	}

	// A file that is not a store fails at its magic.
	garbage := filepath.Join(t.TempDir(), "old.idx")
	if err := os.WriteFile(garbage, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(garbage)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Version != 0 || len(rep.Sections) != 1 || rep.Sections[0].Name != "magic" {
		t.Fatalf("garbage: %+v", rep)
	}
}

// TestVerifyDictOrder crafts a store whose SO dictionary holds an entry
// out of order under a valid header CRC32C. Read opens it — the open
// decodes only what locates the buckets — and Verify rejects it under
// header, naming the dictionary and the first bad ID.
func TestVerifyDictOrder(t *testing.T) {
	path, data := writeSampleFile(t)
	r := codec.NewBytesReader(data, nil)
	if magic := r.String(); magic != Magic {
		t.Fatalf("magic %q", magic)
	}
	r.Byte() // dictionary flag
	r.Uvarint()
	r.Uvarint()
	r.Uvarint()
	r.Uvarint()  // string count, subjects, bucket size, numeric sections
	r.BytesBuf() // the subjects' samples
	r.BytesBuf() // sample offsets
	length := r.Uvarint()
	so := data[r.Offset():][:length]
	// ID 0 is the sample "<http://ex/alice>", apart from the coded
	// strings; ID 1, "<http://ex/bob>", is the first of them. It drops
	// 6 bytes of the sample ("alice>"), and its middle "bob" comes
	// before a one-byte tail (">"), all in one header byte. A middle
	// starting with 0x00 sorts it before the sample.
	if want := []byte{6<<5 | 3<<2 | 1, 'b', 'o', 'b'}; !bytes.Equal(so[:4], want) {
		t.Fatalf("ID 1 is coded as % x, want % x", so[:4], want)
	}
	so[1] = 0
	resealHeader(t, path, data)

	if _, err := Read(path); err != nil {
		t.Fatalf("Read of a store with an out-of-order entry: %v", err)
	}
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || len(rep.Sections) != 3 || rep.Sections[0].Name != "header" || rep.Sections[0].OK ||
		!strings.Contains(rep.Sections[0].Error, "SO dictionary: codec: corrupt stream: dict ID 1: does not sort after") ||
		!rep.Sections[1].OK || !rep.Sections[2].OK {
		t.Fatalf("Verify of a store with an out-of-order entry: %+v", rep)
	}
}

// resealHeader writes data, a store file whose dictionaries were edited
// in place, to path with the header's CRC32C recomputed over the edit.
func resealHeader(t *testing.T, path string, data []byte) {
	t.Helper()
	r := codec.NewBytesReader(data, nil)
	_ = r.String() // magic
	start := r.Offset()
	r.Byte() // dictionary flag
	for range 2 {
		if _, err := dict.Decode(r); err != nil {
			t.Fatal(err)
		}
	}
	end := r.Offset()
	binary.LittleEndian.PutUint32(data[end:], crc32.Checksum(data[start:end], codec.Castagnoli))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyNumericString crafts a store whose SO dictionary holds a
// canonical numeric literal among the strings of its second run, beside
// the numeric sections, under a valid header CRC32C: the non-canonical
// "+5" of the input, a group sample stored verbatim, becomes "65".
// Locate would look for it in the integer section only, so Verify
// rejects it under header, naming the dictionary and the ID.
func TestVerifyNumericString(t *testing.T) {
	const integer = `"^^<http://www.w3.org/2001/XMLSchema#integer>`
	nt := "<http://ex/a> <http://ex/p> \"7" + integer + " .\n" +
		"<http://ex/a> <http://ex/p> \"+5" + integer + " .\n" +
		"<http://ex/a> <http://ex/p> <http://ex/z> .\n"
	path := filepath.Join(t.TempDir(), "num.idx")
	buildStore(t, nt, core.Layout2Tp, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`"+5`+integer))
	if at < 0 {
		t.Fatal("the non-canonical integer is not stored verbatim")
	}
	data[at+1] = '6'
	resealHeader(t, path, data)

	if _, err := Read(path); err != nil {
		t.Fatalf("Read of a store with a numeric string: %v", err)
	}
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Sections[0].Name != "header" || rep.Sections[0].OK ||
		!strings.Contains(rep.Sections[0].Error, "SO dictionary: codec: corrupt stream: dict ID 1: a string of xsd:integer at scale 0 beside the numeric sections") {
		t.Fatalf("Verify of a store with a numeric string: %+v", rep)
	}
}

// TestVerifyDictRoots crafts a store whose checksums are all valid but
// whose SO dictionary holds every term in its first run, so the count of
// subjects it records disagrees with the roots of the index's SPO trie.
// Write refuses it; written past that check, Verify fails the header and
// names the trie and the dictionary, and Read opens the file, and queries
// over it answer without a panic.
func TestVerifyDictRoots(t *testing.T) {
	for _, layout := range []core.Layout{core.Layout3T, core.Layout2To} {
		st := buildSample(t, layout)
		so := st.Dicts.SO.(*dict.Dict)
		var terms []string
		for id := 0; id < so.Len(); id++ {
			s, _ := so.Extract(id)
			terms = append(terms, s)
		}
		all, err := dict.FromUnsorted(terms, dict.DefaultBucketSize)
		if err != nil {
			t.Fatal(err)
		}
		if all.FirstRun() == so.FirstRun() {
			t.Fatalf("the sample's %d terms are all subjects", so.Len())
		}
		want := fmt.Sprintf("SPO trie of the index has %d roots, for %d SO dictionary subjects", so.FirstRun(), all.FirstRun())
		// Write refuses the mismatch and leaves no file; the unexported
		// writer, which Write checks before calling, writes it.
		path := filepath.Join(t.TempDir(), "store.idx")
		mismatched := &Store{Index: st.Index, Dicts: &rdf.Dicts{SO: all, P: st.Dicts.P}}
		if err := Write(path, mismatched); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%v: Write of a store whose dictionary disagrees with its index: %v, want %q", layout, err, want)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%v: the refused Write left a file: %v", layout, err)
		}
		if err := writeFile(path, st.Index, all, st.Dicts.P.(*dict.Dict)); err != nil {
			t.Fatal(err)
		}
		rep, err := Verify(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK || len(rep.Sections) != 3 || rep.Sections[0].Name != "header" || !strings.Contains(rep.Sections[0].Error, want) {
			t.Fatalf("%v: Verify of a store whose dictionary disagrees with its index: %+v, want the header naming %q", layout, rep, want)
		}
		got, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, pat := range [][3]string{{"?", "?", "?"}, {"<http://ex/alice>", "?", "?"}, {"?", "?", `"30"`}, {`"30"`, "?", "?"}} {
			if _, err := got.ParsePattern(pat[0], pat[1], pat[2]); err != nil {
				t.Fatal(err)
			}
			countMatches(t, got, pat[0], pat[1], pat[2])
		}
		allLines(t, got)
	}
}

// TestVerifyCrossRanks crafts a 2Tp store whose SPO third level holds a
// rank past its predicate's objects in POS, under valid checksums:
// unmapping it would read another predicate's object, or past POS's
// level. Verify fails the index section naming the rank; Read, which
// leaves the check to Verify, opens the file.
func TestVerifyCrossRanks(t *testing.T) {
	st := buildSample(t, core.Layout2Tp)
	spo, pos := st.Index.Trie(core.PermSPO), st.Index.Trie(core.PermPOS)
	if ref, ok := core.CrossReference(st.Index, core.PermSPO); !ok || ref != core.PermPOS {
		t.Fatalf("2Tp's SPO ranks against %v, %v; want POS", ref, ok)
	}
	// SPO's rows as stored, ranks for objects, with the last one raised
	// to the number of its predicate's objects: still sorted.
	type row struct{ a, b, r uint32 }
	var rows []row
	ranks := spo.Nodes(2)
	for a := 0; a < spo.NumRoots(); a++ {
		b1, e1 := spo.RootRange(uint32(a))
		for j := b1; j < e1; j++ {
			b := spo.Node1At(b1, j)
			b2, e2 := spo.ChildRange(j)
			for i := b2; i < e2; i++ {
				rows = append(rows, row{uint32(a), b, uint32(ranks.At(b2, i))})
			}
		}
	}
	last := &rows[len(rows)-1]
	pb, pe := pos.RootRange(last.b)
	last.r = uint32(pe - pb)
	cfg := trie.Config{Nodes1: spo.Nodes(1).Kind(), Nodes2: ranks.Kind(), Ptr0: spo.Pointers(0).Kind(), Ptr1: spo.Pointers(1).Kind()}
	bad, err := trie.Build(len(rows), spo.NumRoots(), func(i int) (uint32, uint32, uint32) {
		return rows[i].a, rows[i].b, rows[i].r
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	w.String("RDFIDX1") // core.WriteIndex's header
	w.Byte(byte(core.Layout2Tp))
	bad.Encode(w)
	pos.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	x, err := core.ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.idx")
	if err := Write(path, &Store{Index: x, Dicts: st.Dicts}); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("SPO trie: rank %d under (%d, %d), which has %d children in the reference", last.r, last.a, last.b, last.r)
	var failed []SectionStatus
	for _, sec := range rep.Sections {
		if !sec.OK {
			failed = append(failed, sec)
		}
	}
	if rep.OK || len(failed) != 1 || failed[0].Name != "index" || !strings.Contains(failed[0].Error, want) {
		t.Fatalf("Verify of a store with a rank past its predicate's objects: %+v, want the index naming %q", rep, want)
	}
	if _, err := Read(path); err != nil {
		t.Fatalf("Read: %v", err)
	}
	// The store as built passes.
	good := filepath.Join(t.TempDir(), "good.idx")
	if err := Write(good, st); err != nil {
		t.Fatal(err)
	}
	if rep, err := Verify(good); err != nil || !rep.OK {
		t.Fatalf("Verify of the built store: %+v, %v", rep, err)
	}
}

// TestWALCorruptMiddle damages a record in the middle of the WAL and
// checks the recovery contract: the open succeeds, replay stops at the
// last verifiable prefix (applying nothing after the damage), the loss
// is reported, and the truncated WAL accepts new writes cleanly. A
// record without CRC framing stops the replay the same way.
func TestWALCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp)
	m, err := OpenMutable(path, -1) // manual merges: the WAL keeps all records
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"<http://ex/w1>", "<http://ex/w2>", "<http://ex/w3>"} {
		if _, err := m.Insert(s, "<http://ex/knows>", "<http://ex/alice>"); err != nil {
			t.Fatal(err)
		}
	}
	if rec := m.Recovery(); rec.Corrupt || rec.Replayed != 0 {
		t.Fatalf("fresh open recovery %+v", rec)
	}
	m.Close()

	// Flip one byte inside the second record's term bytes.
	walPath := path + WALSuffix
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("unexpected WAL shape: %q", data)
	}
	off := len(lines[0]) + len(lines[1])/2
	data[off] ^= 0x20
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m, err = OpenMutable(path, -1)
	if err != nil {
		t.Fatalf("corrupt middle failed the open: %v", err)
	}
	rec := m.Recovery()
	if !rec.Corrupt || rec.Replayed != 1 || rec.DroppedRecords != 2 {
		t.Fatalf("recovery %+v, want corrupt with 1 replayed / 2 dropped", rec)
	}
	if !strings.Contains(rec.Error, "checksum mismatch") {
		t.Fatalf("recovery error %q", rec.Error)
	}
	st := m.View()
	if got := countMatches(t, st, "<http://ex/w1>", "?", "?"); got != 1 {
		t.Fatalf("valid prefix record lost: %d", got)
	}
	// Nothing past the damage was applied — not even the intact third
	// record, whose placement can no longer be trusted.
	for _, s := range []string{"<http://ex/w2>", "<http://ex/w3>"} {
		if _, err := st.ParseTerm(s, false); err == nil {
			t.Fatalf("record after the corruption was applied: %s", s)
		}
	}
	// The damage is truncated away; appends and replays work again.
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(len(lines[0])) {
		t.Fatalf("WAL not truncated to the valid prefix: %v bytes, want %d", fi.Size(), len(lines[0]))
	}
	if _, err := m.Insert("<http://ex/w4>", "<http://ex/knows>", "<http://ex/alice>"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m, err = OpenMutable(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	if rec := m.Recovery(); rec.Corrupt || rec.Replayed != 2 {
		t.Fatalf("post-repair recovery %+v", rec)
	}
	if got := countMatches(t, m.View(), "<http://ex/w4>", "?", "?"); got != 1 {
		t.Fatalf("append after repair lost: %d", got)
	}
	m.Close()

	// A record without the CRC framing cannot be verified: replay ends
	// there, as at any other corrupt record.
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("I <http://ex/w5> <http://ex/knows> <http://ex/alice> .\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m, err = OpenMutable(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if rec := m.Recovery(); !rec.Corrupt || rec.Replayed != 2 || rec.DroppedRecords != 1 || !strings.Contains(rec.Error, "without CRC framing") {
		t.Fatalf("CRC-less record: recovery %+v, want a corrupt stop after 2 records", rec)
	}
	if _, err := m.View().ParseTerm("<http://ex/w5>", false); err == nil {
		t.Fatal("the CRC-less record was applied")
	}
}

// TestWALSequenceSplice deletes a whole record from the middle of the
// WAL: both neighbors are individually intact, so only the sequence
// numbers reveal the gap — replay must stop before the spliced record
// rather than apply operations out of order.
func TestWALSequenceSplice(t *testing.T) {
	dir := t.TempDir()
	path := buildTestStore(t, dir, core.Layout2Tp)
	m, err := OpenMutable(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"<http://ex/w1>", "<http://ex/w2>", "<http://ex/w3>"} {
		if _, err := m.Insert(s, "<http://ex/knows>", "<http://ex/alice>"); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	walPath := path + WALSuffix
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	spliced := lines[0] + lines[2] // record 2 lost in its entirety
	if err := os.WriteFile(walPath, []byte(spliced), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err = OpenMutable(path, -1)
	if err != nil {
		t.Fatalf("spliced WAL failed the open: %v", err)
	}
	defer m.Close()
	rec := m.Recovery()
	if !rec.Corrupt || rec.Replayed != 1 || !strings.Contains(rec.Error, "sequence jump") {
		t.Fatalf("recovery %+v, want a sequence-jump stop after 1 record", rec)
	}
	if _, err := m.View().ParseTerm("<http://ex/w3>", false); err == nil {
		t.Fatal("out-of-place record was applied")
	}
}

// FuzzStoreRead feeds arbitrary bytes to the container reader: whatever
// the input, Read and Verify must return (a store, a report or an error)
// without panicking or over-allocating.
func FuzzStoreRead(f *testing.F) {
	// Seed with a real container, dictionaries and all, so the fuzzer
	// starts from deep coverage, plus edge-case fragments.
	single := filepath.Join(f.TempDir(), "single.idx")
	if err := Write(single, buildSample(f, core.Layout2Tp)); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(single)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(Magic))
	f.Add(hugeMagicPrefix)
	f.Add([]byte{})
	// A sound container under another magic, and one without the index
	// section's trailing checksum.
	foreign := append([]byte(nil), data...)
	copy(foreign[1:], "RDFSTORE2")
	f.Add(foreign)
	f.Add(data[:len(data)-4])

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.idx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := Read(path)
		if err == nil && st.Index == nil {
			t.Fatal("Read returned a store with no index")
		}
		if rep, err := Verify(path); err != nil || rep == nil {
			t.Fatalf("Verify: %v", err)
		}
	})
}
