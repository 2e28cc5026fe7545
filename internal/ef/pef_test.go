package ef

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	xbits "rdfindexes/internal/bits"
	"rdfindexes/internal/codec"
)

// pefColumns is a partitioned sequence in its encoded form, as Encode
// writes it and the decoders read it.
type pefColumns struct {
	n        int
	universe uint64
	partLog  uint
	uppers   []uint64
	kinds    []byte
	offs     []uint64 // one more than partitions, ending at the payload length
	payload  *xbits.Vector
}

func columnsOf(p *Partitioned) pefColumns {
	uppers, offs, kinds := p.columns()
	return pefColumns{n: p.n, universe: p.universe, partLog: p.partLog, uppers: uppers, kinds: kinds, offs: append(offs, uint64(p.payload.Len())), payload: p.payload}
}

// encode writes the columns as Encode does. With raw, the upper bounds
// are written with all bits low (l = 63), a layout that
// decodes any sequence, so a test can encode decreasing ones.
func (c pefColumns) encode(t *testing.T, raw bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	writeEF := func(vals []uint64) {
		if !raw {
			New(vals).Encode(w)
			return
		}
		low, high := &xbits.Vector{}, xbits.NewVector(len(vals)+1)
		for i, v := range vals {
			low.AppendBits(v, 63)
			high.SetBit(i)
		}
		w.Uvarint(uint64(len(vals)))
		w.Uvarint(1 << 62)
		w.Byte(63)
		low.Encode(w)
		high.Encode(w)
	}
	w.Uvarint(uint64(c.n))
	w.Uvarint(c.universe)
	w.Byte(byte(c.partLog))
	writeEF(c.uppers)
	w.Bytes(c.kinds)
	xbits.NewCompact(c.offs).Encode(w)
	c.payload.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodePEF(data []byte) (*Partitioned, error) {
	return DecodePartitioned(codec.NewReader(bytes.NewReader(data)))
}

// refPart is the select-based partition lookup that the decoded directory
// replaced, kept as the reference: base and upper bound by a select on
// the Elias-Fano upper bounds, and the packed offset.
func refPart(upper *Sequence, offsets *xbits.CompactVector, kinds []byte, payload *xbits.Vector, partLog uint, n, k int) partition {
	var base, ub uint64
	if k > 0 {
		base, ub = upper.AccessPair(k - 1)
	} else {
		ub = upper.Access(0)
	}
	start := k << partLog
	end := min(start+1<<partLog, n)
	pt := partition{base: base, upper: ub, off: int(offsets.At(k)), start: start, end: end, kind: kinds[k]}
	if pt.kind == kindEF {
		pt.l = uint8(payload.Get(pt.off, 6))
	}
	return pt
}

// TestDirectoryMatchesSelectReference compares every directory entry, as
// built and as decoded, with the select-based lookup over the encoded
// columns; and checks that the re-derived encoding is byte-identical.
func TestDirectoryMatchesSelectReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inputs := map[string]monotone{
		"clustered":  clusteredMonotone(rng, 20000),
		"dense":      randomMonotone(rng, 5000, 2),
		"sparse":     randomMonotone(rng, 3000, 1<<22),
		"duplicates": randomMonotone(rng, 3000, 1),
		"single":     {42},
	}
	for name, vals := range inputs {
		var built []*Partitioned
		for _, partLog := range []uint{2, 5, DefaultPartLog} {
			built = append(built, NewPartitionedLog(vals, partLog))
		}
		for _, p := range built {
			c := columnsOf(p)
			data := c.encode(t, false)
			got, err := decodePEF(data)
			if err != nil {
				t.Fatalf("%s/%d: decode: %v", name, p.partLog, err)
			}
			// Parse the encoded columns the way the select-based lookup used
			// them.
			r := codec.NewReader(bytes.NewReader(data))
			r.Uvarint()
			r.Uvarint()
			r.Byte()
			upper, err := Decode(r)
			if err != nil {
				t.Fatal(err)
			}
			kinds := r.BytesBuf()
			offsets, err := xbits.DecodeCompact(r)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.dir) != len(kinds) || len(got.dir) != len(kinds) {
				t.Fatalf("%s/%d: %d built and %d decoded partitions, %d encoded", name, p.partLog, len(p.dir), len(got.dir), len(kinds))
			}
			for k := range kinds {
				want := refPart(upper, offsets, kinds, p.payload, p.partLog, p.n, k)
				if p.part(k) != want || got.part(k) != want {
					t.Fatalf("%s/%d: partition %d built %+v decoded %+v, reference %+v", name, p.partLog, k, p.part(k), got.part(k), want)
				}
			}
			if got.SizeBits() != p.SizeBits() {
				t.Errorf("%s/%d: decoded SizeBits %d, built %d", name, p.partLog, got.SizeBits(), p.SizeBits())
			}
			var re bytes.Buffer
			w := codec.NewWriter(&re)
			got.Encode(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), data) {
				t.Errorf("%s/%d: re-encoding differs from the original", name, p.partLog)
			}
		}
	}
}

// testDecodeCorruptDirectory feeds crafted directories to the decoder:
// each must be refused as codec.ErrCorrupt at decode, never accepted to
// panic or answer wrongly on a later read.
func testDecodeCorruptDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	vals := clusteredMonotone(rng, 6000)
	p := NewPartitioned(vals)
	firstOf := func(kind byte) int {
		for k := range p.dir {
			if p.dir[k].kind() == kind {
				return k
			}
		}
		t.Fatalf("no partition of kind %d", kind)
		return -1
	}
	// flipRegionBit returns a payload copy with the first bit of partition
	// k's region inverted.
	flipRegionBit := func(k int) *xbits.Vector {
		v := &xbits.Vector{}
		for i := 0; i < p.payload.Len(); i++ {
			v.AppendBit(p.payload.Bit(i))
		}
		pt := p.part(k)
		off, _ := pt.region()
		w := v.Words()
		w[off>>6] ^= 1 << (uint(off) & 63)
		return v
	}
	ef, bm := firstOf(kindEF), firstOf(kindBitmap)
	last := len(p.dir) - 1
	for name, mutate := range map[string]func(c *pefColumns){
		"offset past payload": func(c *pefColumns) { c.offs[1] = uint64(p.payload.Len()) + 64 },
		"kind 7":              func(c *pefColumns) { c.kinds[2] = 7 },
		"offsets decrease":    func(c *pefColumns) { c.offs[ef], c.offs[ef+1] = c.offs[ef+1], c.offs[ef] },
		"uppers decrease":     func(c *pefColumns) { c.uppers[last] = c.uppers[last-1] - 1; c.universe = c.uppers[last] },
		"upper past universe": func(c *pefColumns) { c.universe-- },
		"run kind on EF":      func(c *pefColumns) { c.kinds[ef] = kindAllOnes },
		"bitmap kind on EF":   func(c *pefColumns) { c.kinds[ef] = kindBitmap },
		"EF kind on bitmap":   func(c *pefColumns) { c.kinds[bm] = kindEF },
		"EF missing a value":  func(c *pefColumns) { c.payload = flipRegionBit(ef) },
		"bitmap extra value":  func(c *pefColumns) { c.payload = flipRegionBit(bm) },
		"EF upper off by one": func(c *pefColumns) { c.uppers[ef]-- },
		"n past the values":   func(c *pefColumns) { c.n++ },
	} {
		c := columnsOf(p)
		c.uppers = append([]uint64(nil), c.uppers...)
		c.kinds = append([]byte(nil), c.kinds...)
		c.offs = append([]uint64(nil), c.offs...)
		mutate(&c)
		if _, err := decodePEF(c.encode(t, true)); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: decode error %v, want ErrCorrupt", name, err)
		}
	}
}

// TestIndexSelectMatchesScan checks random access, pair access and
// cursor resets through the select directory against the scanning
// select at every position: runs, Elias-Fano partitions, and bitmaps
// whose regions run past the 14 words the directory counts, at every
// partition size it serves and one it does not.
func TestIndexSelectMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var vals []uint64
	var v uint64
	for block := 0; block < 60; block++ {
		n := 1 + rng.Intn(600)
		for i := 0; i < n; i++ {
			switch block % 4 {
			case 0: // run
				v++
			case 1: // sparse: Elias-Fano
				v += 1 + uint64(rng.Intn(5000))
			case 2: // dense: bitmap about half full
				v += 1 + uint64(rng.Intn(3))
			default: // bitmap far longer than 14 words
				v += 1 + uint64(rng.Intn(12))
			}
			vals = append(vals, v)
		}
	}
	for _, partLog := range []uint{2, 5, DefaultPartLog, 9} {
		plain := NewPartitionedLog(vals, partLog)
		p := NewPartitionedLog(vals, partLog)
		p.IndexSelect()
		if (p.sel != nil) != (partLog <= 8) {
			t.Fatalf("partLog %d: directory built %v", partLog, p.sel != nil)
		}
		it, ref := p.MakeIterator(0), plain.MakeIterator(0)
		for i, want := range vals {
			if got := p.Access(i); got != want {
				t.Fatalf("partLog %d: Access(%d) = %d, want %d", partLog, i, got, want)
			}
			if i+1 < len(vals) {
				for _, q := range []*Partitioned{p, plain} {
					if v1, v2 := q.AccessPair(i); v1 != want || v2 != vals[i+1] {
						t.Fatalf("partLog %d, directory %v: AccessPair(%d) = %d, %d; want %d, %d", partLog, q.sel != nil, i, v1, v2, want, vals[i+1])
					}
				}
			}
			it.Reset(i)
			ref.Reset(i)
			for k := 0; k < 3; k++ {
				got, ok := it.Next()
				w, wok := ref.Next()
				if got != w || ok != wok {
					t.Fatalf("partLog %d: Reset(%d)+%d Next = %d, %v; want %d, %v", partLog, i, k+1, got, ok, w, wok)
				}
			}
		}
	}
}
