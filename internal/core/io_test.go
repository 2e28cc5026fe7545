package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDatasetRoundTripQuick(t *testing.T) {
	f := func(raw []uint32, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := make([]Triple, 0, len(raw))
		for _, v := range raw {
			ts = append(ts, Triple{
				S: ID(v % 97), P: ID(v / 97 % 13), O: ID(rng.Intn(1000)),
			})
		}
		d := NewDataset(ts)
		var buf bytes.Buffer
		if err := WriteDataset(&buf, d); err != nil {
			return false
		}
		got, err := ReadDataset(&buf)
		if err != nil {
			return false
		}
		if got.Len() != d.Len() || got.NS != d.NS || got.NP != d.NP || got.NO != d.NO {
			return false
		}
		for i := range d.Triples {
			if d.Triples[i] != got.Triples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadDatasetRejectsJunk(t *testing.T) {
	if _, err := ReadDataset(bytes.NewReader([]byte("garbage data here"))); err == nil {
		t.Fatal("ReadDataset accepted junk")
	}
	// Truncated stream after a valid header.
	var buf bytes.Buffer
	d := NewDataset([]Triple{{1, 2, 3}, {4, 5, 6}})
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadDataset(bytes.NewReader(half)); err == nil {
		t.Fatal("ReadDataset accepted a truncated stream")
	}
}

func TestWriteIndexDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(283))
	d := skewedDataset(rng, 1500)
	x1, err := Build(d, Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := Build(d, Layout2Tp)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := WriteIndex(&b1, x1); err != nil {
		t.Fatal(err)
	}
	if err := WriteIndex(&b2, x2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two builds over the same dataset serialized differently")
	}
}

func TestIndexBytesOnDiskMatchSizeBits(t *testing.T) {
	// SizeBits is an in-memory accounting; the serialized form must stay
	// within a reasonable factor of it (directories are rebuilt on load,
	// so the file can be smaller).
	rng := rand.New(rand.NewSource(293))
	for _, d := range testDatasets(rng, 8000) {
		for name, x := range allLayouts(t, d) {
			var buf bytes.Buffer
			if err := WriteIndex(&buf, x); err != nil {
				t.Fatal(err)
			}
			fileBits := uint64(buf.Len()) * 8
			if fileBits > x.SizeBits()*2 || x.SizeBits() > fileBits*3 {
				t.Errorf("%s: file %d bits vs SizeBits %d: accounting off", name, fileBits, x.SizeBits())
			}
		}
	}
}
