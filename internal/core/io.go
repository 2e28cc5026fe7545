package core

import (
	"fmt"
	"io"

	"rdfindexes/internal/codec"
)

// indexMagic identifies serialized index files; the trailing digit is the
// format version.
const indexMagic = "RDFIDX1"

// WriteIndex serializes any static index layout to w with a versioned
// header. Dynamic serving snapshots are views, not storage: merge the
// log and serialize the base index instead.
func WriteIndex(w io.Writer, x Index) error {
	if _, ok := x.(*DynamicSnapshot); ok {
		return fmt.Errorf("core: a DynamicSnapshot is not serializable; merge and write the base index")
	}
	enc, ok := x.(encoder)
	if !ok {
		return fmt.Errorf("core: index %T has no single-index serialization", x)
	}
	cw := codec.NewWriter(w)
	cw.String(indexMagic)
	cw.Byte(byte(x.Layout()))
	enc.encode(cw)
	return cw.Flush()
}

// ReadIndex deserializes an index written by WriteIndex, reading r to
// the end. A decoder panic on adversarial input is converted into an
// ErrCorrupt error instead of taking down the process.
func ReadIndex(r io.Reader) (x Index, err error) {
	defer func() {
		if p := recover(); p != nil {
			x, err = nil, fmt.Errorf("%w: decoder panic: %v", codec.ErrCorrupt, p)
		}
	}()
	return DecodeIndex(codec.NewReader(r))
}

// DecodeIndex decodes an index written by WriteIndex from r, dispatching
// on the stored layout. The index's word arrays are views into r's input
// wherever they are aligned (see codec.Reader).
func DecodeIndex(r *codec.Reader) (Index, error) {
	magic := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("%w: bad magic %q", codec.ErrCorrupt, magic)
	}
	layout := Layout(r.Byte())
	if int(layout) >= len(specs) {
		return nil, fmt.Errorf("%w: unknown layout %d", codec.ErrCorrupt, layout)
	}
	x, err := decodeStatic(r, layout)
	if err != nil {
		return nil, err // not x: a typed nil pointer would make a non-nil Index
	}
	return x, nil
}

// datasetMagic identifies serialized dataset files.
const datasetMagic = "RDFDAT1"

// WriteDataset serializes a dataset to w.
func WriteDataset(w io.Writer, d *Dataset) error {
	cw := codec.NewWriter(w)
	cw.String(datasetMagic)
	cw.Uvarint(uint64(d.NS))
	cw.Uvarint(uint64(d.NP))
	cw.Uvarint(uint64(d.NO))
	cw.Uvarint(uint64(len(d.Triples)))
	// Delta-encode the sorted triples for a compact on-disk form.
	var prev Triple
	for _, t := range d.Triples {
		if t.S != prev.S {
			cw.Uvarint(uint64(t.S-prev.S)<<1 | 1)
			cw.Uvarint(uint64(t.P))
		} else if t.P != prev.P {
			cw.Uvarint(0 << 1)
			cw.Uvarint(uint64(t.P - prev.P))
		} else {
			cw.Uvarint(0)
			cw.Uvarint(0)
		}
		cw.Uvarint(uint64(t.O))
		prev = t
	}
	return cw.Flush()
}

// ReadDataset deserializes a dataset written by WriteDataset.
func ReadDataset(r io.Reader) (*Dataset, error) {
	cr := codec.NewReader(r)
	if magic := cr.String(); magic != datasetMagic {
		if err := cr.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: bad dataset magic", codec.ErrCorrupt)
	}
	d := &Dataset{}
	d.NS = int(cr.Uvarint())
	d.NP = int(cr.Uvarint())
	d.NO = int(cr.Uvarint())
	n := int(cr.Uvarint())
	if err := cr.Err(); err != nil {
		return nil, err
	}
	d.Triples = make([]Triple, 0, n)
	var prev Triple
	for i := 0; i < n; i++ {
		sTag := cr.Uvarint()
		p := cr.Uvarint()
		o := cr.Uvarint()
		if err := cr.Err(); err != nil {
			return nil, err
		}
		t := prev
		if sTag&1 == 1 {
			t.S = prev.S + ID(sTag>>1)
			t.P = ID(p)
		} else {
			t.P = prev.P + ID(p)
		}
		t.O = ID(o)
		d.Triples = append(d.Triples, t)
		prev = t
	}
	return d, nil
}
