package dict

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"rdfindexes/internal/codec"
)

// Check walks every sample, coded head and entry of both runs and
// reports the first ID whose coding the access paths could not trust: a
// sample or bucket that does not start where the one before it ends, a
// length, middle or escape running past the data, a drop past the
// previous string's length, a tail past the sample's, a string that
// does not sort strictly after the one before it in its run — for a
// coded string, at its stored LCP, which the scans take to be the exact
// one — or a second-run string that the first run holds too; in a
// numeric section, a value not larger than the one before it or past
// the sequence's universe; and in a dictionary with sections, a string
// of either run that is a canonical numeric literal, which Locate would
// look for in a section only.
// Decode checks only what locates the runs, samples, buckets and
// sections, in constant time; a dictionary that passes Check extracts
// every ID, and locates every extracted string, without a panic. Check
// itself never panics, whatever the bytes.
func (d *Dict) Check() error {
	if err := d.runs[0].check(0); err != nil {
		return err
	}
	if err := d.runs[1].check(d.k); err != nil {
		return err
	}
	for i := range d.secs {
		if err := d.secs[i].check(); err != nil {
			return err
		}
	}
	// Both runs are sorted, so one merge walk finds a string in both.
	a, b := NewExtractor(d), NewExtractor(d)
	for i, j := 0, d.k; i < d.k && j < d.m; {
		x, _ := a.Extract(i)
		y, _ := b.Extract(j)
		switch c := bytes.Compare(x, y); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			return fmt.Errorf("%w: dict ID %d: repeats ID %d of the first run", codec.ErrCorrupt, j, i)
		}
	}
	if len(d.secs) == 0 {
		return nil
	}
	for id := 0; id < d.m; id++ {
		t, _ := a.Extract(id)
		if dt, scale, _, ok := parseNumeric(t); ok {
			return fmt.Errorf("%w: dict ID %d: a string of %v at scale %d beside the numeric sections", codec.ErrCorrupt, id, dt, scale)
		}
	}
	return nil
}

// check walks the section's values: each must be larger than the one
// before it and within the sequence's universe, which Decode bounds so
// that every value fits an int64.
func (s *Section) check() error {
	it := s.Values.MakeIterator(0)
	var prev uint64
	for i := 0; i < s.Len(); i++ {
		v, _ := it.Next()
		if v > s.Values.Universe() || i > 0 && v <= prev {
			return fmt.Errorf("%w: dict ID %d: value %d of the %v section does not follow %d within %d",
				codec.ErrCorrupt, s.Base+i, v, s.Datatype, prev, s.Values.Universe())
		}
		prev = v
	}
	return nil
}

// check is Check over one run, whose IDs start at base.
func (r *run) check(base int) error {
	var prev, cur, src []byte // the string before, the current one, the group's sample
	spos, pos := 0, 0         // the offsets in samples and data reached
	for id := 0; id < r.n; id++ {
		k, j := r.bucket(id)
		var err error
		switch {
		case j > 0:
			cur, pos, err = step(r.data, pos, prev, src, cur[:0])
		case r.offset(k) != pos:
			err = fmt.Errorf("bucket %d starts at byte %d, not at %d where the one before ends", k, r.offset(k), pos)
		case k%groupBuckets != 0:
			cur, pos, err = step(r.data, pos, src, src, cur[:0])
		case int(binary.LittleEndian.Uint32(r.sampleAt[k/groupBuckets*4:])) != spos:
			err = fmt.Errorf("sample %d does not start at byte %d where the one before ends", k/groupBuckets, spos)
		default:
			src, spos, err = verbatim(r.samples, spos)
			cur = append(cur[:0], src...)
		}
		if err == nil && j == 0 && id > 0 && bytes.Compare(prev, cur) >= 0 {
			err = errOrder
		}
		if err != nil {
			return fmt.Errorf("%w: dict ID %d: %v", codec.ErrCorrupt, base+id, err)
		}
		prev, cur = cur, prev
	}
	if spos != len(r.samples) || pos != len(r.data) {
		return fmt.Errorf("%w: dict has %d bytes past the last string of a run", codec.ErrCorrupt, len(r.samples)-spos+len(r.data)-pos)
	}
	return nil
}

var errOrder = errors.New("does not sort after the string before it")

// verbatim reads the sample at pos.
func verbatim(data []byte, pos int) ([]byte, int, error) {
	l, n := binary.Uvarint(data[pos:])
	if n <= 0 || l > uint64(len(data)-pos-n) {
		return nil, pos, errors.New("sample runs past the data")
	}
	pos += n
	return data[pos : pos+int(l)], pos + int(l), nil
}

// step decodes the string coded at pos against base, with its tail
// from src, into out, and checks it as Check describes.
func step(data []byte, pos int, base, src, out []byte) ([]byte, int, error) {
	if pos == len(data) {
		return out, pos, errors.New("header past the data")
	}
	drop, mid, tail, pos := entry(data, pos)
	if tail == escape {
		for _, v := range []*uint64{&drop, &mid, &tail} {
			x, n := binary.Uvarint(data[pos:])
			if n <= 0 {
				return out, pos, errors.New("escaped lengths run past the data")
			}
			*v, pos = x, pos+n
		}
	}
	switch {
	case drop > uint64(len(base)):
		return out, pos, fmt.Errorf("drops %d bytes of the %d before it", drop, len(base))
	case tail > uint64(len(src)):
		return out, pos, fmt.Errorf("tail of %d bytes, sample of %d", tail, len(src))
	case mid > uint64(len(data)-pos):
		return out, pos, fmt.Errorf("middle of %d bytes runs past the data", mid)
	}
	lcp := len(base) - int(drop)
	out = append(out, base[:lcp]...)
	out = append(out, data[pos:pos+int(mid)]...)
	out = append(out, src[len(src)-int(tail):]...)
	if lcp == len(out) || lcp < len(base) && out[lcp] <= base[lcp] {
		return out, pos, errOrder
	}
	return out, pos + int(mid), nil
}
