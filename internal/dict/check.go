package dict

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"rdfindexes/internal/codec"
)

// Check walks every sample, coded head and entry and reports the first
// ID whose coding the access paths could not trust: a sample or bucket
// that does not start where the one before it ends, a length, middle or
// escape running past the data, a drop past the previous string's
// length, a tail past the sample's, or a string that does not sort
// strictly after the one before it — for a coded string, at its stored
// LCP, which the scans take to be the exact one. Decode checks only
// what locates the samples and buckets, in constant time; a dictionary
// that passes Check extracts every ID, and locates every extracted
// string, without a panic. Check itself never panics, whatever the
// bytes.
func (d *Dict) Check() error {
	var prev, cur, src []byte // the string before, the current one, the group's sample
	spos, pos := 0, 0         // the offsets in samples and data reached
	for id := 0; id < d.n; id++ {
		k, j := d.bucket(id)
		var err error
		switch {
		case j > 0:
			cur, pos, err = step(d.data, pos, prev, src, cur[:0])
		case d.offset(k) != pos:
			err = fmt.Errorf("bucket %d starts at byte %d, not at %d where the one before ends", k, d.offset(k), pos)
		case k%groupBuckets != 0:
			cur, pos, err = step(d.data, pos, src, src, cur[:0])
		case int(binary.LittleEndian.Uint32(d.sampleAt[k/groupBuckets*4:])) != spos:
			err = fmt.Errorf("sample %d does not start at byte %d where the one before ends", k/groupBuckets, spos)
		default:
			src, spos, err = verbatim(d.samples, spos)
			cur = append(cur[:0], src...)
		}
		if err == nil && j == 0 && id > 0 && bytes.Compare(prev, cur) >= 0 {
			err = errOrder
		}
		if err != nil {
			return fmt.Errorf("%w: dict ID %d: %v", codec.ErrCorrupt, id, err)
		}
		prev, cur = cur, prev
	}
	if spos != len(d.samples) || pos != len(d.data) {
		return fmt.Errorf("%w: dict has %d bytes past its last string", codec.ErrCorrupt, len(d.samples)-spos+len(d.data)-pos)
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
