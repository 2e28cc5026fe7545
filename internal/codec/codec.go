// Package codec implements the little-endian binary format shared by all
// serializable structures in this repository.
//
// Writers and readers are error-sticky: after the first failure every
// subsequent call is a no-op, so call sites can chain field writes and check
// the error once at the end. All integers are little-endian; slices are
// length-prefixed with an unsigned varint. Word arrays are 8-byte aligned:
// Writer.Uint64s pads with zero bytes after the length prefix so the
// payload starts at a multiple of 8 from the writer's start, which lets a
// Reader over aligned memory return them as views instead of copies.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// ErrCorrupt reports a malformed or truncated stream.
var ErrCorrupt = errors.New("codec: corrupt stream")

// Castagnoli is the CRC32C polynomial table shared by every checksummed
// format in this repository (hardware-accelerated on amd64/arm64).
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// HostLittleEndian reports whether this host stores words little-endian,
// the byte order of the format: only then can a word array be read in
// place.
var HostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Writer serializes primitive values to an underlying io.Writer, or,
// for Size, only counts them.
type Writer struct {
	w   *bufio.Writer // nil: the writer only counts (Size)
	n   int64
	crc uint32
	sum bool // tee written bytes into crc
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Written returns the number of bytes written so far.
func (w *Writer) Written() int64 { return w.n }

// Flush flushes buffered output and returns the first error encountered.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

func (w *Writer) write(p []byte) {
	if w.w == nil {
		w.n += int64(len(p))
		return
	}
	if w.err != nil {
		return
	}
	if w.sum {
		w.crc = crc32.Update(w.crc, Castagnoli, p)
	}
	n, err := w.w.Write(p)
	w.n += int64(n)
	w.err = err
}

// StartChecksum begins teeing every subsequently written byte into a
// CRC32C accumulator. Checksummed container formats bracket each section
// with StartChecksum/StopChecksum, so the hash covers exactly the
// section's logical bytes at O(1) extra memory.
func (w *Writer) StartChecksum() {
	w.crc = 0
	w.sum = true
}

// StopChecksum ends the checksummed span and returns its CRC32C. The
// checksum field itself is written after the call, so it is never
// self-referential.
func (w *Writer) StopChecksum() uint32 {
	w.sum = false
	return w.crc
}

// PadLen returns the number of zero bytes that follow offset off to reach
// the next multiple of 8.
func PadLen(off int64) int { return int(-off & 7) }

// Pad writes zero bytes up to the next multiple of 8 from the writer's
// start.
func (w *Writer) Pad() {
	var zero [7]byte
	w.write(zero[:PadLen(w.n)])
}

// Uint64 writes v as 8 little-endian bytes.
func (w *Writer) Uint64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.write(b[:])
}

// Uint32 writes v as 4 little-endian bytes.
func (w *Writer) Uint32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.write(b[:])
}

// Byte writes a single byte.
func (w *Writer) Byte(v byte) {
	w.write([]byte{v})
}

// Uvarint writes v using variable-length encoding.
func (w *Writer) Uvarint(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.write(w.buf[:n])
}

// Uint64s writes a length-prefixed slice of raw little-endian words,
// padded so the words start at a multiple of 8 from the writer's start.
func (w *Writer) Uint64s(s []uint64) {
	w.Uvarint(uint64(len(s)))
	w.Pad()
	if w.w == nil {
		w.n += 8 * int64(len(s))
		return
	}
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], v)
		w.write(b[:])
	}
}

// Size returns the number of bytes enc writes to a Writer that starts at
// offset 0, without writing them: the footprint of a structure as its
// encoder stores it, the pads before its word arrays included. It
// counts a word array without reading it, so it costs what enc does
// besides writing words.
func Size(enc func(*Writer)) int64 {
	var w Writer
	enc(&w)
	return w.Written()
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.write(p)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.write([]byte(s))
}

// Reader decodes values written by Writer from one byte slice. Every
// length prefix is checked against the bytes left, so a corrupt prefix
// fails at once instead of demanding a huge allocation.
//
// Word arrays and byte slices are returned as views into the input, not
// copies (a word array is copied only when its payload is not 8-byte
// aligned in memory or the host is big-endian). The input must therefore
// stay valid and unchanged for as long as anything decoded from it is
// used.
type Reader struct {
	buf   []byte
	off   int
	owner any
	err   error
}

// NewBytesReader returns a Reader over b. owner is whatever keeps b
// valid, such as a file mapping; decoders that keep views into b store it
// (see Owner) so that the memory outlives them. Pass nil when b is
// ordinary garbage-collected memory, which the views keep alive by
// themselves.
func NewBytesReader(b []byte, owner any) *Reader {
	return &Reader{buf: b, owner: owner}
}

// NewReader reads r to the end into an 8-byte-aligned buffer and returns
// a Reader over it; a read error fails the Reader with ErrCorrupt.
func NewReader(r io.Reader) *Reader {
	b, err := ReadAligned(r)
	if err != nil {
		return &Reader{err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
	}
	return &Reader{buf: b}
}

// ReadAligned reads r to the end into a buffer whose first byte is 8-byte
// aligned, so that word arrays serialized from offset 0 decode as views.
func ReadAligned(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	words := make([]uint64, (len(data)+7)/8)
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(data))
	copy(b, data)
	return b, nil
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

// Owner returns the value that keeps the input alive, as passed to
// NewBytesReader (nil for garbage-collected input).
func (r *Reader) Owner() any { return r.owner }

// take consumes the next n bytes and returns them capacity-clipped, so an
// append to the result can never write into the input; nil once the
// reader has failed.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("%w: %d bytes wanted at offset %d, %d left", ErrCorrupt, n, r.off, len(r.buf)-r.off)
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Uint32 reads 4 little-endian bytes.
func (r *Reader) Uint32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Uvarint reads a variable-length unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("%w: bad uvarint at offset %d", ErrCorrupt, r.off)
		return 0
	}
	r.off += n
	return v
}

// Pad skips the zero bytes Writer.Pad wrote to reach the next multiple of
// 8, failing on any non-zero one.
func (r *Reader) Pad() {
	for _, b := range r.take(PadLen(int64(r.off))) {
		if b != 0 {
			r.err = fmt.Errorf("%w: non-zero pad byte before offset %d", ErrCorrupt, r.off)
			return
		}
	}
}

// sliceLen reads the length prefix of a slice of size-byte elements and
// checks that the payload fits in the bytes left.
func (r *Reader) sliceLen(size int) int {
	n := r.Uvarint()
	if left := uint64(len(r.buf) - r.off); r.err == nil && n > left/uint64(size) {
		r.err = fmt.Errorf("%w: slice length %d exceeds the %d bytes left", ErrCorrupt, n, left)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Uint64s reads a length-prefixed, padded slice of little-endian words:
// a view into the input when the payload is 8-byte aligned in memory on a
// little-endian host, otherwise a decoded copy.
func (r *Reader) Uint64s() []uint64 {
	n := r.sliceLen(8)
	r.Pad()
	p := r.take(8 * n)
	if r.err != nil || n == 0 {
		return nil
	}
	ptr := unsafe.Pointer(unsafe.SliceData(p))
	if HostLittleEndian && uintptr(ptr)%8 == 0 {
		return unsafe.Slice((*uint64)(ptr), n)
	}
	s := make([]uint64, n)
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return s
}

// BytesBuf reads a length-prefixed byte slice, returned as a
// capacity-clipped view into the input.
func (r *Reader) BytesBuf() []byte {
	p := r.take(r.sliceLen(1))
	if len(p) == 0 {
		return nil
	}
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	return string(r.BytesBuf())
}

// Fail records err (if the reader has not already failed) and returns it.
func (r *Reader) Fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}
