// Package codec implements the little-endian binary format shared by all
// serializable structures in this repository.
//
// Writers and readers are error-sticky: after the first failure every
// subsequent call is a no-op, so call sites can chain field writes and check
// the error once at the end. All integers are little-endian; slices are
// length-prefixed with an unsigned varint.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorrupt reports a malformed or truncated stream.
var ErrCorrupt = errors.New("codec: corrupt stream")

// Castagnoli is the CRC32C polynomial table shared by every checksummed
// format in this repository (hardware-accelerated on amd64/arm64).
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer serializes primitive values to an underlying io.Writer.
type Writer struct {
	w   *bufio.Writer
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

// Uint64s writes a length-prefixed slice of raw little-endian words.
func (w *Writer) Uint64s(s []uint64) {
	w.Uvarint(uint64(len(s)))
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], v)
		w.write(b[:])
	}
}

// Uint32s writes a length-prefixed slice of raw little-endian 32-bit words.
func (w *Writer) Uint32s(s []uint32) {
	w.Uvarint(uint64(len(s)))
	var b [4]byte
	for _, v := range s {
		binary.LittleEndian.PutUint32(b[:], v)
		w.write(b[:])
	}
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

// Reader deserializes values written by Writer.
type Reader struct {
	r     *bufio.Reader
	n     int64
	crc   uint32
	sum   bool  // tee consumed bytes into crc
	limit int64 // alloc bound: total input size, or -1 for unbounded
	err   error
	chunk []byte // bulk word-read scratch, at most wordChunk bytes
}

// NewReader returns a Reader consuming from r. If r is already a
// *bufio.Reader it is used directly, so several sequential decoders can
// share one buffered stream without losing read-ahead bytes.
func NewReader(r io.Reader) *Reader {
	if br, ok := r.(*bufio.Reader); ok {
		return &Reader{r: br, limit: -1}
	}
	return &Reader{r: bufio.NewReader(r), limit: -1}
}

// SetAllocLimit bounds decode-time slice allocations by the total input
// size in bytes: a length-prefixed slice cannot hold more payload bytes
// than the stream has left, so a corrupt length prefix fails immediately
// instead of demanding gigabytes. Pass the file or section size; a
// negative limit restores the default static bound.
func (r *Reader) SetAllocLimit(size int64) { r.limit = size }

// StartChecksum begins teeing every subsequently consumed byte into a
// CRC32C accumulator; the mirror of Writer.StartChecksum.
func (r *Reader) StartChecksum() {
	r.crc = 0
	r.sum = true
}

// StopChecksum ends the checksummed span and returns its CRC32C. The
// stored checksum field is read after the call, outside the span.
func (r *Reader) StopChecksum() uint32 {
	r.sum = false
	return r.crc
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Read returns the number of bytes consumed so far.
func (r *Reader) Read() int64 { return r.n }

func (r *Reader) read(p []byte) {
	if r.err != nil {
		return
	}
	n, err := io.ReadFull(r.r, p)
	r.n += int64(n)
	if r.sum {
		r.crc = crc32.Update(r.crc, Castagnoli, p[:n])
	}
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
}

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	var b [8]byte
	r.read(b[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Uint32 reads 4 little-endian bytes.
func (r *Reader) Uint32() uint32 {
	var b [4]byte
	r.read(b[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	var b [1]byte
	r.read(b[:])
	return b[0]
}

// Uvarint reads a variable-length unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(countingByteReader{r})
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return 0
	}
	return v
}

type countingByteReader struct{ r *Reader }

func (c countingByteReader) ReadByte() (byte, error) {
	b, err := c.r.r.ReadByte()
	if err == nil {
		c.r.n++
		if c.r.sum {
			c.r.crc = crc32.Update(c.r.crc, Castagnoli, []byte{b})
		}
	}
	return b, err
}

// maxAlloc bounds a single slice allocation while decoding, protecting
// against corrupt length prefixes.
const maxAlloc = 1 << 33

func (r *Reader) sliceLen(elemSize uint64) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n*elemSize > maxAlloc || n > maxAlloc {
		r.err = fmt.Errorf("%w: slice length %d too large", ErrCorrupt, n)
		return 0
	}
	// A slice's payload cannot exceed the bytes the input has left: with
	// the input size known, a corrupt length prefix is rejected before
	// the allocation instead of after an OOM-sized make.
	if r.limit >= 0 && int64(n*elemSize) > r.limit-r.n {
		r.err = fmt.Errorf("%w: slice length %d (%d bytes) exceeds remaining input (%d bytes)",
			ErrCorrupt, n, n*elemSize, r.limit-r.n)
		return 0
	}
	return int(n)
}

// wordChunk bounds the scratch buffer word arrays are read through:
// one read per chunk instead of one per word, without a second copy of
// the whole array.
const wordChunk = 8 << 10

// words reads the next min(n, wordChunk/size) words of size bytes into
// the scratch buffer and returns them, or nil once the reader has failed.
func (r *Reader) words(n, size int) []byte {
	k := min(n*size, wordChunk)
	if cap(r.chunk) < k {
		r.chunk = make([]byte, k)
	}
	b := r.chunk[:k]
	r.read(b)
	if r.err != nil {
		return nil
	}
	return b
}

// Uint64s reads a length-prefixed slice of raw little-endian words.
func (r *Reader) Uint64s() []uint64 {
	n := r.sliceLen(8)
	if r.err != nil || n == 0 {
		return nil
	}
	s := make([]uint64, n)
	for i := 0; i < n; {
		b := r.words(n-i, 8)
		if b == nil {
			return nil
		}
		for ; len(b) > 0; b = b[8:] {
			s[i] = binary.LittleEndian.Uint64(b)
			i++
		}
	}
	return s
}

// Uint32s reads a length-prefixed slice of raw little-endian 32-bit words.
func (r *Reader) Uint32s() []uint32 {
	n := r.sliceLen(4)
	if r.err != nil || n == 0 {
		return nil
	}
	s := make([]uint32, n)
	for i := 0; i < n; {
		b := r.words(n-i, 4)
		if b == nil {
			return nil
		}
		for ; len(b) > 0; b = b[4:] {
			s[i] = binary.LittleEndian.Uint32(b)
			i++
		}
	}
	return s
}

// BytesBuf reads a length-prefixed byte slice.
func (r *Reader) BytesBuf() []byte {
	n := r.sliceLen(1)
	if r.err != nil || n == 0 {
		return nil
	}
	p := make([]byte, n)
	r.read(p)
	if r.err != nil {
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
