// Package serialization implements the archive-style binary encoder and
// decoder used by the parcel subsystem.
//
// In HPX, transmitting a parcel requires a serialization step that turns
// the destination address, action, arguments and continuations into a byte
// stream, and a deserialization step on the receiving side that
// reconstructs the parcel; these steps are a major component of the
// per-message overhead that coalescing amortises. This package provides
// the same facility: a compact, deterministic, stdlib-only wire format
// with explicit error handling, used for both individual parcels and
// coalesced parcel bundles.
//
// The format is little-endian. Variable-length integers use the
// encoding/binary varint scheme. Strings and byte slices are length-
// prefixed with an unsigned varint.
package serialization

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Limits protecting the decoder from corrupt or hostile length prefixes.
const (
	// MaxStringLen bounds decoded string and byte-slice lengths.
	MaxStringLen = 64 << 20
	// MaxSliceElems bounds decoded element counts for typed slices.
	MaxSliceElems = 16 << 20
)

// Errors returned by the Reader. All are wrapped with positional context;
// use errors.Is for classification.
var (
	ErrShortBuffer = errors.New("serialization: buffer too short")
	ErrOverflow    = errors.New("serialization: varint overflows target type")
	ErrTooLarge    = errors.New("serialization: length prefix exceeds limit")
)

// Writer builds a byte stream. The zero value is ready for use. Writer
// methods never fail; memory growth is the only failure mode (panic on
// OOM, as with any Go slice append).
type Writer struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer with the given initial capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated encoding. The returned slice aliases the
// writer's internal buffer and is invalidated by further writes or Reset.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset discards the accumulated encoding, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 appends a single byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a fixed-width little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}

// Varint appends a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// C128 appends a complex128 as two float64s (real, imaginary).
func (w *Writer) C128(v complex128) {
	w.F64(real(v))
	w.F64(imag(v))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// RawBytes appends b with no length prefix; the reader must know the size.
func (w *Writer) RawBytes(b []byte) { w.buf = append(w.buf, b...) }

// C128Slice appends a length-prefixed slice of complex128 values — the
// payload type of both the toy application (a single complex double per
// parcel) and the Parquet rotation phase (Nc complex doubles per parcel).
func (w *Writer) C128Slice(vs []complex128) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.C128(v)
	}
}

// F64Slice appends a length-prefixed slice of float64 values.
func (w *Writer) F64Slice(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// Reader decodes a byte stream produced by Writer. Errors are sticky: the
// first failure poisons the reader, subsequent reads return zero values,
// and Err reports the original failure. This mirrors the archive pattern
// where a parcel decode is validated once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(err error, what string) {
	if r.err == nil {
		r.err = fmt.Errorf("serialization: reading %s at offset %d: %w", what, r.off, err)
	}
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail(ErrShortBuffer, what)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads a single byte.
func (r *Reader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a fixed-width little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2, "u16")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrShortBuffer, "uvarint")
		} else {
			r.fail(ErrOverflow, "uvarint")
		}
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrShortBuffer, "varint")
		} else {
			r.fail(ErrOverflow, "varint")
		}
		return 0
	}
	r.off += n
	return v
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// C128 reads a complex128.
func (r *Reader) C128() complex128 {
	re := r.F64()
	im := r.F64()
	return complex(re, im)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > MaxStringLen {
		r.fail(ErrTooLarge, "string")
		return ""
	}
	b := r.take(int(n), "string body")
	if b == nil {
		return ""
	}
	return string(b)
}

// BytesField reads a length-prefixed byte slice. The result is a copy and
// does not alias the reader's buffer.
func (r *Reader) BytesField() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxStringLen {
		r.fail(ErrTooLarge, "bytes")
		return nil
	}
	b := r.take(int(n), "bytes body")
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// BorrowBytesField reads a length-prefixed byte slice like BytesField but
// returns a sub-slice of the reader's buffer instead of a copy. The result
// aliases the underlying buffer and is valid only as long as the buffer
// is; the parcel subsystem's borrowing decode uses it to build parcels
// whose fields point into the pooled wire payload.
func (r *Reader) BorrowBytesField() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxStringLen {
		r.fail(ErrTooLarge, "bytes")
		return nil
	}
	return r.take(int(n), "bytes body")
}

// RawBytes reads exactly n bytes without a length prefix, returning a
// sub-slice of the reader's buffer (no copy).
func (r *Reader) RawBytes(n int) []byte { return r.take(n, "raw bytes") }

// C128Slice reads a length-prefixed slice of complex128 values.
func (r *Reader) C128Slice() []complex128 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxSliceElems {
		r.fail(ErrTooLarge, "complex slice")
		return nil
	}
	out := make([]complex128, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.C128())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// F64Slice reads a length-prefixed slice of float64 values.
func (r *Reader) F64Slice() []float64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxSliceElems {
		r.fail(ErrTooLarge, "float slice")
		return nil
	}
	out := make([]float64, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.F64())
		if r.err != nil {
			return nil
		}
	}
	return out
}
