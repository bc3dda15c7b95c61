package serialization

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.Uvarint(300)
	w.Varint(-12345)
	w.F64(math.Pi)
	w.C128(complex(13.3, -23.8))

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.C128(); got != complex(13.3, -23.8) {
		t.Errorf("C128 = %v", got)
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestRoundTripStringsAndBytes(t *testing.T) {
	w := NewWriter(0)
	w.String("hello parcel")
	w.String("")
	w.BytesField([]byte{1, 2, 3})
	w.BytesField(nil)
	w.RawBytes([]byte{9, 9})

	r := NewReader(w.Bytes())
	if got := r.String(); got != "hello parcel" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := r.BytesField(); len(got) != 3 || got[0] != 1 {
		t.Errorf("BytesField = %v", got)
	}
	if got := r.BytesField(); len(got) != 0 {
		t.Errorf("empty BytesField = %v", got)
	}
	if got := r.RawBytes(2); len(got) != 2 || got[1] != 9 {
		t.Errorf("RawBytes = %v", got)
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
}

func TestBytesFieldDoesNotAlias(t *testing.T) {
	w := NewWriter(0)
	w.BytesField([]byte{7, 8, 9})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.BytesField()
	buf[1] = 0xFF // corrupt source after decode
	if got[0] != 7 {
		t.Error("decoded bytes alias the source buffer")
	}
}

func TestRoundTripSlices(t *testing.T) {
	cs := []complex128{complex(1, 2), complex(-3, 4), 0}
	fs := []float64{1.5, -2.5, math.Inf(1)}
	w := NewWriter(0)
	w.C128Slice(cs)
	w.F64Slice(fs)
	w.C128Slice(nil)

	r := NewReader(w.Bytes())
	gotC := r.C128Slice()
	if len(gotC) != len(cs) {
		t.Fatalf("C128Slice len = %d", len(gotC))
	}
	for i := range cs {
		if gotC[i] != cs[i] {
			t.Errorf("C128Slice[%d] = %v, want %v", i, gotC[i], cs[i])
		}
	}
	gotF := r.F64Slice()
	for i := range fs {
		if gotF[i] != fs[i] {
			t.Errorf("F64Slice[%d] = %v, want %v", i, gotF[i], fs[i])
		}
	}
	if got := r.C128Slice(); len(got) != 0 {
		t.Errorf("nil C128Slice = %v", got)
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
}

func TestShortBufferErrors(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U64()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("Err = %v, want ErrShortBuffer", r.Err())
	}
	// Sticky: subsequent reads return zero values without panicking.
	if r.U32() != 0 || r.String() != "" || r.F64() != 0 {
		t.Error("reads after error should return zero values")
	}
}

func TestUvarintTruncated(t *testing.T) {
	r := NewReader([]byte{0x80}) // continuation bit set, no next byte
	_ = r.Uvarint()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("Err = %v, want ErrShortBuffer", r.Err())
	}
}

func TestLengthPrefixTooLarge(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(uint64(MaxStringLen) + 1)
	r := NewReader(w.Bytes())
	_ = r.String()
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Errorf("Err = %v, want ErrTooLarge", r.Err())
	}

	w2 := NewWriter(0)
	w2.Uvarint(uint64(MaxSliceElems) + 1)
	r2 := NewReader(w2.Bytes())
	_ = r2.C128Slice()
	if !errors.Is(r2.Err(), ErrTooLarge) {
		t.Errorf("Err = %v, want ErrTooLarge", r2.Err())
	}
}

func TestSliceBodyTruncated(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(10) // claims 10 complex values but provides none
	r := NewReader(w.Bytes())
	if got := r.C128Slice(); got != nil {
		t.Errorf("truncated slice = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("Err = %v, want ErrShortBuffer", r.Err())
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(16)
	w.U64(42)
	w.Reset()
	if w.Len() != 0 {
		t.Errorf("Len after reset = %d", w.Len())
	}
	w.U8(7)
	r := NewReader(w.Bytes())
	if r.U8() != 7 {
		t.Error("write after reset failed")
	}
}

func TestVarintRoundTripProperty(t *testing.T) {
	f := func(u uint64, v int64) bool {
		w := NewWriter(0)
		w.Uvarint(u)
		w.Varint(v)
		r := NewReader(w.Bytes())
		return r.Uvarint() == u && r.Varint() == v && r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string, b []byte) bool {
		w := NewWriter(0)
		w.String(s)
		w.BytesField(b)
		r := NewReader(w.Bytes())
		gs := r.String()
		gb := r.BytesField()
		if gs != s || len(gb) != len(b) || r.Err() != nil {
			return false
		}
		for i := range b {
			if gb[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestC128SliceRoundTripProperty(t *testing.T) {
	f := func(res, ims []float64) bool {
		n := len(res)
		if len(ims) < n {
			n = len(ims)
		}
		cs := make([]complex128, n)
		for i := 0; i < n; i++ {
			if math.IsNaN(res[i]) || math.IsNaN(ims[i]) {
				return true // NaN != NaN; skip
			}
			cs[i] = complex(res[i], ims[i])
		}
		w := NewWriter(0)
		w.C128Slice(cs)
		r := NewReader(w.Bytes())
		got := r.C128Slice()
		if r.Err() != nil || len(got) != len(cs) {
			return false
		}
		for i := range cs {
			if got[i] != cs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNaNRoundTripPreservesBits(t *testing.T) {
	nan := math.Float64frombits(0x7FF8000000000001)
	w := NewWriter(0)
	w.F64(nan)
	r := NewReader(w.Bytes())
	got := r.F64()
	if math.Float64bits(got) != 0x7FF8000000000001 {
		t.Errorf("NaN bits = %#x", math.Float64bits(got))
	}
}

func TestTruncatedDecodeNeverPanicsProperty(t *testing.T) {
	// Property: decoding arbitrary bytes with any read sequence must not
	// panic; it either succeeds or sets a sticky error.
	f := func(data []byte, ops []uint8) bool {
		r := NewReader(data)
		for _, op := range ops {
			switch op % 10 {
			case 0:
				r.U8()
			case 1:
				r.U16()
			case 2:
				r.U32()
			case 3:
				r.U64()
			case 4:
				r.Uvarint()
			case 5:
				r.Varint()
			case 6:
				_ = r.String()
			case 7:
				r.BytesField()
			case 8:
				r.C128Slice()
			case 9:
				r.F64Slice()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
