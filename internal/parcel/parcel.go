// Package parcel implements the parcel subsystem: creation, serialization
// and transport of parcels (HPX's form of active messages), and the
// per-locality parcel Port with its pluggable per-action message handlers.
//
// A parcel is created when a method — an action — is called remotely. As
// in the paper's Figure 3, a parcel carries four components: the
// destination address, the action to execute, the action's arguments, and
// an optional continuation (here, the GID of the promise that receives
// the action's result). To cross the wire a parcel is serialized to a
// byte stream and reconstructed at the receiver, where it is turned into
// a runtime task.
//
// Messages on the wire are always parcel *bundles* — a count followed by
// that many parcels — so a coalesced message containing k parcels and an
// uncoalesced message containing one parcel share a single code path,
// exactly like the plug-in structure the paper describes.
package parcel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/agas"
	"repro/internal/serialization"
)

// Parcel is one active message.
type Parcel struct {
	// Dest is the GID of the destination object; for plain remote action
	// invocation it is the destination locality's root GID.
	Dest agas.GID
	// DestLocality is the resolved hosting locality; -1 when unresolved.
	DestLocality int
	// Action names the method to execute at the destination.
	Action string
	// Args is the serialized argument pack.
	Args []byte
	// Continuation is the GID of the promise to fulfil with the action's
	// result, or agas.Invalid for fire-and-forget (apply) semantics.
	Continuation agas.GID
	// Source is the sending locality.
	Source int
	// Retries counts local redelivery attempts while the target object is
	// mid-migration; it is bookkeeping at the current hop and is not
	// serialized.
	Retries int

	// owner and borrow implement the borrowed receive path (borrow.go):
	// a parcel decoded by DecodeBundleBorrowed aliases the pooled wire
	// payload tracked by owner until Release. Both fields are zero on
	// owned (literal or copy-decoded) parcels; borrow is a plain int32
	// accessed atomically so owned parcels remain copyable by value. On a
	// parcel from Get, borrow marks it pool-owned (borrowPooled).
	owner  *payloadOwner
	borrow int32
}

// txPool recycles outbound parcels (Get). It is a sync.Pool, not a
// fixed-capacity channel like the rx pools: a parcel is taken on the
// sending goroutine and returned on the worker that encoded it, and a
// channel makes every hand-off a lock both sides take. A sizing prototype
// that shared the rx parcel channel lost 4–16 % parcels_per_s on
// stream_lossy, its profile showing runtime.lock2 up from 0.15 to 0.58 s
// and chansend from 0.37 to 0.77 s per 11 s; sync.Pool's per-P caches
// removed both. Boxing a pointer in an interface allocates nothing.
var txPool = sync.Pool{New: func() any { return new(Parcel) }}

// Get returns an empty outbound parcel from the pool, marked as
// pool-owned. The caller sets its fields one by one (assigning a whole
// Parcel value would clear the mark) and hands it to Port.Put, which
// takes it: the port recycles it once its message is encoded or
// discarded, so the caller must not touch it after a successful Put. A
// parcel Put refuses stays the caller's, who may simply drop it.
func Get() *Parcel {
	p := txPool.Get().(*Parcel)
	atomic.StoreInt32(&p.borrow, borrowPooled)
	return p
}

// recycle returns a parcel from Get to the pool once the port is done
// with it; any other parcel is left alone, so literal parcels may be
// reused across sends. Under SetBorrowDebug the parcel is poisoned and
// withheld instead, like a released rx parcel: a second recycle panics
// and a late reader sees poison, never a newer send's fields.
func recycle(p *Parcel) {
	switch atomic.LoadInt32(&p.borrow) {
	case borrowPooled:
	case borrowReleased:
		panic("parcel: outbound parcel recycled twice")
	default:
		return
	}
	if borrowDebug.Load() {
		atomic.StoreInt32(&p.borrow, borrowReleased)
		p.Dest, p.Continuation = agas.Invalid, agas.Invalid
		p.DestLocality, p.Source = -1, -1
		p.Action, p.Args = recycledAction, nil
		return
	}
	*p = Parcel{}
	txPool.Put(p)
}

// recycledAction is the Action of a recycled outbound parcel under
// SetBorrowDebug.
const recycledAction = "parcel: recycled"

// WireSize returns the approximate encoded size of p in bytes, used by
// coalescing buffers to enforce their maximum-buffer-size guard before
// paying for serialization.
func (p *Parcel) WireSize() int {
	// gid + continuation + source + action length prefix + action +
	// args length prefix + args. Varint prefixes estimated at 4 bytes.
	return 8 + 8 + 4 + 4 + len(p.Action) + 4 + len(p.Args)
}

// Forward returns a new owned parcel carrying p's wire fields to locality
// loc. It copies field by field rather than *p so that it never touches
// the borrow word, which a delivery wrapper may be Releasing on another
// goroutine; p must be owned (tx-side or Detached), as Action and Args
// are shared, not cloned.
func (p *Parcel) Forward(loc int) *Parcel {
	return &Parcel{
		Dest:         p.Dest,
		DestLocality: loc,
		Action:       p.Action,
		Args:         p.Args,
		Continuation: p.Continuation,
		Source:       p.Source,
	}
}

// String renders a compact description for diagnostics.
func (p *Parcel) String() string {
	return fmt.Sprintf("parcel{%s@%v from L%d, %dB args, cont=%v}",
		p.Action, p.Dest, p.Source, len(p.Args), p.Continuation)
}

// bundleMagic guards against decoding garbage as a parcel bundle.
const bundleMagic = 0xA5

// ErrBadBundle reports a malformed parcel bundle.
var ErrBadBundle = errors.New("parcel: malformed bundle")

// MaxBundleParcels bounds the parcel count field of a decoded bundle.
const MaxBundleParcels = 1 << 20

// Bundle decode error constructors, shared by the copying and borrowing
// decoders so both report identical failures.
func errBundle(err error) error { return fmt.Errorf("%w: %v", ErrBadBundle, err) }
func errBundleMagic(m byte) error {
	return fmt.Errorf("%w: bad magic %#x", ErrBadBundle, m)
}
func errBundleCount(n uint64) error {
	return fmt.Errorf("%w: parcel count %d exceeds limit", ErrBadBundle, n)
}
func errBundleParcel(i uint64, err error) error {
	return fmt.Errorf("%w: parcel %d: %v", ErrBadBundle, i, err)
}
func errBundleTrailing(n int) error {
	return fmt.Errorf("%w: %d trailing bytes", ErrBadBundle, n)
}

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// encodedSize returns the exact encoded size of p inside a bundle
// (unlike WireSize, which over-estimates varint prefixes for use as a
// buffering guard).
func (p *Parcel) encodedSize() int {
	return 8 + 8 + 4 +
		uvarintLen(uint64(len(p.Action))) + len(p.Action) +
		uvarintLen(uint64(len(p.Args))) + len(p.Args)
}

// BundleSize returns the exact encoded size of a bundle carrying count
// parcels whose encodedSize sum is parcelBytes.
func bundleSize(count, parcelBytes int) int {
	return 1 + uvarintLen(uint64(count)) + parcelBytes
}

// appendParcel appends the bundle encoding of one parcel to dst.
func appendParcel(dst []byte, p *Parcel) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Dest))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Continuation))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Source))
	dst = binary.AppendUvarint(dst, uint64(len(p.Action)))
	dst = append(dst, p.Action...)
	dst = binary.AppendUvarint(dst, uint64(len(p.Args)))
	dst = append(dst, p.Args...)
	return dst
}

// appendBundleHeader appends a bundle header announcing count parcels.
func appendBundleHeader(dst []byte, count int) []byte {
	dst = append(dst, bundleMagic)
	return binary.AppendUvarint(dst, uint64(count))
}

// AppendBundle appends the wire encoding of a parcel bundle to dst and
// returns the extended slice. It allocates only when dst lacks capacity,
// which is what makes the port's steady-state send path allocation-free:
// the port sizes a pooled buffer with bundleSize first, so every append
// lands in existing capacity.
func AppendBundle(dst []byte, parcels []*Parcel) []byte {
	dst = appendBundleHeader(dst, len(parcels))
	for _, p := range parcels {
		dst = appendParcel(dst, p)
	}
	return dst
}

// EncodeBundle serializes parcels into a single, exactly sized wire
// message.
func EncodeBundle(parcels []*Parcel) []byte {
	size := 0
	for _, p := range parcels {
		size += p.encodedSize()
	}
	return AppendBundle(make([]byte, 0, bundleSize(len(parcels), size)), parcels)
}

// DecodeBundle reconstructs the parcels of a wire message, copying every
// field out of data — the returned parcels are owned and data may be
// recycled immediately. Decoded parcels have DestLocality unresolved
// (-1). The port decodes with DecodeBundleBorrowed (borrow.go); this
// copying decoder is the reference the borrowing decoder's tests and
// fuzzers compare it against.
func DecodeBundle(data []byte) ([]*Parcel, error) {
	r := serialization.NewReader(data)
	if magic := r.U8(); magic != bundleMagic {
		if r.Err() != nil {
			return nil, errBundle(r.Err())
		}
		return nil, errBundleMagic(magic)
	}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, errBundle(r.Err())
	}
	if n > MaxBundleParcels {
		return nil, errBundleCount(n)
	}
	out := make([]*Parcel, 0, n)
	for i := uint64(0); i < n; i++ {
		p := &Parcel{
			Dest:         agas.GID(r.U64()),
			Continuation: agas.GID(r.U64()),
			Source:       int(r.U32()),
			DestLocality: -1,
		}
		p.Action = r.String()
		p.Args = r.BytesField()
		if r.Err() != nil {
			return nil, errBundleParcel(i, r.Err())
		}
		out = append(out, p)
	}
	if r.Remaining() != 0 {
		return nil, errBundleTrailing(r.Remaining())
	}
	return out, nil
}
