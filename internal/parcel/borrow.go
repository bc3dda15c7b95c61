package parcel

// Borrowed receive path.
//
// DecodeBundle reconstructs parcels by copying every field out of the
// wire buffer — 49 allocations per 64-parcel bundle, the last allocating
// stage of the message pipeline. The borrowing decode below removes them:
// decoded parcels come from a pool and their Action/Args fields alias
// sub-slices of the pooled wire payload itself. In exchange the receive
// path inherits an explicit lifetime rule, the rx mirror of the tx side's
// "Send takes ownership" protocol:
//
//	fabric → port → DecodeBundleBorrowed → handler → Release
//
// On success DecodeBundleBorrowed takes ownership of the payload. Every
// returned parcel holds one reference on a shared payloadOwner; Release
// returns the parcel to the pool and drops its reference, and the last
// reference recycles the payload via network.PutPayload. A handler that
// must retain a parcel (or any field of it) beyond its own return calls
// Detach first, which copies the borrowed fields into owned memory.
//
// The pools are fixed-capacity channels, not sync.Pool, for the same
// reason as the payload and batch pools: channel operations do not
// allocate and are not flushed by GC, which keeps the steady-state
// receive path off the allocation profile entirely and makes the
// testing.AllocsPerRun regression guards deterministic.
//
// Misuse detection: each parcel carries an atomic borrow state. A second
// Release of a live pointer panics; with SetBorrowDebug(true) released
// parcels and payloads are additionally poisoned and withheld from the
// pools, so even a late double release (after the parcel would normally
// have been recycled) panics deterministically and a use-after-release
// read observes poison instead of silently aliasing a newer message.
// Concurrent misuse on the recycled memory is visible to the race
// detector, since pooled buffers pass between goroutines through channel
// operations only.

import (
	"strings"
	"sync/atomic"
	"unsafe"

	"repro/internal/agas"
	"repro/internal/network"
	"repro/internal/serialization"
)

// Borrow states, stored in Parcel.borrow with atomic operations. The
// field is a plain int32 (not atomic.Int32) so owned parcels stay
// copyable by value.
const (
	borrowNone     int32 = iota // owned parcel: literal, detached, or copy-decoded
	borrowLive                  // fields alias a pooled wire payload
	borrowReleased              // released or recycled; any further use is a bug
	borrowPooled                // outbound parcel from Get, recycled by the port
)

// payloadOwner is the shared ownership record of one decoded wire
// payload: the buffer plus a count of live borrowed parcels still
// pointing into it.
type payloadOwner struct {
	payload []byte
	refs    atomic.Int32
}

const (
	parcelPoolSlots = 4096
	ownerPoolSlots  = 1024
)

var (
	parcelPool = make(chan *Parcel, parcelPoolSlots)
	ownerPool  = make(chan *payloadOwner, ownerPoolSlots)

	// borrowDebug enables the deterministic misuse mode; see SetBorrowDebug.
	borrowDebug atomic.Bool
)

// SetBorrowDebug toggles the debug double-release guard. When enabled,
// released parcels and exhausted payloads are poisoned and NOT returned
// to their pools: a double Release always panics (the parcel can never be
// recycled into a new live borrow first) and a use-after-release reads
// 0xDD poison rather than another message's bytes. The cost is that the
// receive path allocates again, so the mode is for tests and debugging
// only. Returns the previous setting.
func SetBorrowDebug(on bool) bool { return borrowDebug.Swap(on) }

func getParcel() *Parcel {
	select {
	case p := <-parcelPool:
		return p
	default:
		return new(Parcel)
	}
}

func putParcel(p *Parcel) {
	*p = Parcel{}
	select {
	case parcelPool <- p:
	default:
	}
}

func getOwner() *payloadOwner {
	select {
	case o := <-ownerPool:
		return o
	default:
		return new(payloadOwner)
	}
}

// release drops one borrow reference; the last reference recycles the
// payload and the owner record.
func (o *payloadOwner) release() {
	if o.refs.Add(-1) != 0 {
		return
	}
	pl := o.payload
	o.payload = nil
	if borrowDebug.Load() {
		for i := range pl {
			pl[i] = 0xDD
		}
		return // withhold from pools: keep use-after-release observable
	}
	network.PutPayload(pl)
	select {
	case ownerPool <- o:
	default:
	}
}

// unsafeString views b as a string without copying. The result aliases b
// and shares its lifetime; the borrowing decode uses it for Action so the
// rx hot path performs no string allocation.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Borrowed reports whether p is live-borrowed: its Action and Args alias
// a pooled wire payload and are invalidated by Release.
func (p *Parcel) Borrowed() bool { return atomic.LoadInt32(&p.borrow) == borrowLive }

// Release ends a borrowed parcel's lifetime: the parcel returns to the
// parcel pool and its reference on the wire payload is dropped; when the
// last parcel of a bundle releases, the payload returns to the network
// payload pool. After Release the parcel and every borrowed field are
// invalid. Release on an owned parcel (tx-side, detached, or produced by
// the copying DecodeBundle) is a no-op, so delivery wrappers may call it
// unconditionally. A second Release of a still-live pointer panics.
func (p *Parcel) Release() {
	if atomic.CompareAndSwapInt32(&p.borrow, borrowLive, borrowReleased) {
		o := p.owner
		if !borrowDebug.Load() {
			putParcel(p) // also clears fields and resets borrow state
		}
		o.release()
		return
	}
	if atomic.LoadInt32(&p.borrow) == borrowReleased {
		panic("parcel: double Release")
	}
}

// Detach converts a borrowed parcel into an owned one: Action and Args
// are copied into freshly allocated memory and the reference on the wire
// payload is dropped. Handlers that retain a parcel beyond their own
// return (forwarding, deferred retry) call Detach first; the later
// unconditional Release in the delivery wrapper then becomes a no-op.
// Detaching an owned parcel is a no-op; detaching a released one panics.
func (p *Parcel) Detach() {
	if !atomic.CompareAndSwapInt32(&p.borrow, borrowLive, borrowNone) {
		if atomic.LoadInt32(&p.borrow) == borrowReleased {
			panic("parcel: Detach after Release")
		}
		return
	}
	p.Action = strings.Clone(p.Action)
	p.Args = append([]byte(nil), p.Args...)
	o := p.owner
	p.owner = nil
	o.release()
}

// DecodeBundleBorrowed reconstructs the parcels of a wire message without
// copying: parcels come from the parcel pool and their Action/Args fields
// alias sub-slices of data. On success the bundle takes ownership of data
// — each parcel must be Released (or Detached) exactly once, and the last
// release recycles data into the network payload pool (a zero-parcel
// bundle recycles it immediately). On error the caller retains ownership
// of data and nothing is borrowed. The returned slice comes from the
// batch pool; callers return it with PutBatch after dispatching the
// parcels (the parcels themselves remain valid until Released).
//
// Decoded parcels have DestLocality unresolved (-1), exactly like
// DecodeBundle.
func DecodeBundleBorrowed(data []byte) ([]*Parcel, error) {
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
	out := GetBatch()
	owner := getOwner()
	owner.payload = data
	fail := func(i uint64, err error) error {
		for _, p := range out {
			p.owner = nil
			putParcel(p)
		}
		PutBatch(out)
		owner.payload = nil
		select {
		case ownerPool <- owner:
		default:
		}
		if i != ^uint64(0) {
			return errBundleParcel(i, err)
		}
		return err
	}
	for i := uint64(0); i < n; i++ {
		p := getParcel()
		p.Dest = agas.GID(r.U64())
		p.Continuation = agas.GID(r.U64())
		p.Source = int(r.U32())
		p.DestLocality = -1
		p.Action = unsafeString(r.BorrowBytesField())
		p.Args = r.BorrowBytesField()
		if r.Err() != nil {
			putParcel(p)
			return nil, fail(i, r.Err())
		}
		p.owner = owner
		p.borrow = borrowLive
		out = append(out, p)
	}
	if r.Remaining() != 0 {
		return nil, fail(^uint64(0), errBundleTrailing(r.Remaining()))
	}
	if n == 0 {
		// Nothing borrows the payload; ownership transferred, so recycle
		// it now and hand back the (empty) batch.
		owner.payload = nil
		select {
		case ownerPool <- owner:
		default:
		}
		network.PutPayload(data)
		return out, nil
	}
	owner.refs.Store(int32(len(out)))
	return out, nil
}

// ReleaseBundle releases every parcel of a borrow-decoded bundle and
// recycles the slice — the bulk form used by benchmarks and tests;
// the port releases per-parcel from the delivery wrappers instead.
func ReleaseBundle(ps []*Parcel) {
	for _, p := range ps {
		p.Release()
	}
	PutBatch(ps)
}
