package parcel

import "sync/atomic"

// Recycled reports whether p, a parcel from Get, has been recycled under
// SetBorrowDebug: poisoned and withheld from the pool.
func Recycled(p *Parcel) bool {
	return atomic.LoadInt32(&p.borrow) == borrowReleased && p.Action == recycledAction
}

// Recycle is the port's end of an outbound parcel's life, for tests that
// recycle one by hand.
var Recycle = recycle
