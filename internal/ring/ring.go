// Package ring provides a growable power-of-two ring buffer used by the
// hot FIFOs of the runtime: the scheduler's per-worker run queues, the
// parcel port's outbound and receive queues, and the simulated fabric's
// per-link transmit queues.
//
// The first implementations of these queues popped with q = q[1:],
// which pins the backing array (the garbage collector cannot reclaim
// popped elements while the slice window advances) and forces a
// reallocation every time append catches up with the shrinking capacity.
// A ring buffer gives O(1) push and pop with a stable backing array,
// zeroes vacated slots so popped elements are collectable immediately,
// and only reallocates on genuine growth (doubling, so growth is
// amortized O(1) and stops once the queue reaches its high-water mark).
//
// Buffer is not synchronized; callers guard it with their own locks.
package ring

// Buffer is a FIFO ring over elements of type T. The zero value is an
// empty buffer ready for use.
type Buffer[T any] struct {
	buf  []T // len(buf) is always 0 or a power of two
	head int // index of the oldest element
	n    int // number of elements
}

// minCapacity is the initial allocation of a zero-value buffer's first
// push, chosen so small bursts never grow.
const minCapacity = 16

// New returns a buffer with capacity for at least capacity elements
// without reallocation.
func New[T any](capacity int) *Buffer[T] {
	b := &Buffer[T]{}
	if capacity > 0 {
		b.buf = make([]T, ceilPow2(capacity))
	}
	return b
}

func ceilPow2(n int) int {
	c := minCapacity
	for c < n {
		c <<= 1
	}
	return c
}

// Len returns the number of queued elements.
func (b *Buffer[T]) Len() int { return b.n }

// Push appends v to the tail, growing the buffer if full.
func (b *Buffer[T]) Push(v T) {
	if b.n == len(b.buf) {
		b.grow()
	}
	b.buf[(b.head+b.n)&(len(b.buf)-1)] = v
	b.n++
}

// Pop removes and returns the head element. The vacated slot is zeroed so
// the buffer does not retain references to popped elements.
func (b *Buffer[T]) Pop() (T, bool) {
	var zero T
	if b.n == 0 {
		return zero, false
	}
	v := b.buf[b.head]
	b.buf[b.head] = zero
	b.head = (b.head + 1) & (len(b.buf) - 1)
	b.n--
	return v, true
}

// MoveTo pops up to n elements from the head of b and pushes them onto
// the tail of dst, preserving FIFO order, and returns how many moved.
// It is the bulk-transfer primitive behind the scheduler's steal-half
// operation: elements are copied slot to slot without any intermediate
// buffer, and vacated slots are zeroed exactly as Pop would. Callers
// synchronize both buffers.
func (b *Buffer[T]) MoveTo(dst *Buffer[T], n int) int {
	if n > b.n {
		n = b.n
	}
	if n <= 0 {
		return 0
	}
	var zero T
	for i := 0; i < n; i++ {
		idx := (b.head + i) & (len(b.buf) - 1)
		dst.Push(b.buf[idx])
		b.buf[idx] = zero
	}
	b.head = (b.head + n) & (len(b.buf) - 1)
	b.n -= n
	return n
}

// grow doubles the backing array, linearizing the queue at offset 0.
func (b *Buffer[T]) grow() {
	next := make([]T, ceilPow2(2*len(b.buf)))
	if b.n > 0 {
		k := copy(next, b.buf[b.head:])
		copy(next[k:], b.buf[:b.n-k])
	}
	b.buf = next
	b.head = 0
}
