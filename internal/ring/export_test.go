package ring

// Cap returns the current capacity.
func (b *Buffer[T]) Cap() int { return len(b.buf) }

// Peek returns the head element without removing it.
func (b *Buffer[T]) Peek() (T, bool) {
	var zero T
	if b.n == 0 {
		return zero, false
	}
	return b.buf[b.head], true
}

// Reset discards all elements, zeroing occupied slots but keeping the
// backing array.
func (b *Buffer[T]) Reset() {
	var zero T
	for i := 0; i < b.n; i++ {
		b.buf[(b.head+i)&(len(b.buf)-1)] = zero
	}
	b.head, b.n = 0, 0
}
