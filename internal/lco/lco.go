// Package lco implements Local Control Objects, the synchronization
// primitives of the ParalleX model that HPX uses to coordinate tasks:
// futures and promises, and latches.
//
// In this reproduction LCOs play the same role they do in the paper's
// Listing 1: every remote action invocation returns a future, and the toy
// application's phases end with a wait_all over a million futures. The
// parcel subsystem sets each future's value when the result parcel
// arrives back from the remote locality.
package lco

import (
	"errors"
	"sync"
	"time"
)

// ErrTimeout is returned by bounded waits that expire.
var ErrTimeout = errors.New("lco: wait timed out")

// ErrAlreadySet is returned when a promise is set twice.
var ErrAlreadySet = errors.New("lco: promise already set")

// Promise is the write side of a future: a single-assignment slot that
// unblocks all waiters when its value or error is set.
type Promise[T any] struct {
	mu   sync.Mutex
	done chan struct{}
	val  T
	err  error
	set  bool
}

// NewPromise creates an unset promise.
func NewPromise[T any]() *Promise[T] {
	return &Promise[T]{done: make(chan struct{})}
}

// SetValue fulfils the promise with v. It fails if already set.
func (p *Promise[T]) SetValue(v T) error { return p.set1(v, nil) }

// SetError fulfils the promise with an error. It fails if already set.
func (p *Promise[T]) SetError(err error) error {
	var zero T
	if err == nil {
		err = errors.New("lco: SetError with nil error")
	}
	return p.set1(zero, err)
}

func (p *Promise[T]) set1(v T, err error) error {
	p.mu.Lock()
	if p.set {
		p.mu.Unlock()
		return ErrAlreadySet
	}
	p.val, p.err, p.set = v, err, true
	close(p.done)
	p.mu.Unlock()
	return nil
}

// Future returns the read side of the promise.
func (p *Promise[T]) Future() *Future[T] { return &Future[T]{p: p} }

// Future is the read side of a single-assignment slot.
type Future[T any] struct{ p *Promise[T] }

// Get blocks until the future is ready and returns its value or error.
func (f *Future[T]) Get() (T, error) {
	<-f.p.done
	return f.p.val, f.p.err
}

// GetWithTimeout waits at most d; on expiry it returns ErrTimeout. A
// ready future returns its value however late the caller runs.
func (f *Future[T]) GetWithTimeout(d time.Duration) (T, error) {
	select {
	case <-f.p.done:
		return f.p.val, f.p.err
	default:
	}
	select {
	case <-f.p.done:
		return f.p.val, f.p.err
	case <-time.After(d):
		var zero T
		return zero, ErrTimeout
	}
}

// WaitAll blocks until every future in fs is ready and returns the first
// error encountered (in slice order), if any. It is the analog of HPX's
// wait_all in the paper's Listing 1.
func WaitAll[T any](fs []*Future[T]) error {
	var firstErr error
	for _, f := range fs {
		if _, err := f.Get(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Latch blocks waiters until its counter reaches zero (HPX latch).
type Latch struct {
	mu    sync.Mutex
	count int
	done  chan struct{}
}

// NewLatch creates a latch with the given initial count; count <= 0 is
// already open.
func NewLatch(count int) *Latch {
	l := &Latch{count: count, done: make(chan struct{})}
	if count <= 0 {
		close(l.done)
	}
	return l
}

// CountDown decrements the counter by n, opening the latch at zero.
// Decrementing an open latch is a no-op.
func (l *Latch) CountDown(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count <= 0 {
		return
	}
	l.count -= n
	if l.count <= 0 {
		close(l.done)
	}
}

// Done returns a channel closed when the latch opens, for use in select
// statements alongside cancellation or failure signals.
func (l *Latch) Done() <-chan struct{} { return l.done }

// Count returns the remaining count (0 when open).
func (l *Latch) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count < 0 {
		return 0
	}
	return l.count
}
