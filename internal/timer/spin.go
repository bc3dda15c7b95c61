package timer

import "time"

// monoEpoch anchors Mono: time.Since against an instant that carries a
// monotonic reading costs one clock read, where time.Now costs two (wall
// and monotonic).
var monoEpoch = time.Now()

// Mono returns the process's monotonic clock in nanoseconds since an
// arbitrary epoch. Readings are comparable only with each other.
func Mono() int64 { return int64(time.Since(monoEpoch)) }

// Spin busy-waits for approximately d, burning CPU on the calling
// goroutine's thread. The network cost model uses Spin to make modeled
// per-message CPU overheads (message setup, serialization fixed costs,
// handshaking) consume real worker time, so that the runtime's
// background-work counters and wall-clock measurements reflect genuine
// contention rather than bookkeeping fiction.
//
// Durations at or below zero return immediately.
func Spin(d time.Duration) {
	if d > 0 {
		SpinFrom(Mono(), d)
	}
}

// SpinFrom busy-waits until the clock reads start+d or later and returns
// the reading that ended the wait, so a caller that timestamps both ends
// of a spin (the scheduler's modelled thread-management phases) passes in
// the reading it already has and reads the clock no further. start is a
// Mono reading; with d at or below zero it is returned at once.
func SpinFrom(start int64, d time.Duration) int64 {
	now := start
	for deadline := start + int64(d); now < deadline; now = Mono() {
		// A small arithmetic loop keeps the pipeline busy between clock
		// reads so the spin costs CPU comparably to real protocol work
		// instead of hammering the clock source.
		x := 0
		for i := 0; i < 64; i++ {
			x += i * i
		}
		_ = x
	}
	return now
}
