package adaptive

// outcome is what one climb step did with its knob.
type outcome int

const (
	// held: the overhead is within tolerance of the last window's; the
	// baseline is refreshed and the knob stays.
	held outcome = iota
	// pinned: the step moved, but clamping brought it back to where the
	// knob already is.
	pinned
	// moved: the knob has a new value.
	moved
)

// tolerance is the relative overhead change a climb treats as noise.
const tolerance = 0.02

// climb is the hill-climb MultiTuner runs on every knob, the rest's
// NParcels and each hot destination's: double it while the Eq. 4 overhead
// falls, halve it once it rises.
type climb struct {
	// prev is the overhead of the last judged window; negative means
	// there is none, and the next window moves without being compared.
	prev float64
	// dir is +1 to double the knob, -1 to halve it.
	dir int
	// lo and hi bound the knob.
	lo, hi int64
}

// reset forgets the last overhead, so that a window after a quiet spell
// or a change in what the signal is made of is judged fresh.
func (c *climb) reset() { c.prev = -1 }

// step judges one window and returns the knob's next value. Worse than
// the last window by more than tolerance reverses the direction, better
// by more keeps it, anything between holds. A move past lo or hi is
// clamped and leaves the direction pointing back inward.
func (c *climb) step(overhead float64, cur int64) (int64, outcome) {
	if c.prev >= 0 {
		change := overhead - c.prev
		switch {
		case change > tolerance*c.prev:
			c.dir = -c.dir
		case change < -tolerance*c.prev:
		default:
			c.prev = overhead
			return cur, held
		}
	}
	c.prev = overhead

	next := cur / 2
	if c.dir > 0 {
		next = cur * 2
	}
	if next < c.lo {
		next = c.lo
		c.dir = +1
	}
	if next > c.hi {
		next = c.hi
		c.dir = -1
	}
	if next == cur {
		return cur, pinned
	}
	return next, moved
}
