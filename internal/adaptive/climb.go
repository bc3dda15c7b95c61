package adaptive

import (
	"fmt"
	"time"

	"repro/internal/coalescing"
)

// outcome is what one climb step did with its knob.
type outcome int

const (
	// held: the overhead is within tolerance of the last window's, or
	// the climb is settled; the knob stays.
	held outcome = iota
	// pinned: the step moved, but clamping brought it back to where the
	// knob already is.
	pinned
	// moved: the knob has a new value.
	moved
	// settled: the climb has stopped on the value it returns.
	settled
	// unsettled: the settled value's overhead left its band; the climb
	// climbs again from it.
	unsettled
)

// The climb's policy.
const (
	// tolerance is the relative overhead change a climb treats as noise,
	// and how far a settled value's band is widened.
	tolerance = 0.02
	// settleReversals is how many direction reversals a climb makes
	// before it settles: by then it has crossed its optimum that many
	// times, and what it measured on either side is the evidence.
	settleReversals = 24
	// settleMinWindows is how many windows a value must have been in
	// force to be settled on.
	settleMinWindows = 4
	// unsettleWindows is how many consecutive windows outside the settled
	// value's band unsettle the climb: a sustained shift in the traffic,
	// not an outlier.
	unsettleWindows = 6
)

// band is what a climb saw of the Eq. 4 share while one value was in
// force.
type band struct {
	n      int
	mean   float64
	lo, hi float64 // the smallest and largest share seen
}

// observe folds one window's share into the band.
func (b *band) observe(oh float64) {
	if b.n == 0 || oh < b.lo {
		b.lo = oh
	}
	if b.n == 0 || oh > b.hi {
		b.hi = oh
	}
	b.n++
	b.mean += (oh - b.mean) / float64(b.n)
}

// climb is the hill-climb MultiTuner runs on every knob, the rest's
// NParcels and each hot destination's NParcels and Interval: double the
// knob while the Eq. 4 overhead falls, halve it once it rises. Every
// value it holds keeps a band of the overheads seen under it; after
// settleReversals reversals the climb settles on the value with the
// lowest mean and holds it until unsettleWindows consecutive windows fall
// outside that value's band.
type climb struct {
	// prev is the overhead of the last judged window; negative means
	// there is none, and the next window moves without being compared.
	prev float64
	// dir is +1 to double the knob, -1 to halve it.
	dir int
	// knob is the parameter the climb moves, lo and hi bound it.
	knob   int
	lo, hi int64

	// seen holds a band per parameter set the climb has judged a window
	// under, and reversals counts changes of dir; both are forgotten when
	// the climb unsettles.
	seen      map[coalescing.Params]*band
	reversals int
	// isSettled is set from the settle to the unsettle; atBand is what
	// was seen under the settled parameters, and outside the run of
	// windows outside that band.
	isSettled bool
	atBand    band
	outside   int
}

// reset forgets the last overhead, so that a window after a quiet spell
// or a change in what the signal is made of is judged fresh. A settled
// climb stays settled.
func (c *climb) reset() { c.prev = -1 }

// get and with read and write the climb's knob in p.
func (c *climb) get(p coalescing.Params) int64 {
	if c.knob == knobInterval {
		return int64(p.Interval)
	}
	return int64(p.NParcels)
}

func (c *climb) with(p coalescing.Params, v int64) coalescing.Params {
	if c.knob == knobInterval {
		p.Interval = time.Duration(v)
	} else {
		p.NParcels = int(v)
	}
	return p
}

// step judges one window, measured under cur, and returns the next
// parameters. Worse than the last window by more than tolerance reverses
// the direction, better by more keeps it, anything between holds. A move
// past lo or hi is clamped and leaves the direction pointing back inward.
// The settle takes over from the move once the climb has reversed
// settleReversals times.
func (c *climb) step(overhead float64, cur coalescing.Params) (coalescing.Params, outcome) {
	if c.isSettled {
		return c.judgeSettled(overhead, cur)
	}
	if c.seen == nil {
		c.seen = make(map[coalescing.Params]*band)
	}
	b := c.seen[cur]
	if b == nil {
		b = &band{}
		c.seen[cur] = b
	}
	b.observe(overhead)

	dir := c.dir
	next, out := c.move(overhead, cur)
	if c.dir != dir {
		c.reversals++
	}
	if c.reversals >= settleReversals {
		if best, ok := c.best(); ok {
			c.isSettled, c.atBand, c.outside = true, *c.seen[best], 0
			return best, settled
		}
	}
	return next, out
}

// move is the hill-climb proper.
func (c *climb) move(overhead float64, cur coalescing.Params) (coalescing.Params, outcome) {
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

	v := c.get(cur)
	next := v / 2
	if c.dir > 0 {
		next = v * 2
	}
	if next < c.lo {
		next = c.lo
		c.dir = +1
	}
	if next > c.hi {
		next = c.hi
		c.dir = -1
	}
	if next == v {
		return cur, pinned
	}
	return c.with(cur, next), moved
}

// best returns the parameters with the lowest mean overhead among those
// in force for at least settleMinWindows windows.
func (c *climb) best() (coalescing.Params, bool) {
	var out coalescing.Params
	var mean float64
	found := false
	for p, b := range c.seen {
		if b.n < settleMinWindows {
			continue
		}
		// Ties go to the smaller NParcels, then the shorter Interval, so
		// the choice does not depend on map order.
		tie := b.mean == mean && (p.NParcels < out.NParcels ||
			p.NParcels == out.NParcels && p.Interval < out.Interval)
		if !found || b.mean < mean || tie {
			out, mean, found = p, b.mean, true
		}
	}
	return out, found
}

// judgeSettled holds a settled climb while its windows stay inside the
// settled value's band, widened by tolerance, and unsettles it after
// unsettleWindows consecutive windows outside. Unsettled, it has
// forgotten what it saw and climbs again from cur, judging the next
// window fresh.
func (c *climb) judgeSettled(overhead float64, cur coalescing.Params) (coalescing.Params, outcome) {
	b := c.atBand
	if overhead >= b.lo*(1-tolerance) && overhead <= b.hi*(1+tolerance) {
		c.outside = 0
		return cur, held
	}
	c.outside++
	if c.outside < unsettleWindows {
		return cur, held
	}
	c.isSettled, c.seen, c.reversals, c.outside = false, nil, 0, 0
	c.prev = -1
	return cur, unsettled
}

// why is the decision reason of a settle or an unsettle, which the step
// that returned it has just made.
func (c *climb) why(out outcome, overhead float64) string {
	b := c.atBand
	if out == settled {
		return fmt.Sprintf("settled: mean=%.4f over %d windows, band [%.4f,%.4f]", b.mean, b.n, b.lo, b.hi)
	}
	return fmt.Sprintf("unsettled: oh=%.4f, %d windows outside [%.4f,%.4f]", overhead, unsettleWindows, b.lo, b.hi)
}
