package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/runtime"
)

const sinkAction = "benchmark/sink"

// workload is one closed-loop load generator bound to a built stack.
type workload interface {
	// first performs the first verified operation; it ends set-up.
	first() error
	// run drives the loop for about d and returns marks at slices+1
	// boundaries (the taskgraph marks whole cycles instead).
	run(d time.Duration, slices int) *window
	// finish waits for everything in flight and closes the books.
	finish()
	// attempted counts the operations issued since first.
	attempted() int64
	// failures counts the operations that failed, by cause.
	failures() map[string]int64
	// coalescedAction names the action whose coalescers the workload
	// uses; "" when it bypasses coalescing.
	coalescedAction() string
}

// stream is the Apply 0→1 generator of the stream_* workloads: one
// goroutine, at most spec.window parcels in flight (one per slot), asleep
// while its next slot is taken.
type stream struct {
	e    *env
	gen  *generator
	seen *seenSet

	sent       atomic.Uint64 // written by the generator only
	delivered  atomic.Int64  // verified sink executions
	corrupt    atomic.Int64  // failed the checksum or length check
	dupes      atomic.Int64  // second delivery of a sequence number
	applyErrs  int64
	writtenOff int64 // in flight when the window stopped draining: lost

	// busy[i] is set while the parcel in window slot i is in flight; the
	// sink clears it. waiting is the slot the generator sleeps on (-1:
	// awake); the sink wakes it once that slot is free and half the
	// window has drained, so it sleeps once per half window, not once
	// per parcel.
	busy    []atomic.Bool
	waiting atomic.Int32
	wake    chan struct{}

	// Sampled Apply→sink latencies, appended lock-free by the sink. A
	// slot is ready once its latDur is non-zero (stored as ns+1).
	latN   atomic.Int64
	latAt  []atomic.Int64 // completion time, ns since gen.epoch
	latDur []atomic.Int64
}

// maxLatSamples bounds the latency sample store (16 B a sample, touched
// only as used): 64 million parcels at one sample in sampleEvery.
const maxLatSamples = 1 << 20

// stallAfter is how long a full window may go without a single delivery
// before the parcels in flight are written off as lost (a variable so that
// a test can shorten it).
var stallAfter = 2 * time.Second

func newStream(e *env, seed int64) (*stream, error) {
	s := &stream{
		e:      e,
		gen:    newGenerator(seed, e.spec.window, e.spec.argsBytes),
		seen:   newSeenSet(),
		busy:   make([]atomic.Bool, e.spec.window),
		wake:   make(chan struct{}, 1),
		latAt:  make([]atomic.Int64, maxLatSamples),
		latDur: make([]atomic.Int64, maxLatSamples),
	}
	s.waiting.Store(-1)
	if err := e.rt.RegisterAction(sinkAction, s.sink); err != nil {
		return nil, err
	}
	if err := e.rt.EnableCoalescing(sinkAction, e.spec.coalesce); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *stream) inFlight() int64 {
	return int64(s.sent.Load()) - s.delivered.Load() - s.writtenOff
}

// sink is the action body on locality 1: verify, count, return credit.
func (s *stream) sink(_ *runtime.Context, args []byte) ([]byte, error) {
	seq, stamp, ok := checkArgs(args)
	switch {
	case !ok || len(args) != s.e.spec.argsBytes:
		s.corrupt.Add(1)
		return nil, nil
	case !s.seen.mark(seq):
		s.dupes.Add(1)
		return nil, nil
	}
	if stamp != 0 {
		if i := s.latN.Add(1) - 1; i < maxLatSamples {
			s.latAt[i].Store(int64(time.Since(s.gen.epoch)))
			s.latDur[i].Store(int64(s.gen.sinceSend(stamp)) + 1)
		}
	}
	s.busy[seq%uint64(len(s.busy))].Store(false)
	d := s.delivered.Add(1)
	if w := s.waiting.Load(); w >= 0 && !s.busy[w].Load() && int64(s.sent.Load())-d <= int64(len(s.busy)/2) {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return nil, nil
}

// awaitSlot sleeps until the args buffer of window slot i is free, that
// is, until the parcel that last used it has been delivered. Waiting for
// that very parcel, and not for a count of deliveries, matters: messages
// overtake each other (a timer-flushed batch can sit on a descheduled
// goroutine while full batches pass it), and the runtime reads the args
// only when it encodes the message. The window is also what keeps every
// parcel accounted for — an unthrottled Apply stream overruns the port's
// rx queue, which drops silently. Should parcels be lost for good all
// the same (rx drop, link down), their slots never free up: after
// stallAfter without a single delivery everything in flight is written
// off as failed and the loop carries on, so the run ends with a fail
// ratio and not a watchdog kill.
func (s *stream) awaitSlot(i int) {
	for s.busy[i].Load() {
		s.waiting.Store(int32(i))
		if s.busy[i].Load() {
			// A timer per wait, which is once per half window: one that
			// outlived a wait could fire into the next and write off a
			// healthy window.
			before := s.delivered.Load()
			stall := time.NewTimer(stallAfter)
			select {
			case <-s.wake:
			case <-stall.C:
				if s.delivered.Load() == before {
					s.writtenOff += s.inFlight()
					for j := range s.busy {
						s.busy[j].Store(false)
					}
				}
			}
			stall.Stop()
		}
		s.waiting.Store(-1)
	}
}

// send issues the next parcel once its window slot is free.
func (s *stream) send() {
	seq := s.sent.Load()
	slot := int(seq % uint64(len(s.busy)))
	s.awaitSlot(slot)
	s.busy[slot].Store(true)
	sampled := seq%sampleEvery == 0
	args := s.gen.next(seq, sampled)
	var err error
	if rec := s.e.rec; sampled && rec != nil && rec.on.Load() {
		id, start := rec.begin(), rec.now()
		err = s.e.rt.Locality(0).Apply(1, sinkAction, args)
		rec.end(id, 0, spanApply, start, int64(seq), 0)
	} else {
		err = s.e.rt.Locality(0).Apply(1, sinkAction, args)
	}
	if err != nil {
		s.applyErrs++
	}
	s.sent.Add(1)
}

func (s *stream) first() error {
	s.send()
	s.e.rt.FlushAllCoalescers()
	deadline := time.Now().Add(10 * time.Second)
	for s.delivered.Load() < 1 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: first parcel not delivered within 10s", s.e.spec.name)
		}
		time.Sleep(20 * time.Microsecond)
	}
	if s.corrupt.Load()+s.dupes.Load()+s.applyErrs > 0 {
		return fmt.Errorf("%s: first parcel failed verification", s.e.spec.name)
	}
	return nil
}

func (s *stream) mark() sliceMark {
	return sliceMark{
		at:      time.Now(),
		cpu:     cpuNow(),
		ops:     s.delivered.Load(),
		parcels: s.e.portTotals().ParcelsReceived,
		tasks:   metrics.Snapshot(s.e.rt).Tasks,
	}
}

func (s *stream) run(d time.Duration, slices int) *window {
	w := &window{marks: []sliceMark{s.mark()}}
	start := w.marks[0].at
	latFrom := s.latN.Load()
	for i := 1; i <= slices; i++ {
		end := start.Add(d * time.Duration(i) / time.Duration(slices))
		for {
			s.send()
			// The clock is read once every 256 parcels (under a
			// millisecond of sending).
			if s.sent.Load()&255 == 0 && !time.Now().Before(end) {
				break
			}
		}
		w.marks = append(w.marks, s.mark())
	}
	latTo := min(s.latN.Load(), maxLatSamples)
	base := int64(start.Sub(s.gen.epoch))
	for i := latFrom; i < latTo; i++ {
		if d := s.latDur[i].Load(); d != 0 {
			w.lats = append(w.lats, latSample{doneNs: s.latAt[i].Load() - base, lat: time.Duration(d - 1)})
		}
	}
	return w
}

func (s *stream) finish() {
	s.e.rt.FlushAllCoalescers()
	deadline := time.Now().Add(5 * time.Second)
	for s.inFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	s.writtenOff += s.inFlight()
}

func (s *stream) failures() map[string]int64 {
	return map[string]int64{
		"missing":      s.writtenOff,
		"corrupt":      s.corrupt.Load(),
		"duplicate":    s.dupes.Load(),
		"apply_errors": s.applyErrs,
	}
}

func (s *stream) attempted() int64 { return int64(s.sent.Load()) }

func (s *stream) coalescedAction() string { return sinkAction }
