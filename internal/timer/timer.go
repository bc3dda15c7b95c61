// Package timer provides the microsecond-resolution deadline timer that
// drives parcel-coalescing queue flushes, plus a calibrated busy-wait used
// by the network cost model.
//
// The paper implements its flush timer with Boost's deadline timer running
// on "its own dedicated hardware thread", giving microsecond resolution
// and a measured mean firing error of about 33 µs; relying on ordinary
// scheduler time-slicing would have limited resolution to milliseconds.
// This package reproduces that design point: a Service owns one dedicated
// goroutine that sleeps until shortly before the earliest deadline it knows
// of and then busy-waits the final stretch, achieving errors well below
// operating-system tick granularity.
//
// Algorithm 1 arms a timer at the first parcel of every queue and stops it
// at every flush, and almost every flush beats its timer. Arming and
// stopping therefore cost the caller one atomic operation each: a Timer
// holds the deadline it wants in an atomic, owns one node in the service's
// heap, and the service reads the deadline only when that node's key comes
// due — dropping the node if the timer was stopped, moving it if the timer
// was re-armed for later, and spinning only toward a deadline somebody still
// wants.
package timer

import (
	"container/heap"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSpinWindow is the portion of a wait that the service goroutine
// busy-waits rather than sleeps. Larger windows improve firing accuracy at
// the cost of CPU on the service goroutine.
const DefaultSpinWindow = 150 * time.Microsecond

// ErrServiceStopped is returned when arming a timer on a stopped Service.
var ErrServiceStopped = errors.New("timer: service stopped")

// ServiceOptions configures a timer Service.
type ServiceOptions struct {
	// SpinWindow is how long before a deadline the service switches from
	// sleeping to busy-waiting. Zero selects DefaultSpinWindow; negative
	// disables spinning entirely (pure sleep, OS-tick accuracy).
	SpinWindow time.Duration
}

// Service runs deadline timers on one dedicated goroutine.
type Service struct {
	epoch time.Time // deadlines and keys are monotonic ns since epoch
	spin  int64     // ns
	wake  chan struct{}
	done  chan struct{}

	// stopped is written under mu and read without it by arm's fast path.
	stopped atomic.Bool

	mu    sync.Mutex
	nodes timerHeap
	// sleepingTo is the key the service goroutine is sleeping or spinning
	// toward; math.MinInt64 while it is evaluating the heap (it will see a
	// new node by itself), math.MaxInt64 while it waits on an empty heap.
	sleepingTo int64

	wakeups atomic.Uint64
	fires   atomic.Uint64
	rekeys  atomic.Uint64
	spinNS  atomic.Int64 // time spent busy-waiting; read by tests
}

// Stats is a snapshot of a Service's activity.
type Stats struct {
	// Wakeups counts the service goroutine's returns from a blocking wait,
	// by its sleep timer or by a signal from an arming.
	Wakeups uint64
	// Fires counts callbacks run.
	Fires uint64
	// Rekeys counts nodes that came due and were moved to the later
	// deadline their timer had been re-armed for, without a spin.
	Rekeys uint64
	// HeapLen is the number of timers that currently own a heap node.
	HeapLen int
}

// Stats returns the service's cumulative activity counts.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	n := len(s.nodes)
	s.mu.Unlock()
	return Stats{
		Wakeups: s.wakeups.Load(),
		Fires:   s.fires.Load(),
		Rekeys:  s.rekeys.Load(),
		HeapLen: n,
	}
}

// timerHeap orders the timers that own a node by key; guarded by
// Service.mu.
type timerHeap []*Timer

func (h timerHeap) Len() int            { return len(h) }
func (h timerHeap) Less(i, j int) bool  { return h[i].key.Load() < h[j].key.Load() }
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *timerHeap) Push(x interface{}) { t := x.(*Timer); t.index = len(*h); *h = append(*h, t) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// NewService starts a timer service with the given options.
func NewService(opts ServiceOptions) *Service {
	spin := opts.SpinWindow
	if spin == 0 {
		spin = DefaultSpinWindow
	}
	if spin < 0 {
		spin = 0
	}
	s := &Service{
		epoch:      time.Now(),
		spin:       int64(spin),
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		sleepingTo: math.MinInt64,
	}
	go s.run()
	return s
}

// now returns the service clock: monotonic nanoseconds since its epoch.
func (s *Service) now() int64 { return int64(time.Since(s.epoch)) }

// Stop shuts down the service goroutine. Armed timers that have not fired
// are discarded without firing. Stop is idempotent and waits for the
// service goroutine to exit.
func (s *Service) Stop() {
	s.mu.Lock()
	s.stopped.Store(true)
	s.mu.Unlock()
	s.signal()
	<-s.done
}

func (s *Service) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// settle brings t's heap node in line with the deadline t wants: no node
// for a disarmed timer, otherwise a node keyed at the deadline. The caller
// holds s.mu. The deadline is read again after the key is published
// because arm and this function are the two sides of a store-then-load
// handshake (deadline then key there, key then deadline here): an arming
// that still saw the old key finds its deadline honoured by the re-read,
// and one whose deadline the re-read missed sees the new key and takes the
// lock.
func (s *Service) settle(t *Timer) {
	for {
		d := t.deadline.Load()
		switch key := t.key.Load(); {
		case d == key:
		case d == 0:
			heap.Remove(&s.nodes, t.index)
			t.key.Store(0)
		case key == 0:
			t.key.Store(d)
			heap.Push(&s.nodes, t)
		default:
			t.key.Store(d)
			heap.Fix(&s.nodes, t.index)
		}
		if t.deadline.Load() == d {
			return
		}
	}
}

func (s *Service) run() {
	defer close(s.done)
	sleep := time.NewTimer(time.Hour)
	defer sleep.Stop()
	for {
		s.mu.Lock()
		s.sleepingTo = math.MinInt64
		if s.stopped.Load() {
			s.mu.Unlock()
			return
		}
		if len(s.nodes) == 0 {
			s.sleepingTo = math.MaxInt64
			s.mu.Unlock()
			<-s.wake
			s.wakeups.Add(1)
			continue
		}
		t := s.nodes[0]
		key := t.key.Load()
		now := s.now()
		if wait := key - now; wait > s.spin {
			s.sleepingTo = key
			s.mu.Unlock()
			if !sleep.Stop() {
				select {
				case <-sleep.C:
				default:
				}
			}
			sleep.Reset(time.Duration(wait - s.spin))
			select {
			case <-sleep.C:
			case <-s.wake:
			}
			s.wakeups.Add(1)
			continue
		}
		// The key is due or within the spin window: only now is the
		// timer's real deadline of interest.
		if d := t.deadline.Load(); d != key {
			// Stopped, or re-armed since the key was set: drop or move
			// the node and look at the heap again without spinning.
			if d > key {
				s.rekeys.Add(1)
			}
			s.settle(t)
			s.mu.Unlock()
			continue
		}
		if now >= key {
			// Claim the arming; a Stop or re-arm that got there first
			// wins and the node is settled to whatever it left behind.
			fired := t.deadline.CompareAndSwap(key, 0)
			s.settle(t)
			s.mu.Unlock()
			if fired {
				s.fires.Add(1)
				t.fn()
			}
			continue
		}
		// Final stretch toward a live deadline: busy-wait for precision,
		// watching the deadline so a Stop or re-arm ends the spin, and
		// the wake channel so an earlier arming is noticed promptly.
		s.sleepingTo = key
		s.mu.Unlock()
	spin:
		for t.deadline.Load() == key && s.now() < key {
			select {
			case <-s.wake:
				break spin
			default:
			}
		}
		s.spinNS.Add(s.now() - now)
	}
}

// Timer is a re-armable deadline timer bound to a Service. A Timer may be
// armed, stopped and re-armed repeatedly; each arming supersedes the
// previous one. Timer methods are safe for concurrent use.
type Timer struct {
	svc *Service
	fn  func()

	// deadline is when the timer should fire, on the service clock; 0
	// means disarmed. It is the whole of the timer's armed state.
	deadline atomic.Int64
	// key is where the timer's node sits in the service heap, 0 when it
	// has none; written under svc.mu, read without it by arm. A node's key
	// may lag its timer's deadline — the service catches up when the key
	// comes due — but never exceeds it once arm has returned.
	key   atomic.Int64
	index int // heap index; guarded by svc.mu
}

// NewTimer creates a timer that runs fn on the service goroutine when it
// fires. fn must be short or hand off to other goroutines, exactly like a
// hardware interrupt handler: while fn runs, no other timer can fire.
func (s *Service) NewTimer(fn func()) *Timer {
	return &Timer{svc: s, fn: fn}
}

// Start arms the timer to fire after d. If the timer was already armed the
// previous arming is cancelled. Start returns ErrServiceStopped if the
// owning service has been stopped.
func (t *Timer) Start(d time.Duration) error {
	return t.arm(t.svc.now() + int64(d))
}

// StartAt arms the timer to fire at the absolute time when.
func (t *Timer) StartAt(when time.Time) error {
	return t.arm(int64(when.Sub(t.svc.epoch)))
}

// arm stores the wanted deadline and involves the service only when the
// timer's node cannot serve it: there is none, or it is keyed later than
// the deadline.
func (t *Timer) arm(when int64) error {
	s := t.svc
	if s.stopped.Load() {
		return ErrServiceStopped
	}
	if when <= 0 {
		when = 1 // 0 means disarmed
	}
	t.deadline.Store(when)
	if key := t.key.Load(); key != 0 && key <= when {
		return nil
	}
	s.mu.Lock()
	if s.stopped.Load() {
		s.mu.Unlock()
		t.deadline.CompareAndSwap(when, 0)
		return ErrServiceStopped
	}
	s.settle(t)
	key := t.key.Load()
	wake := key != 0 && key < s.sleepingTo
	if wake {
		s.sleepingTo = key
	}
	s.mu.Unlock()
	if wake {
		s.signal()
	}
	return nil
}

// Stop disarms the timer. It reports whether the timer was armed and had
// not yet fired; false means the timer already fired or was never armed.
// The timer's heap node stays where it is until the service next looks at
// it, so a timer that is stopped and re-armed over and over never touches
// the service.
func (t *Timer) Stop() bool {
	return t.deadline.Swap(0) != 0
}

// Reset re-arms the timer to fire after d, regardless of its current
// state. It is equivalent to Stop followed by Start.
func (t *Timer) Reset(d time.Duration) error {
	return t.Start(d)
}

// Armed reports whether the timer is currently armed.
func (t *Timer) Armed() bool {
	return t.deadline.Load() != 0
}
