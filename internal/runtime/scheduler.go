package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/parcel"
	"repro/internal/ring"
	"repro/internal/timer"
)

// task is one unit of lightweight work (an HPX thread): a closure, or a
// received parcel that the locality's runParcel turns into its action.
// Either run is set, or p is, with fn the parcel's action as delivery
// resolved it (nil for a system parcel). A parcel task carries no
// closure, so delivering a parcel allocates nothing.
type task struct {
	run func()
	p   *parcel.Parcel
	fn  ActionFunc
}

// backgroundWorker is the slice of the parcel port the scheduler drives
// when idle. Pending reports whether DoBackgroundWork would find work; a
// worker checks it once more after publishing itself as parked, which is
// what lets the port wake workers instead of being polled (see park).
// FlushIdle is the quiescence hook: the source turns what it holds back
// (partial coalescing batches) into work for DoBackgroundWork.
type backgroundWorker interface {
	DoBackgroundWork(maxUnits int) int
	Pending() bool
	FlushIdle()
}

// schedConfig configures a locality scheduler.
type schedConfig struct {
	locality     int
	workers      int
	queueSize    int           // 0 selects defaultQueueSize; a test shrinks it
	fallbackPark time.Duration // 0 selects defaultFallbackPark; tests stretch it
	taskOverhead time.Duration
	registry     *counters.Registry
	runParcel    func(*parcel.Parcel, ActionFunc) // body of every parcel task
}

// Tuning constants of the work-stealing scheduler.
const (
	// flushEvery is how many tasks a worker executes between flushes of
	// its private Section III accounting deltas into the shared
	// counters. Shared-counter traffic per task is therefore amortized
	// to a few atomic adds every flushEvery tasks (≪ 1 per task);
	// stats() and the derived counters force a flush so reads stay
	// exact.
	flushEvery = 256
	// bgCheckEvery is how many consecutive tasks a worker runs before
	// performing one background-work batch even though tasks are still
	// runnable, bounding network starvation under task floods (HPX
	// schedulers likewise interleave periodic parcel-port maintenance).
	bgCheckEvery = 64
	// bgBatch is how many background work units a worker asks the port
	// for per visit.
	bgBatch = 8
	// defaultQueueSize is a locality's run-queue budget. It is not a
	// bound: each worker's share of it, max(defaultQueueSize/workers, 16),
	// is the soft cap past which spawn still enqueues but then yields
	// (see enqueue).
	defaultQueueSize = 1 << 16
	// spinRounds and yieldRounds shape the idle path: an idle worker
	// re-checks all queues spinRounds times, yields the processor
	// yieldRounds times, and only then parks on its wake channel.
	spinRounds  = 4
	yieldRounds = 4
	// defaultFallbackPark bounds one park. Every source of work — spawn and the
	// port's Wake hook — wakes a parked worker itself, so this timer is
	// not how work is found: it is the safety net that turns a wake-up
	// lost to a bug into a bounded stall, visible in count/park-timeouts.
	defaultFallbackPark = 10 * time.Millisecond
	// initialRing is the starting capacity of a worker's run queue, which
	// grows on demand toward the soft cap instead of zeroing all of it up
	// front on every runtime.New.
	initialRing = 1 << 10
	// batchRun is how many uninstrumented tasks a worker runs
	// back-to-back inside one timed span (see executeBatch): the clock
	// reads and delta adds are paid once per span instead of once per
	// task, while the span still measures exactly those tasks' run time.
	batchRun = 32
)

// worker is one scheduler worker's private state. The run queue and
// accounting block are laid out per worker and padded so that
// steady-state operation touches no cache line shared with another
// worker.
type worker struct {
	id int

	// mu guards runq, the worker's FIFO run queue, and pushed, the count
	// of tasks ever queued on it: spawn pushes at the tail, the owner pops
	// from the head, and a thief moves the oldest half to its own queue.
	// Spawns are routed by a P-local hint (see spawnHint), so in steady
	// state the lock is taken by the worker and by the tasks it runs
	// spawning more.
	mu     sync.Mutex
	runq   ring.Buffer[task]
	pushed int64

	// Batched Section III accounting: the owner accumulates per-task
	// deltas into these atomics. They live on this worker's own cache
	// lines, so the adds never bounce a line shared across workers.
	// flushMu serializes flushers (the owner, stats() readers, stop) so
	// each flushed batch pairs its task count with its duration sums
	// consistently.
	flushMu   sync.Mutex
	dTasks    atomic.Int64
	dFunc     atomic.Int64 // Σ t_func of unflushed tasks, nanoseconds
	dExec     atomic.Int64 // Σ t_exec of unflushed tasks, nanoseconds
	dBg       atomic.Int64 // unflushed background-work time, nanoseconds
	dParks    atomic.Int64 // unflushed parks that blocked
	dTimedOut atomic.Int64 // of those, ended by the fallback timer

	// Owner-only backoff and flush cursors (no synchronization needed).
	sinceFlush   int
	sinceBgCheck int
	searching    bool // owner-only: counted in scheduler.nSearching
	busy         bool // owner-only: counted in scheduler.nBusy

	// parkCh (capacity 1) wakes a parked worker when a task is spawned
	// or the port queues a message; parkTimer is the fallback bound.
	parkCh    chan struct{}
	parkTimer *time.Timer

	_ [64]byte // pad workers apart when allocated adjacently
}

// spawnHint is a P-local run-queue assignment handed out by the
// scheduler's hint pool. Queue indices round-robin across the hints as
// they are created, and sync.Pool storage is per-P, so each spawning
// execution context sticks to its own run queue with no shared atomic
// operation on the steady-state path (the pool's New, which does take
// one, runs only on first use per P and after GC clears the pool). On a
// machine where workers occupy their own Ps this makes a worker's own
// spawns land in the queue it pops — the work-stealing "push to your own
// queue" fast path — while spawns from elsewhere spread round-robin and
// imbalance is corrected by stealing.
type spawnHint struct {
	idx uint32
}

// scheduler is a locality's task execution engine: a fixed pool of
// worker goroutines (the analog of HPX's OS-thread pool) executing
// lightweight tasks and performing network background work when no task
// is runnable.
//
// Tasks are distributed work-stealing style: spawn pushes new tasks onto
// per-worker run queues (choosing the queue through a P-local hint, so
// concurrent spawners do not contend), each worker runs from the head of
// its own queue, and a worker whose queue is empty steals the oldest
// half of a victim's queue before falling back to background network
// work and finally to a spin → yield → park idle path. Parked workers are
// woken by spawn and by the port whenever it queues a message in either
// direction — but only when no other worker is already searching for
// work, mirroring the Go runtime's spinning-M throttle — so neither a
// task nor a message waits out a park, and a steady stream of either does
// not pay a wake per item.
//
// It maintains the counters behind the paper's Section III metrics:
//
//	/threads{locality#i}/count/cumulative        — tasks executed (n_t)
//	/threads{locality#i}/time/cumulative         — Σ t_func   (Eq. 1)
//	/threads{locality#i}/time/cumulative-exec    — Σ t_exec
//	/threads{locality#i}/time/average-overhead   — (Σt_func-Σt_exec)/n_t (Eq. 2, µs)
//	/threads{locality#i}/background-work         — Σ t_bg     (Eq. 3, seconds)
//	/threads{locality#i}/background-overhead     — Σt_bg / (Σt_func+Σt_bg) (Eq. 4)
//	/threads{locality#i}/count/parks             — parks that blocked
//	/threads{locality#i}/count/park-timeouts     — parks ended by the fallback timer
//
// The accounting behind these counters is batched: workers accumulate
// deltas privately and flush every flushEvery tasks, when going idle,
// and at shutdown; stats() and the derived counters flush all workers
// before reading, so observed values are exact with respect to every
// completed task while the steady state performs ~zero shared atomic
// operations per task.
//
// The denominator of the background-overhead ratio is the scheduler's
// total busy time (task time plus background time), keeping the metric a
// dimensionless fraction of busy time spent on network processing; the
// paper's Eq. 4 uses HPX's cumulative thread time, which likewise covers
// all scheduler activity.
type scheduler struct {
	cfg     schedConfig
	bg      backgroundWorker
	quit    chan struct{}
	wg      sync.WaitGroup
	workers []*worker

	stopping atomic.Bool

	// softCap is the per-worker run-queue occupancy beyond which spawn
	// yields after enqueueing (soft backpressure; see enqueue).
	softCap int

	hintSeq  atomic.Uint32
	hintPool sync.Pool

	// Parked workers, LIFO so recently-parked (cache-warm) workers wake
	// first. nParked mirrors len(parked) so spawn can skip the lock
	// with a plain load when nobody is parked; nSearching counts
	// workers between "found no task" and "found one", letting spawn
	// skip the wake entirely while somebody is already looking.
	parkMu     sync.Mutex
	parked     []*worker
	nParked    atomic.Int32
	nSearching atomic.Int32

	// nBusy counts workers that have run a task since they last ran dry
	// (found no task and no port work). The worker that takes it to zero
	// performs the quiescence flush; one running or blocked inside a task
	// keeps it above zero, so its batches are not cut short by idle peers.
	nBusy atomic.Int32

	startNano atomic.Int64 // wall clock at start(), 0 before
	stopNano  atomic.Int64 // wall clock at stop() completion, 0 while running

	numTasks    *counters.Raw
	cumFunc     *counters.Elapsed
	cumExec     *counters.Elapsed
	avgOverhead *counters.Average
	bgWork      *counters.Elapsed
	parks       *counters.Raw
	parkTimeout *counters.Raw
	bgOverhead  *counters.Derived
	idleRate    *counters.Derived
}

func newScheduler(cfg schedConfig, bg backgroundWorker) *scheduler {
	if cfg.workers <= 0 {
		cfg.workers = 2
	}
	if cfg.queueSize <= 0 {
		cfg.queueSize = defaultQueueSize
	}
	if cfg.fallbackPark <= 0 {
		cfg.fallbackPark = defaultFallbackPark
	}
	if cfg.taskOverhead < 0 {
		cfg.taskOverhead = 0
	}
	inst := fmt.Sprintf("locality#%d", cfg.locality)
	path := func(name string) counters.Path {
		return counters.Path{Object: "threads", Instance: inst, Name: name}
	}
	s := &scheduler{
		cfg:         cfg,
		bg:          bg,
		quit:        make(chan struct{}),
		numTasks:    counters.NewRaw(path("count/cumulative")),
		cumFunc:     counters.NewElapsed(path("time/cumulative")),
		cumExec:     counters.NewElapsed(path("time/cumulative-exec")),
		avgOverhead: counters.NewAverage(path("time/average-overhead")),
		bgWork:      counters.NewElapsed(path("background-work")),
		parks:       counters.NewRaw(path("count/parks")),
		parkTimeout: counters.NewRaw(path("count/park-timeouts")),
	}
	s.hintPool.New = func() any {
		return &spawnHint{idx: (s.hintSeq.Add(1) - 1) % uint32(cfg.workers)}
	}
	// The per-worker queues start small and grow on demand; soft
	// backpressure past a queueSize burst spread across the pool keeps
	// them from growing without bound.
	s.softCap = max(cfg.queueSize/cfg.workers, 16)
	s.workers = make([]*worker, cfg.workers)
	for i := range s.workers {
		w := &worker{id: i, parkCh: make(chan struct{}, 1)}
		w.runq = *ring.New[task](min(s.softCap, initialRing))
		s.workers[i] = w
	}
	s.bgOverhead = counters.NewDerived(path("background-overhead"), func() float64 {
		s.flushAll()
		bgSec := s.bgWork.Value()
		busy := s.cumFunc.Value() + bgSec
		if busy == 0 {
			return 0
		}
		return bgSec / busy
	})
	// idle-rate: the fraction of worker wall time spent neither running
	// tasks nor doing background work (HPX's /threads/idle-rate). Wall
	// time is frozen at stop(), so post-run reads report the run's idle
	// rate instead of decaying toward 1 as real time keeps passing.
	s.idleRate = counters.NewDerived(path("idle-rate"), func() float64 {
		startNs := s.startNano.Load()
		if startNs == 0 {
			return 0
		}
		endNs := s.stopNano.Load()
		if endNs == 0 {
			endNs = time.Now().UnixNano()
		}
		wall := float64(endNs-startNs) / float64(time.Second) * float64(s.cfg.workers)
		if wall <= 0 {
			return 0
		}
		s.flushAll()
		busy := s.cumFunc.Value() + s.bgWork.Value()
		rate := 1 - busy/wall
		if rate < 0 {
			return 0
		}
		return rate
	})
	if cfg.registry != nil {
		// Register through flush-on-read wrappers so registry queries
		// observe every completed task even between batch flushes.
		cfg.registry.MustRegister(flushOnRead{s.numTasks, s})
		cfg.registry.MustRegister(flushOnRead{s.cumFunc, s})
		cfg.registry.MustRegister(flushOnRead{s.cumExec, s})
		cfg.registry.MustRegister(flushOnRead{s.avgOverhead, s})
		cfg.registry.MustRegister(flushOnRead{s.bgWork, s})
		cfg.registry.MustRegister(flushOnRead{s.parks, s})
		cfg.registry.MustRegister(flushOnRead{s.parkTimeout, s})
		cfg.registry.MustRegister(s.bgOverhead)
		cfg.registry.MustRegister(s.idleRate)
	}
	return s
}

// flushOnRead exposes a scheduler counter to the registry with
// read-time exactness: Value() first flushes all workers' batched
// accounting deltas into the shared counters, so moving the Section III
// bookkeeping off the per-task hot path never changes what a counter
// query returns, only what it costs.
type flushOnRead struct {
	counters.Counter
	s *scheduler
}

func (c flushOnRead) Value() float64 {
	c.s.flushAll()
	return c.Counter.Value()
}

// start launches the worker pool.
func (s *scheduler) start() {
	s.startNano.Store(time.Now().UnixNano())
	for _, w := range s.workers {
		s.wg.Add(1)
		go s.run(w)
	}
}

// stop shuts the pool down after the queues drain of already-spawned
// tasks that are immediately runnable; tasks spawned concurrently with
// stop may be dropped. stop is idempotent and never blocks spawners:
// spawn observes the stopping flag and fails fast instead of queueing.
func (s *scheduler) stop() {
	if s.stopping.Swap(true) {
		s.wg.Wait()
		return
	}
	close(s.quit)
	s.wakeAll()
	s.wg.Wait()
	s.flushAll()
	s.stopNano.Store(time.Now().UnixNano())
}

// spawn enqueues a task onto a per-worker run queue chosen by a P-local
// hint, so concurrent spawners touch disjoint queues and no shared atomic
// is updated on the steady-state path. It reports false if the scheduler
// is stopping; it never blocks, so a spawn racing stop cannot hang (the
// task may simply be dropped).
func (s *scheduler) spawn(fn func()) bool { return s.spawnTask(task{run: fn}) }

// spawnParcel spawns a received parcel's task, which runs
// cfg.runParcel(p, fn), like spawn.
func (s *scheduler) spawnParcel(p *parcel.Parcel, fn ActionFunc) bool {
	return s.spawnTask(task{p: p, fn: fn})
}

func (s *scheduler) spawnTask(t task) bool {
	if s.stopping.Load() {
		return false
	}
	h := s.hintPool.Get().(*spawnHint)
	w := s.workers[h.idx]
	s.hintPool.Put(h)
	s.enqueue(w, t)
	return true
}

// spawnTo enqueues a task directly onto worker i's run queue, bypassing
// the spawn hint. Tests and benchmarks use it to construct imbalanced
// (steal-heavy) workloads.
func (s *scheduler) spawnTo(i int, fn func()) bool {
	if s.stopping.Load() {
		return false
	}
	s.enqueue(s.workers[i%len(s.workers)], task{run: fn})
	return true
}

// enqueue pushes t onto w's run queue and wakes a worker for it.
func (s *scheduler) enqueue(w *worker, t task) {
	w.mu.Lock()
	overloaded := w.runq.Len() >= s.softCap
	w.runq.Push(t)
	w.pushed++
	w.mu.Unlock()

	s.maybeWake()
	if overloaded {
		// Soft backpressure: the task is already enqueued (so this can
		// never deadlock a worker spawning from inside a task), but a
		// producer running ahead of the pool yields so consumers catch
		// up instead of growing the rings — and the GC load of scanning
		// them — without bound.
		goruntime.Gosched()
	}
}

// maybeWake wakes one parked worker after an enqueue — of a task by
// spawn, or of a message by the port, whose Wake hook this is — unless
// some worker is already searching for work (it will find the new item
// without a wakeup — the analog of the Go runtime's "don't wake a P
// while an M is spinning" rule, which keeps a steady stream from paying
// a park/wake handshake per item). With nobody parked it costs two
// atomic loads.
func (s *scheduler) maybeWake() {
	if s.nSearching.Load() == 0 && s.nParked.Load() > 0 {
		s.wakeOne()
	}
}

// pending returns the number of queued-but-not-started tasks across all
// run queues.
func (s *scheduler) pending() int {
	n := 0
	for _, w := range s.workers {
		w.mu.Lock()
		n += w.runq.Len()
		w.mu.Unlock()
	}
	return n
}

// spawned returns the number of tasks ever accepted by spawn/spawnTo.
func (s *scheduler) spawned() int64 {
	var n int64
	for _, w := range s.workers {
		w.mu.Lock()
		n += w.pushed
		w.mu.Unlock()
	}
	return n
}

// run is the worker loop: local work, then stolen work, then background
// network work, then spin, yield and park. The worker marks itself
// "searching" while it hunts for work so spawn can skip the wake path,
// and hands the search off to a parked peer whenever it pulls a batch
// larger than the single task it is about to run, or leaves the search
// with port work still queued.
func (s *scheduler) run(w *worker) {
	defer s.wg.Done()
	idle := 0
	for {
		if t, more, ok := s.findTask(w); ok {
			idle = 0
			wasSearching := w.searching
			if wasSearching {
				w.searching = false
				s.nSearching.Add(-1)
			}
			if !w.busy {
				w.busy = true
				s.nBusy.Add(1)
			}
			// Wake a parked peer when the find left runnable work behind
			// in this worker's own queue (so a burst spawned while the
			// pool slept fans out instead of draining serially), and when
			// a search ends with port work still queued: the port skipped
			// its wake on the promise that this worker would reach the
			// message, and the task it is leaving to run may block (the
			// Go runtime's resetspinning). Only that transition pays the
			// look, three atomic loads, and only while a peer is parked.
			// Tasks on other workers' queues are not looked for — that
			// costs a lock per worker on every wake from idle (+13 % on
			// the 4-worker empty-task latency). One behind a skipped wake
			// waits for this worker's next search: as long as the task
			// runs, and at most until the peer's fallback park ends.
			if more || wasSearching && s.nParked.Load() > 0 && s.bg.Pending() {
				s.maybeWake()
			}
			s.executeBatch(w, t, more)
			continue
		}
		if s.stopping.Load() {
			if w.searching {
				w.searching = false
				s.nSearching.Add(-1)
			}
			s.flushWorker(w)
			return
		}
		if !w.searching {
			w.searching = true
			s.nSearching.Add(1)
		}
		// No runnable task anywhere: perform network background work;
		// if the network is also idle, back off.
		if s.doBackground(w, true) {
			idle = 0
			continue
		}
		idle++
		switch {
		case idle <= spinRounds:
			// Spin: immediately re-check the queues.
		case idle <= spinRounds+yieldRounds:
			goruntime.Gosched()
		default:
			s.flushWorker(w) // publish accounting before a long idle
			s.park(w)
		}
	}
}

// findTask locates the next runnable task: the head of the worker's own
// run queue, then the other workers' queues, stealing the oldest half of
// the first non-empty victim. more reports whether the worker's queue
// still holds runnable tasks beyond the returned one.
func (s *scheduler) findTask(w *worker) (t task, more, ok bool) {
	w.mu.Lock()
	if t, ok := w.runq.Pop(); ok {
		more = w.runq.Len() > 0
		w.mu.Unlock()
		return t, more, true
	}
	w.mu.Unlock()

	for i := 1; i < len(s.workers); i++ {
		v := s.workers[(w.id+i)%len(s.workers)]
		if t, more, ok := s.stealDeque(w, v); ok {
			return t, more, true
		}
	}
	return task{}, false, false
}

// stealDeque moves the oldest half of v's run queue onto w's and pops the
// first task. Both queue locks are held, ordered by worker id to avoid
// deadlock with a symmetric steal; enqueue takes one lock only.
func (s *scheduler) stealDeque(w, v *worker) (t task, more, ok bool) {
	a, b := w, v
	if b.id < a.id {
		a, b = b, a
	}
	a.mu.Lock()
	b.mu.Lock()
	n := v.runq.Len()
	if n == 0 {
		b.mu.Unlock()
		a.mu.Unlock()
		return task{}, false, false
	}
	v.runq.MoveTo(&w.runq, n-n/2)
	t, _ = w.runq.Pop()
	more = w.runq.Len() > 0
	b.mu.Unlock()
	a.mu.Unlock()
	return t, more, true
}

// doBackground runs one background-work batch, charging the time to the
// worker's private accounting; it reports whether any work was done.
//
// outOfTasks is set on the idle path only. A worker that then finds no
// port work either has run dry, and the one that takes nBusy to zero is
// the last of its locality to do so: no task is left to fill a coalescing
// queue, and the peer that would send the next task may be waiting for
// what the queues hold. It flushes them and transmits the batches in the
// same timed span, so the flush is background work in Eq. 3/4. This is a
// transition, not a poll: a worker that has run no task since it last ran
// dry does not flush, so parcels put from outside the pool into an idle
// locality keep Algorithm 1's timer.
func (s *scheduler) doBackground(w *worker, outOfTasks bool) bool {
	bgStart := timer.Mono()
	n := s.bg.DoBackgroundWork(bgBatch)
	if n == 0 && outOfTasks && w.busy {
		w.busy = false
		if s.nBusy.Add(-1) == 0 {
			s.bg.FlushIdle()
			n = s.bg.DoBackgroundWork(bgBatch)
		}
	}
	if n > 0 {
		w.dBg.Add(timer.Mono() - bgStart)
		return true
	}
	return false
}

// park blocks the worker until maybeWake wakes it, the scheduler stops,
// or the fallback timer fires. No wake-up can be lost: a producer first
// makes its item visible (task in a run queue, message counted by the
// port) and then loads nSearching and nParked; the worker first
// leaves nSearching and publishes itself in nParked and then re-checks
// every queue and the port. All of these are sequentially consistent, so
// either the producer sees the worker parked and wakes it, or the
// worker's re-check sees the item.
func (s *scheduler) park(w *worker) {
	// Stop counting as a searcher before the final work re-check: from
	// here on, a producer that finds nSearching at zero takes the wake
	// path, and a producer that observed this worker still searching must
	// have enqueued early enough for the re-check below to see the item.
	if w.searching {
		w.searching = false
		s.nSearching.Add(-1)
	}
	s.parkMu.Lock()
	s.parked = append(s.parked, w)
	s.nParked.Store(int32(len(s.parked)))
	s.parkMu.Unlock()

	if s.stopping.Load() || s.haveWork() || s.bg.Pending() {
		s.unpark(w)
		return
	}
	w.dParks.Add(1)
	if w.parkTimer == nil {
		w.parkTimer = time.NewTimer(s.cfg.fallbackPark)
	} else {
		w.parkTimer.Reset(s.cfg.fallbackPark)
	}
	select {
	case <-w.parkCh:
	case <-w.parkTimer.C:
		w.dTimedOut.Add(1)
	case <-s.quit:
	}
	if !w.parkTimer.Stop() {
		select {
		case <-w.parkTimer.C:
		default:
		}
	}
	s.unpark(w)
}

// unpark removes the worker from the parked list if still present and
// drains a stray wake token so the next park does not wake spuriously.
func (s *scheduler) unpark(w *worker) {
	s.parkMu.Lock()
	for i, p := range s.parked {
		if p == w {
			s.parked = append(s.parked[:i], s.parked[i+1:]...)
			break
		}
	}
	s.nParked.Store(int32(len(s.parked)))
	s.parkMu.Unlock()
	select {
	case <-w.parkCh:
	default:
	}
}

// haveWork reports whether any run queue holds a task.
func (s *scheduler) haveWork() bool {
	for _, v := range s.workers {
		v.mu.Lock()
		n := v.runq.Len()
		v.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// wakeOne pops and wakes the most recently parked worker.
func (s *scheduler) wakeOne() {
	var w *worker
	s.parkMu.Lock()
	if n := len(s.parked); n > 0 {
		w = s.parked[n-1]
		s.parked = s.parked[:n-1]
		s.nParked.Store(int32(len(s.parked)))
	}
	s.parkMu.Unlock()
	if w != nil {
		select {
		case w.parkCh <- struct{}{}:
		default:
		}
	}
}

// wakeAll wakes every parked worker (used by stop).
func (s *scheduler) wakeAll() {
	s.parkMu.Lock()
	ws := s.parked
	s.parked = nil
	s.nParked.Store(0)
	s.parkMu.Unlock()
	for _, w := range ws {
		select {
		case w.parkCh <- struct{}{}:
		default:
		}
	}
}

// executeBatch runs t and, when the task-overhead simulation is off, up
// to batchRun-1 further tasks already sitting in w's own queue inside a
// single timed span: one pair of monotonic clock reads and one set of
// delta adds covers the whole run of back-to-back tasks, so the
// per-task instrumentation cost amortizes toward zero while the summed
// counters (Σ t_func, Σ t_exec, n_t) measure exactly the batched tasks.
// With taskOverhead configured, each task carries its own simulated
// thread-management phases and is timed individually by execute.
func (s *scheduler) executeBatch(w *worker, t task, more bool) {
	if s.cfg.taskOverhead > 0 {
		s.execute(w, t)
		return
	}
	var buf [batchRun - 1]task
	n := 0
	if more {
		w.mu.Lock()
		for n < len(buf) {
			t2, ok := w.runq.Pop()
			if !ok {
				break
			}
			buf[n] = t2
			n++
		}
		w.mu.Unlock()
	}
	start := timer.Mono()
	s.runTask(t)
	for i := 0; i < n; i++ {
		s.runTask(buf[i])
	}
	dur := timer.Mono() - start
	// Without the overhead simulation t_func and t_exec are the same
	// measurement (no thread-management phases to separate).
	s.account(w, n+1, dur, dur)
}

// execute runs one task under the task-overhead model. The configured
// per-task thread-management cost (stack setup, context switch, cleanup —
// 1–2 µs for an HPX lightweight thread) is spun away half before and half
// after the user function: it is part of t_func (Eq. 1) but not of t_exec,
// so Eq. 2's task-overhead counter reports it. The task is stamped with
// two clock reads of its own, funcStart and execEnd; execStart and funcEnd
// are the readings that ended the two spins, so t_func − t_exec is the
// two spin spans to the nanosecond and none of the stamping is charged to
// Eq. 2 as if it were thread management.
func (s *scheduler) execute(w *worker, t task) {
	half := s.cfg.taskOverhead / 2
	funcStart := timer.Mono()
	execStart := timer.SpinFrom(funcStart, half)
	s.runTask(t)
	execEnd := timer.Mono()
	funcEnd := timer.SpinFrom(execEnd, half)
	s.account(w, 1, funcEnd-funcStart, execEnd-execStart)
}

// runTask runs one task's body.
func (s *scheduler) runTask(t task) {
	if t.p != nil {
		s.cfg.runParcel(t.p, t.fn)
		return
	}
	t.run()
}

// account adds a timed span of n tasks to w's private deltas and runs the
// periodic flush and in-band background check the span brought due.
func (s *scheduler) account(w *worker, n int, funcNs, execNs int64) {
	w.dFunc.Add(funcNs)
	w.dExec.Add(execNs)
	w.dTasks.Add(int64(n))

	w.sinceFlush += n
	if w.sinceFlush >= flushEvery {
		w.sinceFlush = 0
		s.flushWorker(w)
	}
	w.sinceBgCheck += n
	if w.sinceBgCheck >= bgCheckEvery {
		w.sinceBgCheck = 0
		s.doBackground(w, false)
	}
}

// flushWorker moves the worker's private accounting deltas into the
// shared counters. It is safe to call from any goroutine: deltas are
// swapped out atomically, and flushMu keeps each batch's task count
// paired with its duration sums so the average-overhead counter folds
// exact (count, sum) batches.
func (s *scheduler) flushWorker(w *worker) {
	w.flushMu.Lock()
	tasks := w.dTasks.Swap(0)
	fn := w.dFunc.Swap(0)
	ex := w.dExec.Swap(0)
	bg := w.dBg.Swap(0)
	parks := w.dParks.Swap(0)
	timedOut := w.dTimedOut.Swap(0)
	w.flushMu.Unlock()
	if parks > 0 {
		s.parks.Add(parks)
	}
	if timedOut > 0 {
		s.parkTimeout.Add(timedOut)
	}
	if tasks == 0 && fn == 0 && ex == 0 && bg == 0 {
		return
	}
	if tasks > 0 {
		s.numTasks.Add(tasks)
		s.avgOverhead.RecordBatch(uint64(tasks), float64(fn-ex)/float64(time.Microsecond))
	}
	s.cumFunc.AddNanos(fn)
	s.cumExec.AddNanos(ex)
	s.bgWork.AddNanos(bg)
}

// flushAll flushes every worker's pending accounting deltas, making the
// shared counters exact with respect to all completed work.
func (s *scheduler) flushAll() {
	for _, w := range s.workers {
		s.flushWorker(w)
	}
}

// snapshot of the scheduler's Section III counters.
type schedStats struct {
	Tasks       int64
	CumFunc     time.Duration
	CumExec     time.Duration
	Background  time.Duration
	AvgOverhead float64 // µs per task
	BgOverhead  float64 // Eq. 4 ratio
}

// stats flushes all workers' accounting batches and returns the exact
// Section III snapshot. A task is completed, and counted, once its worker
// has added its deltas — after the trailing overhead spin, so up to a few
// µs after its body returned: a caller that learns of completion from
// inside the body (a WaitGroup, a channel) may read Tasks one short.
func (s *scheduler) stats() schedStats {
	s.flushAll()
	return schedStats{
		Tasks:       s.numTasks.Get(),
		CumFunc:     s.cumFunc.Total(),
		CumExec:     s.cumExec.Total(),
		Background:  s.bgWork.Total(),
		AvgOverhead: s.avgOverhead.Value(),
		BgOverhead:  s.bgOverhead.Value(),
	}
}
