package runtime

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/counters"
	"repro/internal/timer"
)

// fakeBg is a controllable background-work source.
type fakeBg struct {
	units atomic.Int64 // available units
	done  atomic.Int64 // consumed units
	cost  time.Duration
}

func (f *fakeBg) DoBackgroundWork(maxUnits int) int {
	n := 0
	for n < maxUnits {
		if f.units.Add(-1) < 0 {
			f.units.Add(1)
			break
		}
		if f.cost > 0 {
			time.Sleep(f.cost)
		}
		f.done.Add(1)
		n++
	}
	return n
}

func (f *fakeBg) Pending() bool { return f.units.Load() > 0 }

// waitTasks polls stats() until the task counter reaches n (tasks count
// as completed once their instrumentation epilogue finishes, a few µs
// after the task body returns) and returns the last snapshot.
func waitTasks(t *testing.T, s *scheduler, n int64) schedStats {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	st := s.stats()
	for st.Tasks < n && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
		st = s.stats()
	}
	return st
}

func newTestScheduler(t *testing.T, workers int, bg backgroundWorker, reg *counters.Registry) *scheduler {
	t.Helper()
	if bg == nil {
		bg = &fakeBg{}
	}
	s := newScheduler(schedConfig{locality: 0, workers: workers, registry: reg}, bg)
	s.start()
	t.Cleanup(s.stop)
	return s
}

func TestSchedulerExecutesTasks(t *testing.T) {
	s := newTestScheduler(t, 2, nil, nil)
	var ran atomic.Int64
	var wg sync.WaitGroup
	const n = 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		if !s.spawn(func() { ran.Add(1); wg.Done() }) {
			t.Fatal("spawn failed")
		}
	}
	wg.Wait()
	if ran.Load() != n {
		t.Errorf("ran %d tasks", ran.Load())
	}
	// wg.Wait returns inside the last task's body; the task is counted
	// once its accounting epilogue has run.
	st := waitTasks(t, s, n)
	if st.Tasks != n {
		t.Errorf("task counter = %d", st.Tasks)
	}
	if st.CumFunc <= 0 || st.CumFunc < st.CumExec {
		t.Errorf("cumFunc=%v cumExec=%v", st.CumFunc, st.CumExec)
	}
}

func TestSchedulerDoesBackgroundWorkWhenIdle(t *testing.T) {
	bg := &fakeBg{}
	bg.units.Store(100)
	s := newTestScheduler(t, 2, bg, nil)
	deadline := time.Now().Add(2 * time.Second)
	for bg.done.Load() < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := bg.done.Load(); got != 100 {
		t.Errorf("background units done = %d", got)
	}
	_ = s
}

func TestSchedulerTasksPreemptBackground(t *testing.T) {
	// With a steady supply of background work, spawned tasks must still
	// run promptly (workers check the task queue first).
	bg := &fakeBg{cost: 100 * time.Microsecond}
	bg.units.Store(1 << 30)
	s := newTestScheduler(t, 2, bg, nil)
	start := time.Now()
	done := make(chan struct{})
	s.spawn(func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("task starved by background work")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("task waited %v behind background work", elapsed)
	}
}

func TestSchedulerBackgroundTimeAccounted(t *testing.T) {
	bg := &fakeBg{cost: 200 * time.Microsecond}
	bg.units.Store(50)
	reg := counters.NewRegistry()
	s := newTestScheduler(t, 1, bg, reg)
	deadline := time.Now().Add(2 * time.Second)
	for bg.done.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := s.stats(); st.Background < 5*time.Millisecond {
		t.Errorf("background time = %v, want >= 10ms-ish", st.Background)
	}
	if v, err := reg.Value("/threads{locality#0}/background-work"); err != nil || v <= 0 {
		t.Errorf("background-work counter = %v, %v", v, err)
	}
}

func TestSchedulerSpawnAfterStop(t *testing.T) {
	s := newScheduler(schedConfig{locality: 0, workers: 1}, &fakeBg{})
	s.start()
	s.stop()
	if s.spawn(func() {}) {
		t.Error("spawn after stop should fail")
	}
}

func TestSchedulerPending(t *testing.T) {
	// One worker blocked on a long task; further spawns stay pending.
	s := newTestScheduler(t, 1, nil, nil)
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	s.spawn(func() { <-block; wg.Done() })
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		s.spawn(func() { wg.Done() })
	}
	if got := s.pending(); got != 5 {
		t.Errorf("pending = %d, want 5", got)
	}
	close(block)
	wg.Wait()
	if got := s.pending(); got != 0 {
		t.Errorf("pending after drain = %d", got)
	}
}

func TestSchedulerTaskOverheadCounter(t *testing.T) {
	reg := counters.NewRegistry()
	bg := &fakeBg{}
	s := newScheduler(schedConfig{
		locality: 0, workers: 1, taskOverhead: 100 * time.Microsecond, registry: reg,
	}, bg)
	s.start()
	defer s.stop()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		s.spawn(func() { wg.Done() })
	}
	wg.Wait()
	// Eq. 2: average overhead per task ≈ the configured cost (µs).
	v, err := reg.Value("/threads{locality#0}/time/average-overhead")
	if err != nil {
		t.Fatal(err)
	}
	if v < 80 || v > 2000 {
		t.Errorf("average task overhead = %vµs, want ≈ 100µs", v)
	}
	st := s.stats()
	if st.CumFunc-st.CumExec < 500*time.Microsecond {
		t.Errorf("cumulative overhead = %v", st.CumFunc-st.CumExec)
	}
}

func TestSchedulerIdleRateBounds(t *testing.T) {
	s := newTestScheduler(t, 2, nil, nil)
	time.Sleep(10 * time.Millisecond)
	v := s.idleRate.Value()
	if v < 0 || v > 1 {
		t.Errorf("idle rate = %v", v)
	}
}

func TestSchedulerIdleRateFrozenAfterStop(t *testing.T) {
	s := newScheduler(schedConfig{locality: 0, workers: 2}, &fakeBg{})
	s.start()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		s.spawn(func() { time.Sleep(100 * time.Microsecond); wg.Done() })
	}
	wg.Wait()
	s.stop()
	v1 := s.idleRate.Value()
	time.Sleep(50 * time.Millisecond)
	v2 := s.idleRate.Value()
	if v1 != v2 {
		t.Errorf("idle rate decayed after stop: %v -> %v", v1, v2)
	}
	if v1 < 0 || v1 > 1 {
		t.Errorf("idle rate out of bounds: %v", v1)
	}
}

// TestSchedulerSpawnDuringStopDoesNotBlock pins down the shutdown race
// the single-channel scheduler had: a spawn concurrent with stop could
// block forever on a full queue. The enqueue path never blocks, so
// spawners racing stop must always return promptly (possibly false).
func TestSchedulerSpawnDuringStopDoesNotBlock(t *testing.T) {
	s := newScheduler(schedConfig{locality: 0, workers: 1, queueSize: 16}, &fakeBg{})
	s.start()
	// Wedge the only worker so queues cannot drain.
	block := make(chan struct{})
	s.spawn(func() { <-block })
	time.Sleep(2 * time.Millisecond)

	const spawners = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < spawners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !s.spawn(func() {}) {
					return // scheduler stopping: expected exit
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	stopped := make(chan struct{})
	go func() {
		close(block)
		s.stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not complete while spawners were racing it")
	}
	close(done)
	spawnersDone := make(chan struct{})
	go func() { wg.Wait(); close(spawnersDone) }()
	select {
	case <-spawnersDone:
	case <-time.After(5 * time.Second):
		t.Fatal("a spawn blocked across stop")
	}
	if s.spawn(func() {}) {
		t.Error("spawn after stop should fail")
	}
}

// TestSchedulerStealHeavyDeterminism preloads a single worker's run
// queue and lets the rest of the pool steal. Whatever the interleaving,
// the batched accounting must aggregate to the serial sums: the task
// count exact, cumulative time at least the work performed, and the
// average-overhead counter exactly (Σt_func-Σt_exec)/n_t.
func TestSchedulerStealHeavyDeterminism(t *testing.T) {
	reg := counters.NewRegistry()
	s := newScheduler(schedConfig{
		locality: 0, workers: 8, taskOverhead: 20 * time.Microsecond, registry: reg,
	}, &fakeBg{})
	s.start()
	const n = 500
	spin := 50 * time.Microsecond
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		if !s.spawnTo(0, func() { timer.Spin(spin); wg.Done() }) {
			t.Fatal("spawnTo failed")
		}
	}
	wg.Wait()
	// wg.Done runs inside the task body; the instrumentation epilogue
	// (the trailing overhead spin and delta updates) completes a few µs
	// later, so give in-flight epilogues a moment before asserting.
	st := waitTasks(t, s, n)
	if st.Tasks != n {
		t.Errorf("tasks = %d, want %d", st.Tasks, n)
	}
	if got := s.spawned(); got != n {
		t.Errorf("spawned = %d, want %d", got, n)
	}
	if st.CumExec < n*spin {
		t.Errorf("cumExec = %v, want >= %v", st.CumExec, n*spin)
	}
	if st.CumFunc < st.CumExec {
		t.Errorf("cumFunc %v < cumExec %v", st.CumFunc, st.CumExec)
	}
	// Exactness of the batched average: mean * count == Σ(func-exec).
	wantSum := float64(st.CumFunc-st.CumExec) / float64(time.Microsecond)
	gotSum := st.AvgOverhead * float64(st.Tasks)
	if diff := gotSum - wantSum; diff > 1e-6*wantSum+1e-3 || diff < -1e-6*wantSum-1e-3 {
		t.Errorf("avgOverhead*count = %v µs, want %v µs", gotSum, wantSum)
	}
	if st.BgOverhead < 0 || st.BgOverhead > 1 {
		t.Errorf("background-overhead = %v, want in [0,1]", st.BgOverhead)
	}
	// Registry reads agree without an explicit stats() flush in between.
	if v, err := reg.Value("/threads{locality#0}/count/cumulative"); err != nil || v != n {
		t.Errorf("registry count/cumulative = %v, %v", v, err)
	}
	s.stop()
	if st2 := s.stats(); st2.Tasks != n {
		t.Errorf("tasks after stop = %d", st2.Tasks)
	}
}

// TestSchedulerCountersExactBetweenFlushes verifies read-time exactness
// of the batched accounting: with fewer tasks than a flush interval and
// the scheduler still running, stats() and registry reads must already
// see every completed task.
func TestSchedulerCountersExactBetweenFlushes(t *testing.T) {
	reg := counters.NewRegistry()
	bg := &fakeBg{}
	bg.units.Store(200)
	s := newScheduler(schedConfig{locality: 0, workers: 4, registry: reg}, bg)
	s.start()
	defer s.stop()
	for _, n := range []int{10, flushEvery + 50} {
		start := s.stats().Tasks
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			s.spawn(func() { wg.Done() })
		}
		wg.Wait()
		if got := waitTasks(t, s, start+int64(n)).Tasks - start; got != int64(n) {
			t.Errorf("stats mid-run: %d new tasks, want %d", got, n)
		}
		if v, err := reg.Value("/threads{locality#0}/count/cumulative"); err != nil || v != float64(start)+float64(n) {
			t.Errorf("registry mid-run = %v, %v", v, err)
		}
	}
	if v, err := reg.Value("/threads{locality#0}/background-overhead"); err != nil || v < 0 || v > 1 {
		t.Errorf("background-overhead = %v, %v", v, err)
	}
}

// TestSchedulerConcurrentSpawnStealStatsRace exercises spawn, stealing,
// counter flushes, stats() snapshots and registry reads concurrently
// with shutdown; run under -race it validates the synchronization of
// the per-worker run queues and accounting blocks.
func TestSchedulerConcurrentSpawnStealStatsRace(t *testing.T) {
	reg := counters.NewRegistry()
	bg := &fakeBg{}
	bg.units.Store(1 << 20)
	s := newScheduler(schedConfig{locality: 0, workers: 4, registry: reg}, bg)
	s.start()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.stats()
				if st.BgOverhead < 0 || st.BgOverhead > 1 {
					t.Errorf("bgOverhead = %v", st.BgOverhead)
					return
				}
				_, _ = reg.Value("/threads{locality#0}/time/average-overhead")
				_, _ = reg.Value("/threads{locality#0}/idle-rate")
			}
		}()
	}
	var spawners, tasks sync.WaitGroup
	var ran atomic.Int64
	const perSpawner, nSpawners = 2000, 4
	for g := 0; g < nSpawners; g++ {
		spawners.Add(1)
		go func(g int) {
			defer spawners.Done()
			for i := 0; i < perSpawner; i++ {
				tasks.Add(1)
				ok := s.spawnTo(g%2, func() { ran.Add(1); tasks.Done() })
				if !ok {
					tasks.Done()
				}
			}
		}(g)
	}
	spawners.Wait()
	tasks.Wait()
	close(stop)
	readers.Wait()
	s.stop()
	if got := s.stats().Tasks; got != ran.Load() {
		t.Errorf("counted %d tasks, ran %d", got, ran.Load())
	}
	if ran.Load() != perSpawner*nSpawners {
		t.Errorf("ran = %d, want %d", ran.Load(), perSpawner*nSpawners)
	}
}

// TestSchedulerBackgroundNotStarvedUnderLoad keeps every worker
// saturated with tasks and verifies background network work still makes
// progress through the periodic in-band check.
func TestSchedulerBackgroundNotStarvedUnderLoad(t *testing.T) {
	bg := &fakeBg{}
	bg.units.Store(1 << 20)
	s := newScheduler(schedConfig{locality: 0, workers: 2}, bg)
	s.start()
	defer s.stop()
	stop := make(chan struct{})
	var feeders sync.WaitGroup
	// Self-perpetuating task chains keep the queues non-empty.
	var chain func()
	chain = func() {
		select {
		case <-stop:
		default:
			s.spawn(chain)
		}
	}
	for i := 0; i < 8; i++ {
		feeders.Add(1)
		go func() { defer feeders.Done(); s.spawn(chain) }()
	}
	feeders.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for bg.done.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if bg.done.Load() == 0 {
		t.Error("background work starved under continuous task load")
	}
}

// TestExecuteStampsWithTheSpinsReadings pins what Eq. 2 reads under the
// task-overhead model. execStart and funcEnd are the readings that ended
// the two spins, so a task's t_func − t_exec is the two spin spans and
// nothing else: never less than the configured overhead (a spin runs to its
// deadline), and in the median under 200 ns more (two poll overshoots; the
// four extra stamps this replaced cost more than that on their own). The
// scheduler is not started: the test goroutine is the worker.
func TestExecuteStampsWithTheSpinsReadings(t *testing.T) {
	const (
		n        = 2000
		overhead = 2 * time.Microsecond
	)
	s := newScheduler(schedConfig{workers: 1, taskOverhead: overhead}, &fakeBg{})
	w := s.workers[0]
	var body time.Duration
	run := task{run: func() {
		start := timer.Mono()
		timer.Spin(300 * time.Nanosecond)
		body = time.Duration(timer.Mono() - start)
	}}
	excess := make([]time.Duration, n)
	var prev schedStats
	for i := range excess {
		s.executeBatch(w, run, false)
		st := s.stats()
		tFunc, tExec := st.CumFunc-prev.CumFunc, st.CumExec-prev.CumExec
		if st.Tasks != int64(i+1) || tExec < body || tFunc-tExec < overhead {
			t.Fatalf("task %d: counted %d, t_func %v, t_exec %v around a body of %v; want t_exec ≥ body and t_func − t_exec ≥ %v",
				i, st.Tasks, tFunc, tExec, body, overhead)
		}
		excess[i], prev = tFunc-tExec-overhead, st
	}
	sort.Slice(excess, func(i, j int) bool { return excess[i] < excess[j] })
	t.Logf("t_func − t_exec − %v over %d tasks: p50 %v, p99 %v", overhead, n, excess[n/2], excess[n*99/100])
	if !raceEnabled && excess[n/2] >= 200*time.Nanosecond {
		t.Errorf("p50 of t_func − t_exec is %v above the model, want < 200ns", excess[n/2])
	}
}
