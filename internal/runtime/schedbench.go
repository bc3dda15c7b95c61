package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/timer"
)

// This file exports just enough of the scheduler to the bench/ package:
// a thin handle over the work-stealing scheduler, and a faithful replica
// of the seed's single-channel scheduler so the work-stealing speedup is
// measured against the design it replaced rather than assumed.

// BackgroundFunc adapts a function to the scheduler's background-work
// interface.
type BackgroundFunc func(maxUnits int) int

// DoBackgroundWork implements the scheduler's background-work source.
func (f BackgroundFunc) DoBackgroundWork(maxUnits int) int {
	if f == nil {
		return 0
	}
	return f(maxUnits)
}

// Pending implements the scheduler's background-work source. A bare
// function cannot say whether it has work, and it cannot wake a parked
// worker either; see SchedBenchConfig.Background for what that demands
// of the function.
func (f BackgroundFunc) Pending() bool { return false }

// FlushIdle implements the scheduler's background-work source: a bare
// function holds nothing back.
func (f BackgroundFunc) FlushIdle() {}

// SchedBenchConfig configures a benchmark scheduler instance.
type SchedBenchConfig struct {
	// Workers sizes the pool.
	Workers int
	// TaskOverhead is the modeled per-task thread-management cost
	// (0 disables, matching fine-grained empty-task benchmarks).
	TaskOverhead time.Duration
	// Background supplies background network work; nil means none. The
	// function must have work on every call (return > 0 always), as the
	// starvation benchmark's does: the scheduler no longer polls its
	// source by timer, and a function — unlike the parcel port — can
	// neither report pending work nor wake a parked worker, so work that
	// appears while the pool is parked would wait for the next task or
	// the 10 ms fallback park.
	Background BackgroundFunc
}

// SchedBench drives the production work-stealing scheduler directly,
// without a runtime, fabric, or parcel port around it.
type SchedBench struct {
	s *scheduler
}

// NewSchedBench builds and starts a work-stealing scheduler.
func NewSchedBench(cfg SchedBenchConfig) *SchedBench {
	s := newScheduler(schedConfig{
		locality:     0,
		workers:      cfg.Workers,
		taskOverhead: cfg.TaskOverhead,
	}, cfg.Background)
	s.start()
	return &SchedBench{s: s}
}

// Spawn schedules fn through the round-robin inject path.
func (b *SchedBench) Spawn(fn func()) bool { return b.s.spawn(fn) }

// SpawnTo schedules fn onto worker i's inject queue, constructing
// deliberately imbalanced (steal-heavy) workloads.
func (b *SchedBench) SpawnTo(i int, fn func()) bool { return b.s.spawnTo(i, fn) }

// Stats returns the exact Section III snapshot.
func (b *SchedBench) Stats() SchedStats { return SchedStats(b.s.stats()) }

// Stop shuts the scheduler down.
func (b *SchedBench) Stop() { b.s.stop() }

// ChanSchedBench replicates the pre-work-stealing scheduler task for
// task: one shared buffered channel all workers receive from, four
// shared counter updates (three atomics plus a mutex-guarded Welford
// average) and four clock reads per task, and an unconditional 20 µs
// sleep when neither tasks nor background work are available. It exists
// only as the benchmark baseline.
type ChanSchedBench struct {
	queue chan task
	bg    BackgroundFunc
	quit  chan struct{}
	wg    sync.WaitGroup

	taskOverhead time.Duration

	numTasks    atomic.Int64
	cumFuncNs   atomic.Int64
	cumExecNs   atomic.Int64
	bgNs        atomic.Int64
	avgOverhead *counters.Average
}

// NewChanSchedBench builds and starts a single-channel scheduler.
func NewChanSchedBench(cfg SchedBenchConfig) *ChanSchedBench {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	b := &ChanSchedBench{
		queue:        make(chan task, 1<<16),
		bg:           cfg.Background,
		quit:         make(chan struct{}),
		taskOverhead: cfg.TaskOverhead,
		avgOverhead: counters.NewAverage(counters.Path{
			Object: "threads", Instance: "bench", Name: "time/average-overhead",
		}),
	}
	for i := 0; i < workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

// Spawn enqueues a task exactly as the seed scheduler did.
func (b *ChanSchedBench) Spawn(fn func()) bool {
	select {
	case <-b.quit:
		return false
	default:
	}
	b.queue <- task{run: fn}
	return true
}

// Stats returns the baseline's counter snapshot in the same shape as
// the work-stealing scheduler's.
func (b *ChanSchedBench) Stats() SchedStats {
	bgNs := b.bgNs.Load()
	funcNs := b.cumFuncNs.Load()
	st := SchedStats{
		Tasks:       b.numTasks.Load(),
		CumFunc:     time.Duration(funcNs),
		CumExec:     time.Duration(b.cumExecNs.Load()),
		Background:  time.Duration(bgNs),
		AvgOverhead: b.avgOverhead.Value(),
	}
	if busy := funcNs + bgNs; busy > 0 {
		st.BgOverhead = float64(bgNs) / float64(busy)
	}
	return st
}

// Stop shuts the pool down.
func (b *ChanSchedBench) Stop() {
	close(b.quit)
	b.wg.Wait()
}

func (b *ChanSchedBench) worker() {
	defer b.wg.Done()
	for {
		select {
		case t := <-b.queue:
			b.execute(t)
			continue
		default:
		}
		select {
		case t := <-b.queue:
			b.execute(t)
		case <-b.quit:
			return
		default:
			bgStart := time.Now()
			if n := b.bg.DoBackgroundWork(8); n > 0 {
				b.bgNs.Add(int64(time.Since(bgStart)))
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
}

func (b *ChanSchedBench) execute(t task) {
	funcStart := time.Now()
	if b.taskOverhead > 0 {
		timer.Spin(b.taskOverhead / 2)
	}
	execStart := time.Now()
	t.run()
	execDur := time.Since(execStart)
	if b.taskOverhead > 0 {
		timer.Spin(b.taskOverhead / 2)
	}
	b.cumExecNs.Add(int64(execDur))
	b.numTasks.Add(1)
	funcDur := time.Since(funcStart)
	b.cumFuncNs.Add(int64(funcDur))
	b.avgOverhead.RecordDuration(funcDur - execDur)
}
