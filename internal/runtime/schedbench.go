package runtime

// This file exports just enough of the scheduler to the bench/ and
// benchmark/ packages: a thin handle over the work-stealing scheduler.

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
		locality: 0,
		workers:  cfg.Workers,
	}, cfg.Background)
	s.start()
	return &SchedBench{s: s}
}

// Spawn schedules fn onto the run queue the caller's P-local hint picks.
func (b *SchedBench) Spawn(fn func()) bool { return b.s.spawn(fn) }

// SpawnTo schedules fn onto worker i's run queue, constructing
// deliberately imbalanced (steal-heavy) workloads.
func (b *SchedBench) SpawnTo(i int, fn func()) bool { return b.s.spawnTo(i, fn) }

// Stats returns the exact Section III snapshot.
func (b *SchedBench) Stats() SchedStats { return SchedStats(b.s.stats()) }

// Stop shuts the scheduler down.
func (b *SchedBench) Stop() { b.s.stop() }
