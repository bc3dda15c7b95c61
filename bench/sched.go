package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/timer"
)

// Scheduler micro-benchmarks, on the work-stealing scheduler without a
// runtime around it (runtime.SchedBench): spawn/execute throughput at
// several worker counts on fine-grained tasks, cold-start empty-task
// latency through the park/wake path, a steal-heavy imbalanced load, and
// background network work under task saturation.

// SchedSpawnExecute measures end-to-end spawn+execute throughput:
// `workers` producer goroutines spawn b.N fine-grained tasks
// (taskSpin of busy work each; 0 means empty) and wait for all of them
// to finish. ns/op is the per-task cost of the whole scheduling cycle.
func SchedSpawnExecute(b *testing.B, workers int, taskSpin time.Duration) {
	p := runtime.NewSchedBench(runtime.SchedBenchConfig{Workers: workers})
	defer p.Stop()
	body := func() {}
	if taskSpin > 0 {
		body = func() { timer.Spin(taskSpin) }
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(b.N)
	task := func() { body(); wg.Done() }
	per := b.N / workers
	extra := b.N - per*workers
	var producers sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		producers.Add(1)
		go func(n int) {
			defer producers.Done()
			for i := 0; i < n; i++ {
				if !p.Spawn(task) {
					b.Error("spawn failed")
					return
				}
			}
		}(n)
	}
	producers.Wait()
	wg.Wait()
	b.StopTimer()
	// The last task's accounting epilogue runs just after its body
	// signals the WaitGroup, so give the counter a moment to catch up.
	deadline := time.Now().Add(time.Second)
	for p.Stats().Tasks < int64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("executed %d of %d tasks", p.Stats().Tasks, b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// SchedEmptyTaskLatency measures the cold-path latency of one task
// spawned into an otherwise idle scheduler: the spawn, the wake of a
// parked worker, the execution and the completion signal.
func SchedEmptyTaskLatency(b *testing.B, workers int) {
	p := runtime.NewSchedBench(runtime.SchedBenchConfig{Workers: workers})
	defer p.Stop()
	done := make(chan struct{})
	task := func() { done <- struct{}{} }
	// Let the workers reach their deepest idle state before measuring.
	time.Sleep(5 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Spawn(task) {
			b.Fatal("spawn failed")
		}
		<-done
	}
}

// SchedStealImbalance preloads every task onto a single worker's run
// queue, so the rest of the pool makes progress only by stealing.
func SchedStealImbalance(b *testing.B, workers int) {
	p := runtime.NewSchedBench(runtime.SchedBenchConfig{Workers: workers})
	defer p.Stop()
	b.ReportAllocs()
	var wg sync.WaitGroup
	wg.Add(b.N)
	task := func() { timer.Spin(time.Microsecond); wg.Done() }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.SpawnTo(0, task) {
			b.Fatal("spawn failed")
		}
	}
	wg.Wait()
}

// SchedBackgroundStarvation saturates the pool with a steady task
// stream while background network work is always available, and reports
// how many background units were processed per executed task
// (bg-units/task): the scheduler interleaves a periodic background batch
// even when tasks are runnable.
func SchedBackgroundStarvation(b *testing.B, workers int) {
	var bgDone atomic.Int64
	bg := func(maxUnits int) int {
		bgDone.Add(int64(maxUnits))
		return maxUnits
	}
	p := runtime.NewSchedBench(runtime.SchedBenchConfig{Workers: workers, Background: bg})
	defer p.Stop()
	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(b.N)
	task := func() { timer.Spin(time.Microsecond); wg.Done() }
	for i := 0; i < b.N; i++ {
		if !p.Spawn(task) {
			b.Fatal("spawn failed")
		}
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(bgDone.Load())/float64(b.N), "bg-units/task")
}

// SchedBenchName names a scheduler benchmark variant.
func SchedBenchName(kind string, workers int) string {
	return fmt.Sprintf("Sched%s/workers=%d", kind, workers)
}
