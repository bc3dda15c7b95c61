package runtime

import (
	"testing"
	"time"

	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/reliable"
)

// The quiescence-flush tests stretch the fallback park (testFallbackPark)
// and, wherever only the idle flush may deliver, the coalescing interval
// to a second: every bound below is far under either.

// The fake background sources of scheduler_test.go and wake_test.go hold
// nothing back, so the quiescence hook has nothing to do for them.
func (*fakeBg) FlushIdle()    {}
func (*busyBg) FlushIdle()    {}
func (*handOffBg) FlushIdle() {}

const idleSink = "idle/sink"

// newIdleFlushRuntime builds two localities over fab with idleSink
// coalesced at the given parameters and counting its executions on
// locality 1 into the returned channel.
func newIdleFlushRuntime(t *testing.T, fab network.Fabric, workers int, params coalescing.Params) (*Runtime, chan time.Time) {
	t.Helper()
	rt := New(Config{
		Localities:         2,
		WorkersPerLocality: workers,
		Fabric:             fab,
		fallbackPark:       testFallbackPark,
	})
	t.Cleanup(rt.Shutdown)
	arrived := make(chan time.Time, 1024)
	rt.MustRegisterAction(idleSink, func(ctx *Context, args []byte) ([]byte, error) {
		arrived <- time.Now()
		return nil, nil
	})
	if err := rt.EnableCoalescing(idleSink, params); err != nil {
		t.Fatal(err)
	}
	return rt, arrived
}

func simFabric(t *testing.T) network.Fabric {
	fab := network.NewSimFabric(2, fastModel())
	t.Cleanup(func() { _ = fab.Close() })
	return fab
}

// destCount reads one of locality 0's per-destination coalescing counters
// toward locality 1 for idleSink.
func destCount(t *testing.T, rt *Runtime, name string) int64 {
	t.Helper()
	return int64(counterValue(t, rt, "/coalescing{locality#0}/dest/1/count/"+name+"@"+idleSink))
}

func awaitArrivals(t *testing.T, arrived chan time.Time, n int, start time.Time, bound time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case at := <-arrived:
			if d := at.Sub(start); d > bound {
				t.Fatalf("parcel %d of %d arrived after %v, want < %v", i+1, n, d, bound)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("parcel %d of %d never arrived", i+1, n)
		}
	}
}

// TestIdleFlushDeliversPartialBatch: a task applies fewer parcels than
// the queue holds and ends. With the flush timer a second away, only the
// worker's running dry can send them, and it must do so at once, on both
// fabric stacks, without any park waiting out its fallback.
func TestIdleFlushDeliversPartialBatch(t *testing.T) {
	const bound = 50 * time.Millisecond
	stacks := map[string]func(t *testing.T) network.Fabric{
		"sim": simFabric,
		"reliable-tcp": func(t *testing.T) network.Fabric {
			tcp, err := network.NewTCPFabric(2)
			if err != nil {
				t.Fatal(err)
			}
			rel := reliable.New(tcp, reliable.Config{})
			t.Cleanup(func() { _ = rel.Close(); _ = tcp.Close() })
			return rel
		},
	}
	for name, mk := range stacks {
		t.Run(name, func(t *testing.T) {
			rt, arrived := newIdleFlushRuntime(t, mk(t), 1, coalescing.Params{NParcels: 64, Interval: time.Second})
			const rounds, perTask = 20, 5
			for round := 0; round < rounds; round++ {
				waitAllParked(t, rt)
				start := time.Now()
				rt.Locality(0).Spawn(func() {
					for i := 0; i < perTask; i++ {
						if err := rt.Locality(0).Apply(1, idleSink, []byte{byte(i)}); err != nil {
							t.Error(err)
						}
					}
				})
				awaitArrivals(t, arrived, perTask, start, bound)
			}
			if n := destCount(t, rt, "flushed-timer"); n != 0 {
				t.Errorf("flushed-timer = %d, want 0: the timer is a second away", n)
			}
			if n := destCount(t, rt, "flushed-idle"); n < 1 || n > rounds {
				t.Errorf("flushed-idle = %d, want 1..%d", n, rounds)
			}
			if q, d := destCount(t, rt, "queued"), destCount(t, rt, "direct"); q != rounds*perTask || d != 0 {
				t.Errorf("queued = %d, direct = %d, want %d and 0", q, d, rounds*perTask)
			}
			for _, inst := range []string{"locality#0", "locality#1"} {
				if v := counterValue(t, rt, "/threads{"+inst+"}/count/park-timeouts"); v != 0 {
					t.Errorf("%s: %v parks ended by the fallback timer, want 0", inst, v)
				}
			}
			// The flush and the send it causes are background work (Eq. 3).
			if bg := rt.Locality(0).SchedStats().Background; bg <= 0 {
				t.Errorf("locality 0 background work = %v, want the idle flushes charged to it", bg)
			}
		})
	}
}

// TestIdleFlushWaitsForLastWorker: while one worker is still inside a
// producing task, its peers running dry — again and again — flush
// nothing, so the producer's messages stay full; the remainder goes the
// moment the producer's worker runs dry too.
func TestIdleFlushWaitsForLastWorker(t *testing.T) {
	const nparcels, full, rest = 16, 3, 5
	rt, arrived := newIdleFlushRuntime(t, simFabric(t), 4, coalescing.Params{NParcels: nparcels, Interval: time.Second})
	s := rt.Locality(0).sched
	step, stepped := make(chan struct{}), make(chan struct{})
	rt.Locality(0).Spawn(func() {
		for range step {
			if err := rt.Locality(0).Apply(1, idleSink, nil); err != nil {
				t.Error(err)
			}
			stepped <- struct{}{}
		}
	})
	start := time.Now()
	for i := 0; i < full*nparcels+rest; i++ {
		step <- struct{}{}
		<-stepped
		// A short task makes some peer busy and then dry while the
		// producer sits blocked inside its own.
		done := make(chan struct{})
		rt.Locality(0).Spawn(func() { close(done) })
		<-done
		if !eventually(5*time.Second, func() bool { return s.nBusy.Load() == 1 }) {
			t.Fatalf("nBusy = %d with only the producer inside a task, want 1", s.nBusy.Load())
		}
		if n := destCount(t, rt, "flushed-idle"); n != 0 {
			t.Fatalf("after parcel %d: %d idle flushes while the producer is still running", i+1, n)
		}
	}
	awaitArrivals(t, arrived, full*nparcels, start, 5*time.Second)
	select {
	case <-arrived:
		t.Fatal("a parcel of the partial batch arrived while the producer was still running")
	case <-time.After(20 * time.Millisecond):
	}

	start = time.Now()
	close(step)
	awaitArrivals(t, arrived, rest, start, 50*time.Millisecond)
	st := rt.Coalescers(idleSink)[0].Stats()
	if st.Messages != full+1 {
		t.Errorf("messages = %d, want %d full and one partial", st.Messages, full)
	}
	if f, i, tm := destCount(t, rt, "flushed-full"), destCount(t, rt, "flushed-idle"), destCount(t, rt, "flushed-timer"); f != full || i != 1 || tm != 0 {
		t.Errorf("flushed full/idle/timer = %d/%d/%d, want %d/1/0", f, i, tm, full)
	}
}

// TestIdleFlushOnceWhenWorkersRunDryTogether: two tasks on two workers
// each queue a parcel and end at the same instant. Exactly one of the
// workers is the last to run dry, so the two parcels leave in exactly one
// message, every round: neither worker may skip the flush on the other's
// account, and they may not both perform it.
func TestIdleFlushOnceWhenWorkersRunDryTogether(t *testing.T) {
	rt, arrived := newIdleFlushRuntime(t, simFabric(t), 2, coalescing.Params{NParcels: 64, Interval: time.Second})
	s := rt.Locality(0).sched
	const rounds = 200
	for round := 1; round <= rounds; round++ {
		apply := func() {
			if err := rt.Locality(0).Apply(1, idleSink, nil); err != nil {
				t.Error(err)
			}
		}
		// The second task is spawned once the first is blocked inside its
		// body (a spawn that meets a searching worker wakes nobody, and a
		// task blocked behind it would wait for the fallback park), and
		// releases it as its own last act: both parcels are queued before
		// either task ends, and the tasks end together.
		queued, release := make(chan struct{}), make(chan struct{})
		start := time.Now()
		s.spawnTo(0, func() { apply(); close(queued); <-release })
		<-queued
		s.spawnTo(1, func() { apply(); close(release) })
		awaitArrivals(t, arrived, 2, start, 50*time.Millisecond)
		if !eventually(5*time.Second, func() bool { return s.nBusy.Load() == 0 }) {
			t.Fatalf("round %d: nBusy = %d after both tasks ended", round, s.nBusy.Load())
		}
		if n := destCount(t, rt, "flushed-idle"); n != int64(round) {
			t.Fatalf("round %d: flushed-idle = %d, want one flush per round", round, n)
		}
	}
	if st := rt.Coalescers(idleSink)[0].Stats(); st.Messages != rounds || st.Parcels != 2*rounds {
		t.Errorf("%d parcels in %d messages, want %d in %d", st.Parcels, st.Messages, 2*rounds, rounds)
	}
	if n := destCount(t, rt, "flushed-timer"); n != 0 {
		t.Errorf("flushed-timer = %d, want 0", n)
	}
}

// TestOutsidePutIntoParkedLocalityWaitsForTimer pins what the quiescence
// flush is not: a poll. A goroutine outside the pool queues a parcel in a
// locality whose workers are parked; no worker runs dry on its account, so
// the parcel waits for Algorithm 1's flush timer — the cost the
// sparse-bypass ablation measures (EXPERIMENTS.md).
func TestOutsidePutIntoParkedLocalityWaitsForTimer(t *testing.T) {
	const interval = 20 * time.Millisecond
	rt, arrived := newIdleFlushRuntime(t, simFabric(t), 1, coalescing.Params{NParcels: 64, Interval: interval})
	const rounds = 5
	for round := 0; round < rounds; round++ {
		waitAllParked(t, rt)
		if round > 0 {
			time.Sleep(2 * interval) // so this round's first parcel bypasses
		}
		start := time.Now()
		var last time.Time
		// Two back to back: after a gap the first leaves at once by the
		// sparse-traffic rule (the very first of all is queued, there
		// being no gap yet), the second is queued behind it.
		for i := 0; i < 2; i++ {
			if err := rt.Locality(0).Apply(1, idleSink, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			select {
			case last = <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: parcel %d never arrived", round, i)
			}
		}
		if d := last.Sub(start); d < interval*9/10 {
			t.Errorf("round %d: the queued parcel arrived after %v, before its %v timer", round, d, interval)
		}
	}
	if n := destCount(t, rt, "flushed-idle"); n != 0 {
		t.Errorf("flushed-idle = %d, want 0: no task ran on locality 0", n)
	}
	if n := destCount(t, rt, "flushed-timer"); n != rounds {
		t.Errorf("flushed-timer = %d, want %d", n, rounds)
	}
}

// TestFunctionSourcesIgnoreIdleHook: the benchmark scheduler's function-
// backed source satisfies the widened interface with a no-op, so a worker
// running dry over one does its background work exactly as before.
func TestFunctionSourcesIgnoreIdleHook(t *testing.T) {
	var _ backgroundWorker = BackgroundFunc(nil)
	BackgroundFunc(nil).FlushIdle()
	b := NewSchedBench(SchedBenchConfig{Workers: 2, Background: func(int) int { return 0 }})
	defer b.Stop()
	for i := 0; i < 100; i++ {
		done := make(chan struct{})
		b.Spawn(func() { close(done) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("task %d never ran", i)
		}
	}
}
