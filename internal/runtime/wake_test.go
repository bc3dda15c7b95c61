package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/reliable"
)

// These tests stretch the fallback park to a second: anything that still
// depended on the park timer to find port work would take that long, and
// every bound below is far under it.
const testFallbackPark = time.Second

// spinSink keeps TestNoLostWakeUp's delay loop from being optimized away.
var spinSink int

// waitAllParked spins until every worker of every hosted locality is
// parked, so the next message meets an idle runtime.
func waitAllParked(t *testing.T, rt *Runtime) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked := true
		for _, l := range rt.locs {
			if l.hosted && int(l.sched.nParked.Load()) != len(l.sched.workers) {
				parked = false
			}
		}
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("workers never went idle")
		}
		goruntime.Gosched()
	}
}

// eventually polls cond until it holds or within elapses, and reports
// whether it held.
func eventually(within time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(within); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

func counterValue(t *testing.T, rt *Runtime, path string) float64 {
	t.Helper()
	v, err := rt.Counters().Value(path)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestIdleLocalityWokenByPortTraffic sends to a fully parked runtime
// over both fabric stacks: an uncoalesced Async echo (direct enqueue on
// the way out, rx push on both sides, the response's enqueue from a task),
// and coalesced Applies — one that the sparse-traffic rule hands straight
// to EnqueueParcel and one that waits in the queue for the flush timer's
// goroutine. Each must complete in well under the fallback park, and no
// park may end by timeout while the traffic flows.
func TestIdleLocalityWokenByPortTraffic(t *testing.T) {
	const bound = 50 * time.Millisecond
	stacks := map[string]func(t *testing.T) network.Fabric{
		"sim": func(t *testing.T) network.Fabric {
			fab := network.NewSimFabric(2, fastModel())
			t.Cleanup(func() { _ = fab.Close() })
			return fab
		},
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
			rt := New(Config{
				Localities: 2,
				// One worker each: every message needs it, so it is never
				// left parked long enough for the fallback to fire unless
				// a wake-up was lost. (Of two, the one not chosen by
				// wakeOne may rightly sleep its park out.)
				WorkersPerLocality: 1,
				Fabric:             mk(t),
				fallbackPark:       testFallbackPark,
			})
			t.Cleanup(rt.Shutdown)
			rt.MustRegisterAction("wake/echo", func(ctx *Context, args []byte) ([]byte, error) {
				return args, nil
			})
			arrived := make(chan time.Time, 4)
			rt.MustRegisterAction("wake/sink", func(ctx *Context, args []byte) ([]byte, error) {
				arrived <- time.Now()
				return nil, nil
			})
			interval := 2 * time.Millisecond
			if err := rt.EnableCoalescing("wake/sink", coalescing.Params{NParcels: 64, Interval: interval}); err != nil {
				t.Fatal(err)
			}

			for round := 0; round < 20; round++ {
				waitAllParked(t, rt)
				start := time.Now()
				fut, err := rt.Locality(0).Async(1, "wake/echo", []byte("ping"))
				if err != nil {
					t.Fatal(err)
				}
				if v, err := fut.GetWithTimeout(5 * time.Second); err != nil || string(v) != "ping" {
					t.Fatalf("echo = %q, %v", v, err)
				}
				if d := time.Since(start); d > bound {
					t.Fatalf("round %d: echo to an idle locality took %v, want < %v", round, d, bound)
				}

				// Two parcels back to back, more than an interval after
				// the previous round's: the first goes out at once (the
				// very first of all is queued, there being no gap yet),
				// the second waits for the timer goroutine.
				waitAllParked(t, rt)
				time.Sleep(2 * interval)
				start = time.Now()
				for i := 0; i < 2; i++ {
					if err := rt.Locality(0).Apply(1, "wake/sink", []byte{byte(i)}); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 2; i++ {
					select {
					case at := <-arrived:
						if d := at.Sub(start); d > bound {
							t.Fatalf("round %d: coalesced parcel %d took %v, want < %v", round, i, d, bound)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("round %d: coalesced parcel %d never arrived", round, i)
					}
				}
			}

			ds := rt.Coalescers("wake/sink")[0].DestStats(1)
			if ds.FlushedTimer == 0 || ds.Bypass == 0 {
				t.Errorf("paths not both exercised: %d timer flushes, %d bypasses", ds.FlushedTimer, ds.Bypass)
			}
			for _, inst := range []string{"locality#0", "locality#1"} {
				if v := counterValue(t, rt, "/threads{"+inst+"}/count/park-timeouts"); v != 0 {
					t.Errorf("%s: %v parks ended by the fallback timer while traffic flowed, want 0", inst, v)
				}
				if v := counterValue(t, rt, "/threads{"+inst+"}/count/parks"); v == 0 {
					t.Errorf("%s: count/parks = 0, want the parks the rounds waited for", inst)
				}
			}
		})
	}
}

// TestNoLostWakeUp sends single messages at the instants a producer's
// enqueue and a worker's park are most likely to cross: half of them the
// moment the whole runtime reports parked, half after a short varying
// spin from the previous delivery, which sweeps the stretch between a
// worker's last look at the port and its publishing itself as parked. A
// wake-up lost in the crossing would leave the message queued until the
// one-second fallback.
func TestNoLostWakeUp(t *testing.T) {
	const bound = 100 * time.Millisecond
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// A wire with no modelled cost: nothing on the path sleeps, so
			// the only waits left are the park/wake handshakes under test.
			fab := network.NewSimFabric(2, network.CostModel{})
			rt := New(Config{
				Localities:         2,
				WorkersPerLocality: workers,
				Fabric:             fab,
				TaskOverhead:       -1,
				fallbackPark:       testFallbackPark,
			})
			defer func() {
				rt.Shutdown()
				_ = fab.Close()
			}()
			var got atomic.Int64
			rt.MustRegisterAction("wake/count", func(ctx *Context, args []byte) ([]byte, error) {
				got.Add(1)
				return nil, nil
			})
			const n = 20000
			for i := int64(1); i <= n; i++ {
				if i%2 == 0 {
					waitAllParked(t, rt)
				} else {
					for k := int(i*7919) % 2048; k > 0; k-- {
						spinSink++
					}
				}
				start := time.Now()
				if err := rt.Locality(0).Apply(1, "wake/count", nil); err != nil {
					t.Fatal(err)
				}
				for got.Load() < i {
					if time.Since(start) > 5*time.Second {
						t.Fatalf("message %d never ran", i)
					}
					goruntime.Gosched()
				}
				if d := time.Since(start); d > bound {
					t.Fatalf("message %d of %d took %v, want < %v", i, n, d, bound)
				}
			}
		})
	}
}

// busyBg is a background source that, once switched on, always has work:
// the worker serving it stays a searcher and never parks.
type busyBg struct {
	on    atomic.Bool
	units atomic.Int64
}

func (b *busyBg) DoBackgroundWork(maxUnits int) int {
	if !b.on.Load() {
		return 0
	}
	b.units.Add(1)
	return 1
}

func (b *busyBg) Pending() bool { return b.on.Load() }

// TestWakeThrottleHoldsForPortWork: while one worker is searching, a
// steady stream of port signals must not wake the parked one — the
// searcher will find the work — exactly as for spawn.
func TestWakeThrottleHoldsForPortWork(t *testing.T) {
	bg := &busyBg{}
	s := newScheduler(schedConfig{locality: 0, workers: 2, fallbackPark: time.Minute}, bg)
	s.start()
	defer s.stop()
	waitParked := func(want int32) {
		t.Helper()
		if !eventually(5*time.Second, func() bool { return s.nParked.Load() == want }) {
			t.Fatalf("nParked = %d, want %d", s.nParked.Load(), want)
		}
	}
	waitParked(2)
	parks := s.parkCount()

	// The first signal finds nobody searching and wakes one worker, which
	// then serves the always-busy source without ever finding a task.
	bg.on.Store(true)
	s.maybeWake()
	waitParked(1)
	if !eventually(5*time.Second, func() bool { return bg.units.Load() > 0 && s.nSearching.Load() == 1 }) {
		t.Fatalf("woken worker is not searching (nSearching=%d)", s.nSearching.Load())
	}

	for i := 0; i < 100000; i++ {
		s.maybeWake()
		if s.nParked.Load() != 1 {
			t.Fatalf("signal %d woke the parked worker past a searching one", i)
		}
	}
	if got := s.parkCount(); got != parks {
		t.Errorf("count/parks went %d -> %d during the stream: a worker was woken and parked again", parks, got)
	}
}

// handOffBg plays a port whose first message, once decoded, spawns a task
// that blocks — while a second message is queued behind a wake that the
// port skipped because the decoding worker was still searching.
type handOffBg struct {
	s        *scheduler
	step     atomic.Int32 // 1: first message queued; 2: second message queued
	release  chan struct{}
	secondAt chan time.Time
}

func (b *handOffBg) Pending() bool { return b.step.Load() != 0 }

func (b *handOffBg) DoBackgroundWork(maxUnits int) int {
	switch {
	case b.step.CompareAndSwap(1, 2):
		b.s.parkMu.Lock()
		peer := b.s.parked[0].id
		b.s.parkMu.Unlock()
		b.s.spawnTo(1-peer, func() { <-b.release })
		b.s.maybeWake() // the second message's signal
		return 1
	case b.step.CompareAndSwap(2, 0):
		b.secondAt <- time.Now()
		return 1
	}
	return 0
}

// TestSearcherHandsOffBeforeRunningTask: the port skips its wake while a
// worker is searching; if that worker then leaves the search for a task
// that blocks, it must wake a parked peer for the message still queued,
// or the message waits for the fallback park.
func TestSearcherHandsOffBeforeRunningTask(t *testing.T) {
	bg := &handOffBg{release: make(chan struct{}), secondAt: make(chan time.Time, 1)}
	s := newScheduler(schedConfig{locality: 0, workers: 2, fallbackPark: testFallbackPark}, bg)
	bg.s = s
	s.start()
	defer s.stop()
	defer close(bg.release)
	if !eventually(5*time.Second, func() bool { return s.nParked.Load() == 2 }) {
		t.Fatal("workers never parked")
	}
	start := time.Now()
	bg.step.Store(1)
	s.maybeWake()
	select {
	case at := <-bg.secondAt:
		if d := at.Sub(start); d > 100*time.Millisecond {
			t.Errorf("message behind a skipped wake ran after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Error("message behind a skipped wake never ran")
	}
}

// parkCount returns count/parks with every worker flushed.
func (s *scheduler) parkCount() int64 {
	s.flushAll()
	return s.parks.Get()
}
