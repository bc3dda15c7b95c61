package coalescing

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// checkTimersArmed asserts the destQueue invariant at a moment when no
// flush timer can be mid-fire: every non-empty queue has its timer armed
// (an armed timer on an empty queue is harmless: a callback that lost the
// shard lock to a full flush leaves one behind), and nonEmpty counts
// exactly the non-empty queues.
func checkTimersArmed(t *testing.T, c *Coalescer) {
	t.Helper()
	nonEmpty := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for dst, q := range sh.queues {
			if len(q.parcels) > 0 {
				nonEmpty++
				if !q.flushTmr.Armed() {
					t.Errorf("dest %d: %d parcels queued with no flush timer armed", dst, len(q.parcels))
				}
			}
		}
		sh.mu.Unlock()
	}
	if got := int(c.nonEmpty.Load()); got != nonEmpty {
		t.Errorf("nonEmpty = %d, want %d", got, nonEmpty)
	}
}

// TestFlushIdleEmitsPartialBatches: FlushIdle sends what every queue
// holds, stops the timers, counts the cause per destination, and leaves
// the queues ready to coalesce again. The hour-long interval means
// nothing here can be a timer flush.
func TestFlushIdleEmitsPartialBatches(t *testing.T) {
	s := &sink{}
	c := newTestCoalescer(t, s, Params{NParcels: 8, Interval: time.Hour})

	c.FlushIdle() // nothing queued: no message, no queue touched
	if s.messageCount() != 0 {
		t.Fatal("FlushIdle on an empty coalescer emitted a message")
	}
	for i := 0; i < 3; i++ {
		c.Put(mkParcel(1, i))
	}
	c.Put(mkParcel(2, 0))
	checkTimersArmed(t, c)
	c.FlushIdle()
	if got := s.messageCount(); got != 2 {
		t.Fatalf("messages = %d, want one per non-empty destination", got)
	}
	if got := s.parcelCount(); got != 4 {
		t.Errorf("parcels = %d, want 4", got)
	}
	checkTimersArmed(t, c)
	for _, d := range []int{1, 2} {
		st := c.DestStats(d)
		if st.FlushedIdle != 1 || st.FlushedTimer+st.FlushedFull+st.FlushedBytes != 0 {
			t.Errorf("dest %d: stats = %+v, want exactly one idle flush", d, st)
		}
	}
	c.FlushIdle() // drained: a second call in a row adds nothing
	if got := s.messageCount(); got != 2 {
		t.Errorf("messages = %d after a second FlushIdle, want 2", got)
	}

	// The queue coalesces again afterwards: a full batch, then a partial
	// one whose timer is armed.
	for i := 0; i < 9; i++ {
		c.Put(mkParcel(1, 10+i))
	}
	if st := c.DestStats(1); st.FlushedFull != 1 || c.QueuedParcelsDest(1) != 1 {
		t.Errorf("after refill: stats = %+v, queued = %d", st, c.QueuedParcelsDest(1))
	}
	checkTimersArmed(t, c)
}

// TestRaceFlushIdlePutSetParams runs FlushIdle against Put, SetParams,
// SetDestParams and the flush timers, under -race. Nothing ever calls
// Flush or Close while parcels are outstanding, so a queue left non-empty
// with its timer stopped would strand its parcels and fail the drain
// below; afterwards the invariant is checked directly and the
// per-destination accounts must balance. Under load the churn's FlushIdle
// may never find a partial batch, so one known batch, on a destination
// outside the churn whose override nothing else flushes, is idle-flushed
// during the race.
func TestRaceFlushIdlePutSetParams(t *testing.T) {
	s := &sink{}
	c := newTestCoalescer(t, s, Params{NParcels: 8, Interval: 500 * time.Microsecond})

	const workers = 8
	const per = 300
	const dests = 5
	var wg, churn sync.WaitGroup
	stop := make(chan struct{})
	loop := func(every time.Duration, fn func(i int)) {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					fn(i)
					if every > 0 {
						time.Sleep(every)
					} else {
						runtime.Gosched()
					}
				}
			}
		}()
	}
	loop(0, func(int) { c.FlushIdle() })
	loop(300*time.Microsecond, func(i int) {
		c.SetParams(Params{NParcels: 1 + i%16, Interval: time.Duration(1+i%4) * 500 * time.Microsecond})
	})
	loop(100*time.Microsecond, func(i int) {
		if i%7 == 0 {
			c.ClearDestParams(i % dests)
		} else {
			c.SetDestParams(i%dests, Params{NParcels: 1 + i%32, Interval: time.Millisecond})
		}
	})
	c.SetDestParams(dests, Params{NParcels: 8, Interval: time.Hour})
	c.Put(mkParcel(dests, 0))
	c.FlushIdle()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Put(mkParcel(w%dests, i))
				if i%16 == 0 {
					runtime.Gosched() // let the flushers in between bursts
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	waitFor(t, 5*time.Second, func() bool { return s.parcelCount() == workers*per+1 })
	checkTimersArmed(t, c)
	var idle int64
	for d, st := range c.AllDestStats() {
		if st.Parcels != st.Queued+st.Bypass+st.Direct {
			t.Errorf("dest %d: %d parcels != %d queued + %d bypass + %d direct", d, st.Parcels, st.Queued, st.Bypass, st.Direct)
		}
		idle += st.FlushedIdle
	}
	if idle == 0 {
		t.Error("no batch was flushed by FlushIdle: the race was not exercised")
	}
}

// TestRaceFlushIdleClose: FlushIdle racing Close loses and duplicates
// nothing, and leaves no queue behind.
func TestRaceFlushIdleClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := &sink{}
		c := newTestCoalescer(t, s, Params{NParcels: 64, Interval: time.Hour})
		const puts = 200
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				c.Put(mkParcel(i%3, i))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.FlushIdle()
			}
		}()
		go func() {
			defer wg.Done()
			c.Close()
		}()
		wg.Wait()
		c.FlushIdle()
		if got := s.parcelCount(); got != puts {
			t.Fatalf("round %d: emitted %d parcels, want %d", round, got, puts)
		}
		if q := c.QueuedParcels(); q != 0 {
			t.Fatalf("round %d: %d parcels queued after Close", round, q)
		}
		checkTimersArmed(t, c)
	}
}
