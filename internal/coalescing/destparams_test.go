package coalescing

import (
	"sync"
	"testing"
	"time"
)

func TestDestParamsOverrideOnlyAffectsThatDest(t *testing.T) {
	s := &sink{}
	c := newTestCoalescer(t, s, Params{NParcels: 100, Interval: time.Hour})
	c.SetDestParams(1, Params{NParcels: 2, Interval: time.Hour})

	// Dest 1 flushes every 2 parcels under its override; dest 2 stays
	// queued under the global NParcels=100.
	for i := 0; i < 4; i++ {
		c.Put(mkParcel(1, i))
	}
	for i := 0; i < 4; i++ {
		c.Put(mkParcel(2, i))
	}
	waitFor(t, time.Second, func() bool { return s.parcelCount() == 4 })
	if got := c.QueuedParcelsDest(2); got != 4 {
		t.Errorf("dest 2 queued = %d, want 4", got)
	}
	if got := c.QueuedParcelsDest(1); got != 0 {
		t.Errorf("dest 1 queued = %d, want 0", got)
	}
	st := c.DestStats(1)
	if st.FlushedFull != 2 || st.Parcels != 4 {
		t.Errorf("dest 1 stats = %+v", st)
	}
	if st2 := c.DestStats(2); st2.Queued != 4 || st2.FlushedFull != 0 {
		t.Errorf("dest 2 stats = %+v", st2)
	}
}

func TestDestParamsLookupAndClear(t *testing.T) {
	s := &sink{}
	global := Params{NParcels: 8, Interval: time.Millisecond}
	c := newTestCoalescer(t, s, global)

	if p, ok := c.DestParams(3); ok {
		t.Errorf("unexpected override before set: %+v", p)
	} else if p != c.Params() {
		t.Errorf("fallback params = %+v, want global %+v", p, c.Params())
	}

	over := Params{NParcels: 2, Interval: 5 * time.Millisecond}
	c.SetDestParams(3, over)
	if p, ok := c.DestParams(3); !ok || p.NParcels != 2 {
		t.Errorf("override = %+v ok=%v", p, ok)
	}
	if m := c.DestOverrides(); len(m) != 1 || m[3].NParcels != 2 {
		t.Errorf("overrides = %+v", m)
	}
	// Untouched destinations still resolve to the global parameters.
	if p, ok := c.DestParams(4); ok || p != c.Params() {
		t.Errorf("dest 4 = %+v ok=%v", p, ok)
	}

	c.ClearDestParams(3)
	if _, ok := c.DestParams(3); ok {
		t.Error("override survived clear")
	}
	c.ClearDestParams(3) // clearing an absent override is a no-op
}

func TestSetDestParamsNormalizes(t *testing.T) {
	s := &sink{}
	c := newTestCoalescer(t, s, Params{NParcels: 8, Interval: time.Millisecond})
	c.SetDestParams(0, Params{NParcels: -3, Interval: -1})
	p, ok := c.DestParams(0)
	if !ok || p.NParcels != 1 || p.Interval <= 0 || p.MaxBufferBytes != DefaultMaxBufferBytes {
		t.Errorf("normalized override = %+v ok=%v", p, ok)
	}
}

func TestSetDestParamsFlushesOversizedQueue(t *testing.T) {
	s := &sink{}
	c := newTestCoalescer(t, s, Params{NParcels: 10, Interval: time.Hour})
	for i := 0; i < 3; i++ {
		c.Put(mkParcel(0, i))
	}
	if got := c.QueuedParcelsDest(0); got != 3 {
		t.Fatalf("queued = %d, want 3", got)
	}
	// Tightening the override below the queued depth flushes immediately.
	c.SetDestParams(0, Params{NParcels: 2, Interval: time.Hour})
	waitFor(t, time.Second, func() bool { return s.parcelCount() == 3 })
	if st := c.DestStats(0); st.FlushedFull != 1 {
		t.Errorf("stats = %+v, want one full flush", st)
	}
}

func TestDestStatsFlushCauses(t *testing.T) {
	s := &sink{}
	c := newTestCoalescer(t, s, Params{NParcels: 2, Interval: 5 * time.Millisecond})

	// Full flush: two rapid puts fill the queue.
	c.Put(mkParcel(0, 0))
	c.Put(mkParcel(0, 1))
	waitFor(t, time.Second, func() bool { return c.DestStats(0).FlushedFull == 1 })

	// Timer flush: a single parcel waits out the interval.
	c.Put(mkParcel(0, 2))
	waitFor(t, time.Second, func() bool { return c.DestStats(0).FlushedTimer == 1 })

	// Bypass: after an arrival gap longer than the interval with an empty
	// queue, the next parcel is sent immediately.
	time.Sleep(20 * time.Millisecond)
	c.Put(mkParcel(0, 3))
	st := c.DestStats(0)
	if st.Bypass != 1 {
		t.Errorf("stats = %+v, want one bypass", st)
	}
	if st.Parcels != 4 || st.Queued != 3 {
		t.Errorf("stats = %+v, want 4 parcels / 3 queued", st)
	}
	if st.ArrivalCount == 0 || st.AvgArrivalUS() <= 0 {
		t.Errorf("arrival stats missing: %+v", st)
	}
}

func TestAllDestStatsAggregates(t *testing.T) {
	s := &sink{}
	c := newTestCoalescer(t, s, Params{NParcels: 100, Interval: time.Hour})
	for d := 0; d < 3; d++ {
		for i := 0; i < d+1; i++ {
			c.Put(mkParcel(d, i))
		}
	}
	all := c.AllDestStats()
	if len(all) != 3 {
		t.Fatalf("len = %d, want 3", len(all))
	}
	for d := 0; d < 3; d++ {
		if all[d].Parcels != int64(d+1) {
			t.Errorf("dest %d parcels = %d, want %d", d, all[d].Parcels, d+1)
		}
	}
}

// TestRaceSetDestParamsPutFlush drives concurrent Put traffic against
// per-destination override churn, global SetParams churn and timer
// flushes; it exists to be run under -race and verifies conservation:
// every parcel put is emitted exactly once.
func TestRaceSetDestParamsPutFlush(t *testing.T) {
	s := &sink{}
	c := newTestCoalescer(t, s, Params{NParcels: 8, Interval: 500 * time.Microsecond})

	const workers = 8
	const per = 300
	const dests = 5
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Per-destination override churn: cycle overrides across the shared
	// destinations and clear them, racing Put's lock-free lookup.
	go func() {
		cycle := []Params{
			{NParcels: 1, Interval: 200 * time.Microsecond},
			{NParcels: 4, Interval: 2 * time.Millisecond},
			{NParcels: 32, Interval: 100 * time.Microsecond},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				d := i % dests
				if i%7 == 0 {
					c.ClearDestParams(d)
				} else {
					c.SetDestParams(d, cycle[i%len(cycle)])
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	// Global churn rejudges every queue, overridden or not.
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.SetParams(Params{NParcels: 2 + i%16, Interval: time.Millisecond})
				time.Sleep(300 * time.Microsecond)
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Put(mkParcel(w%dests, i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)

	// Per-dest stats conserve (snapshot before Close resets the queue
	// maps): parcels put equal the sum over dests, and every parcel was
	// queued, bypassed, or sent directly under NParcels <= 1.
	var parcels, handled int64
	for _, st := range c.AllDestStats() {
		parcels += st.Parcels
		handled += st.Queued + st.Bypass + st.Direct
	}
	if parcels != workers*per || handled != workers*per {
		t.Errorf("stats conservation: parcels=%d handled=%d want %d", parcels, handled, workers*per)
	}

	c.Close()
	if q := c.QueuedParcels(); q != 0 {
		t.Errorf("queued after close = %d", q)
	}
	waitFor(t, 2*time.Second, func() bool { return s.parcelCount() == workers*per })
}
