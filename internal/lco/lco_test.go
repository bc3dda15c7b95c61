package lco

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPromiseFutureValue(t *testing.T) {
	p := NewPromise[int]()
	f := p.Future()
	if f.Ready() {
		t.Error("future ready before set")
	}
	go func() { _ = p.SetValue(42) }()
	v, err := f.Get()
	if err != nil || v != 42 {
		t.Errorf("Get = %v, %v", v, err)
	}
	if !f.Ready() {
		t.Error("future not ready after set")
	}
	// Get is idempotent.
	v, err = f.Get()
	if err != nil || v != 42 {
		t.Errorf("second Get = %v, %v", v, err)
	}
}

func TestPromiseError(t *testing.T) {
	p := NewPromise[string]()
	boom := errors.New("boom")
	if err := p.SetError(boom); err != nil {
		t.Fatal(err)
	}
	_, err := p.Future().Get()
	if !errors.Is(err, boom) {
		t.Errorf("Get err = %v", err)
	}
}

func TestPromiseDoubleSet(t *testing.T) {
	p := NewPromise[int]()
	if err := p.SetValue(1); err != nil {
		t.Fatal(err)
	}
	if err := p.SetValue(2); !errors.Is(err, ErrAlreadySet) {
		t.Errorf("double SetValue = %v", err)
	}
	if err := p.SetError(errors.New("x")); !errors.Is(err, ErrAlreadySet) {
		t.Errorf("SetError after SetValue = %v", err)
	}
	v, _ := p.Future().Get()
	if v != 1 {
		t.Errorf("value = %v, want first set", v)
	}
}

func TestSetErrorNil(t *testing.T) {
	p := NewPromise[int]()
	if err := p.SetError(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Future().Get(); err == nil {
		t.Error("SetError(nil) should still produce a non-nil error")
	}
}

func TestGetWithTimeout(t *testing.T) {
	p := NewPromise[int]()
	if _, err := p.Future().GetWithTimeout(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("timeout err = %v", err)
	}
	_ = p.SetValue(9)
	v, err := p.Future().GetWithTimeout(time.Second)
	if err != nil || v != 9 {
		t.Errorf("Get = %v, %v", v, err)
	}
}

func TestOnReadyBeforeAndAfterSet(t *testing.T) {
	p := NewPromise[int]()
	f := p.Future()
	var got atomic.Int64
	f.OnReady(func(v int, err error) { got.Add(int64(v)) })
	_ = p.SetValue(10)
	f.OnReady(func(v int, err error) { got.Add(int64(v)) }) // runs immediately
	if got.Load() != 20 {
		t.Errorf("hooks ran with total %d, want 20", got.Load())
	}
}

func TestFutureDoneChannel(t *testing.T) {
	p := NewPromise[int]()
	f := p.Future()
	select {
	case <-f.Done():
		t.Fatal("done before set")
	default:
	}
	_ = p.SetValue(1)
	select {
	case <-f.Done():
	case <-time.After(time.Second):
		t.Fatal("done not closed after set")
	}
}

func TestWaitAll(t *testing.T) {
	const n = 100
	fs := make([]*Future[int], n)
	ps := make([]*Promise[int], n)
	for i := range fs {
		ps[i] = NewPromise[int]()
		fs[i] = ps[i].Future()
	}
	go func() {
		for i := n - 1; i >= 0; i-- {
			_ = ps[i].SetValue(i)
		}
	}()
	if err := WaitAll(fs); err != nil {
		t.Errorf("WaitAll = %v", err)
	}
}

func TestWaitAllPropagatesFirstError(t *testing.T) {
	p1, p2 := NewPromise[int](), NewPromise[int]()
	e1, e2 := errors.New("first"), errors.New("second")
	_ = p1.SetError(e1)
	_ = p2.SetError(e2)
	err := WaitAll([]*Future[int]{p1.Future(), p2.Future()})
	if !errors.Is(err, e1) {
		t.Errorf("WaitAll = %v, want first error", err)
	}
}

func TestWhenAll(t *testing.T) {
	ps := []*Promise[int]{NewPromise[int](), NewPromise[int](), NewPromise[int]()}
	fs := make([]*Future[int], len(ps))
	for i, p := range ps {
		fs[i] = p.Future()
	}
	all := WhenAll(fs)
	go func() {
		for i, p := range ps {
			_ = p.SetValue(i * 10)
		}
	}()
	vs, err := all.Get()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0] != 0 || vs[1] != 10 || vs[2] != 20 {
		t.Errorf("WhenAll = %v", vs)
	}
}

func TestWhenAllError(t *testing.T) {
	p1, p2 := NewPromise[int](), NewPromise[int]()
	all := WhenAll([]*Future[int]{p1.Future(), p2.Future()})
	_ = p1.SetValue(1)
	boom := errors.New("boom")
	_ = p2.SetError(boom)
	if _, err := all.Get(); !errors.Is(err, boom) {
		t.Errorf("WhenAll err = %v", err)
	}
}

func TestLatch(t *testing.T) {
	l := NewLatch(3)
	done := make(chan struct{})
	go func() { l.Wait(); close(done) }()
	l.CountDown(1)
	select {
	case <-done:
		t.Fatal("latch opened early")
	case <-time.After(10 * time.Millisecond):
	}
	if l.Count() != 2 {
		t.Errorf("Count = %d", l.Count())
	}
	l.CountDown(2)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("latch never opened")
	}
	if l.Count() != 0 {
		t.Errorf("open latch Count = %d", l.Count())
	}
	l.CountDown(5) // no-op, must not panic
}

func TestLatchZeroIsOpen(t *testing.T) {
	l := NewLatch(0)
	if err := l.WaitTimeout(10 * time.Millisecond); err != nil {
		t.Errorf("zero latch should be open: %v", err)
	}
}

func TestLatchWaitTimeout(t *testing.T) {
	l := NewLatch(1)
	if err := l.WaitTimeout(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("WaitTimeout = %v", err)
	}
}

// TestOpenNeverTimesOut: an open latch and a ready future answer at once,
// even when the timeout is shorter than any scheduling delay: a caller
// descheduled past d must not find the timer ready beside done and let
// select pick ErrTimeout.
func TestOpenNeverTimesOut(t *testing.T) {
	l := NewLatch(1)
	l.CountDown(1)
	p := NewPromise[int]()
	_ = p.SetValue(7)
	f := p.Future()
	for i := 0; i < 100_000; i++ {
		if err := l.WaitTimeout(time.Microsecond); err != nil {
			t.Fatalf("call %d: open latch: %v", i, err)
		}
		if v, err := f.GetWithTimeout(time.Microsecond); err != nil || v != 7 {
			t.Fatalf("call %d: ready future: %v, %v", i, v, err)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	const n = 4
	const rounds = 3
	b := NewBarrier(n)
	var counter atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				counter.Add(1)
				b.Arrive()
				// After the barrier, all n increments of this round must
				// be visible.
				if c := counter.Load(); int(c) < (r+1)*n {
					t.Errorf("round %d: counter = %d, want >= %d", r, c, (r+1)*n)
				}
			}
		}()
	}
	wg.Wait()
	if counter.Load() != n*rounds {
		t.Errorf("counter = %d", counter.Load())
	}
}

func TestBarrierPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBarrier(0)
}

func TestAndGate(t *testing.T) {
	g := NewAndGate(3)
	if g.Ready() {
		t.Error("gate ready before sets")
	}
	if err := g.Set(0); err != nil {
		t.Fatal(err)
	}
	if err := g.Set(0); err == nil {
		t.Error("double set should fail")
	}
	if err := g.Set(5); err == nil {
		t.Error("out of range set should fail")
	}
	_ = g.Set(2)
	if g.Ready() {
		t.Error("gate ready with one slot unset")
	}
	_ = g.Set(1)
	g.Wait()
	if !g.Ready() {
		t.Error("gate not ready after all sets")
	}
}

func TestAndGatePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewAndGate(-1)
}

func TestPromiseConcurrentSetters(t *testing.T) {
	// Exactly one of many concurrent setters must win.
	p := NewPromise[int]()
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if p.SetValue(i) == nil {
				wins.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Errorf("winners = %d, want 1", wins.Load())
	}
}

func TestWhenAllOrderProperty(t *testing.T) {
	// Property: WhenAll preserves input order regardless of fulfilment
	// order (given by a permutation seed).
	f := func(vals []int, seed int64) bool {
		if len(vals) == 0 || len(vals) > 64 {
			return true
		}
		ps := make([]*Promise[int], len(vals))
		fs := make([]*Future[int], len(vals))
		for i := range vals {
			ps[i] = NewPromise[int]()
			fs[i] = ps[i].Future()
		}
		all := WhenAll(fs)
		// Fulfil in a scrambled order derived from the seed.
		order := make([]int, len(vals))
		for i := range order {
			order[i] = i
		}
		r := seed
		for i := len(order) - 1; i > 0; i-- {
			r = r*6364136223846793005 + 1442695040888963407
			j := int(uint64(r) % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		for _, i := range order {
			_ = ps[i].SetValue(vals[i])
		}
		got, err := all.Get()
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLatchCountdownProperty(t *testing.T) {
	// Property: a latch opens exactly when the cumulative countdown
	// reaches its initial count, for any split of the count.
	f := func(parts []uint8) bool {
		total := 0
		for _, p := range parts {
			total += int(p % 8)
		}
		if total == 0 {
			return true
		}
		l := NewLatch(total)
		for _, p := range parts {
			n := int(p % 8)
			if n == 0 {
				continue
			}
			before := l.Count()
			if before == 0 {
				break
			}
			l.CountDown(n)
		}
		return l.Count() == 0 && l.WaitTimeout(time.Millisecond) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
