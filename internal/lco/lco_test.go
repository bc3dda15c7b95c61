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
	if _, err := f.GetWithTimeout(time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("future ready before set: %v", err)
	}
	go func() { _ = p.SetValue(42) }()
	v, err := f.Get()
	if err != nil || v != 42 {
		t.Errorf("Get = %v, %v", v, err)
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

func TestLatch(t *testing.T) {
	l := NewLatch(3)
	done := make(chan struct{})
	go func() { <-l.Done(); close(done) }()
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
	select {
	case <-l.Done():
	default:
		t.Error("zero latch should be open")
	}
}

// TestOpenNeverTimesOut: a ready future answers at once, even when the
// timeout is shorter than any scheduling delay: a caller descheduled past
// d must not find the timer ready beside done and let select pick
// ErrTimeout.
func TestOpenNeverTimesOut(t *testing.T) {
	p := NewPromise[int]()
	_ = p.SetValue(7)
	f := p.Future()
	for i := 0; i < 100_000; i++ {
		if v, err := f.GetWithTimeout(time.Microsecond); err != nil || v != 7 {
			t.Fatalf("call %d: ready future: %v, %v", i, v, err)
		}
	}
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
		select {
		case <-l.Done():
			return l.Count() == 0
		default:
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
