package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coalescing"
	"repro/internal/lco"
	"repro/internal/network"
	"repro/internal/serialization"
)

// fastModel is a cost model cheap enough for unit tests but nonzero so
// the instrumented paths execute.
func fastModel() network.CostModel {
	return network.CostModel{
		SendOverhead: 2 * time.Microsecond,
		RecvOverhead: 2 * time.Microsecond,
		Latency:      5 * time.Microsecond,
	}
}

func newTestRuntime(t *testing.T, localities int) *Runtime {
	t.Helper()
	rt := New(Config{
		Localities:         localities,
		WorkersPerLocality: 2,
		CostModel:          fastModel(),
	})
	t.Cleanup(rt.Shutdown)
	return rt
}

// echoAction returns its arguments unchanged.
func echoAction(_ *Context, args []byte) ([]byte, error) {
	out := make([]byte, len(args))
	copy(out, args)
	return out, nil
}

func TestAsyncRemoteRoundTrip(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("echo", echoAction)
	f, err := rt.Locality(0).Async(1, "echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.GetWithTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "hello" {
		t.Errorf("result = %q", res)
	}
}

func TestAsyncLocalExecution(t *testing.T) {
	rt := newTestRuntime(t, 2)
	var executed atomic.Int32
	rt.MustRegisterAction("local", func(ctx *Context, args []byte) ([]byte, error) {
		executed.Add(1)
		if ctx.Locality != 0 || ctx.Source != 0 {
			t.Errorf("ctx = %+v", ctx)
		}
		return []byte("ok"), nil
	})
	f, err := rt.Locality(0).Async(0, "local", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.GetWithTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 1 {
		t.Error("action not executed")
	}
	// Local execution must not touch the parcel layer.
	if s := rt.Locality(0).Port().Stats(); s.ParcelsSent != 0 {
		t.Errorf("local async sent parcels: %+v", s)
	}
}

func TestAsyncManyConcurrent(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("echo", echoAction)
	const n = 500
	futures := make([]*lco.Future[[]byte], n)
	for i := 0; i < n; i++ {
		w := serialization.NewWriter(8)
		w.U32(uint32(i))
		f, err := rt.Locality(0).Async(1, "echo", w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		futures[i] = f
	}
	for i, f := range futures {
		res, err := f.GetWithTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		r := serialization.NewReader(res)
		if got := r.U32(); got != uint32(i) {
			t.Fatalf("future %d returned %d", i, got)
		}
	}
}

func TestAsyncActionError(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("fail", func(*Context, []byte) ([]byte, error) {
		return nil, errors.New("deliberate failure")
	})
	f, err := rt.Locality(0).Async(1, "fail", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.GetWithTimeout(5 * time.Second); err == nil || err.Error() != "deliberate failure" {
		t.Errorf("err = %v", err)
	}
}

func TestAsyncUnknownActionRemote(t *testing.T) {
	rt := newTestRuntime(t, 2)
	f, err := rt.Locality(0).Async(1, "missing", nil)
	if err != nil {
		t.Fatal(err) // remote misses surface via the future
	}
	if _, err := f.GetWithTimeout(5 * time.Second); err == nil {
		t.Error("unknown remote action should fail the future")
	}
}

func TestAsyncUnknownActionLocal(t *testing.T) {
	rt := newTestRuntime(t, 2)
	if _, err := rt.Locality(0).Async(0, "missing", nil); !errors.Is(err, ErrUnknownAction) {
		t.Errorf("err = %v", err)
	}
}

func TestAsyncBadDestination(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("echo", echoAction)
	if _, err := rt.Locality(0).Async(7, "echo", nil); err == nil {
		t.Error("out-of-range destination should fail")
	}
}

func TestApplyFireAndForget(t *testing.T) {
	rt := newTestRuntime(t, 2)
	done := make(chan struct{})
	rt.MustRegisterAction("oneway", func(*Context, []byte) ([]byte, error) {
		close(done)
		return nil, nil
	})
	if err := rt.Locality(0).Apply(1, "oneway", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("apply never executed")
	}
	if rt.Localities() != 2 {
		t.Error("locality count")
	}
}

func TestApplyLocal(t *testing.T) {
	rt := newTestRuntime(t, 2)
	done := make(chan struct{})
	rt.MustRegisterAction("oneway", func(*Context, []byte) ([]byte, error) {
		close(done)
		return nil, nil
	})
	if err := rt.Locality(1).Apply(1, "oneway", nil); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestActionRegistration(t *testing.T) {
	rt := newTestRuntime(t, 2)
	if err := rt.RegisterAction("", echoAction); err == nil {
		t.Error("empty name should fail")
	}
	if err := rt.RegisterAction("x", nil); err == nil {
		t.Error("nil body should fail")
	}
	if err := rt.RegisterAction(ResponseAction("x"), echoAction); err == nil {
		t.Error("reserved prefix should fail")
	}
	if err := rt.RegisterAction("dup", echoAction); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterAction("dup", echoAction); err == nil {
		t.Error("duplicate should fail")
	}
	names := rt.Actions()
	if len(names) != 1 || names[0] != "dup" {
		t.Errorf("Actions = %v", names)
	}
}

func TestContextCarriesSource(t *testing.T) {
	rt := newTestRuntime(t, 3)
	srcCh := make(chan int, 1)
	rt.MustRegisterAction("who", func(ctx *Context, _ []byte) ([]byte, error) {
		srcCh <- ctx.Source
		return nil, nil
	})
	f, err := rt.Locality(2).Async(1, "who", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.GetWithTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if src := <-srcCh; src != 2 {
		t.Errorf("source = %d, want 2", src)
	}
}

func TestCoalescingReducesMessages(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("echo", echoAction)
	if err := rt.EnableCoalescing("echo", coalescing.Params{NParcels: 10, Interval: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	const n = 100
	futures := make([]*lco.Future[[]byte], 0, n)
	for i := 0; i < n; i++ {
		f, err := rt.Locality(0).Async(1, "echo", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	for _, f := range futures {
		if _, err := f.GetWithTimeout(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	sent := rt.Locality(0).Port().Stats().MessagesSent
	if sent >= n {
		t.Errorf("coalescing sent %d messages for %d parcels", sent, n)
	}
	// ~n/10 request messages (+ stragglers); far below n.
	if sent > n/2 {
		t.Errorf("messages = %d, want <= %d", sent, n/2)
	}
	// Coalescing counters present and consistent.
	cs := rt.Coalescers("echo")
	if len(cs) != 4 { // (request+response) × 2 localities
		t.Fatalf("coalescers = %d", len(cs))
	}
	var parcels int64
	for _, c := range cs {
		parcels += c.Stats().Parcels
	}
	if parcels != 2*n { // n requests + n responses
		t.Errorf("coalesced parcels = %d, want %d", parcels, 2*n)
	}
}

func TestEnableCoalescingTwiceFails(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("echo", echoAction)
	if err := rt.EnableCoalescing("echo", coalescing.Params{NParcels: 4, Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := rt.EnableCoalescing("echo", coalescing.Params{NParcels: 8, Interval: time.Millisecond}); err == nil {
		t.Error("second enable should fail")
	}
}

func TestSetCoalescingParamsAtRuntime(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("echo", echoAction)
	if err := rt.SetCoalescingParams("echo", coalescing.Params{NParcels: 2}); err == nil {
		t.Error("set before enable should fail")
	}
	if _, err := rt.CoalescingParams("echo"); err == nil {
		t.Error("params before enable should fail")
	}
	if err := rt.EnableCoalescing("echo", coalescing.Params{NParcels: 4, Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetCoalescingParams("echo", coalescing.Params{NParcels: 32, Interval: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	p, err := rt.CoalescingParams("echo")
	if err != nil || p.NParcels != 32 {
		t.Errorf("params = %+v, %v", p, err)
	}
	for _, c := range rt.Coalescers("echo") {
		if c.Params().NParcels != 32 {
			t.Error("params not propagated to all localities")
		}
	}
}

func TestSchedulerCountersAdvance(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("spin", func(*Context, []byte) ([]byte, error) {
		time.Sleep(200 * time.Microsecond)
		return nil, nil
	})
	const n = 20
	futures := make([]*lco.Future[[]byte], 0, n)
	for i := 0; i < n; i++ {
		f, err := rt.Locality(0).Async(1, "spin", nil)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	for _, f := range futures {
		if _, err := f.GetWithTimeout(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Locality(1).SchedStats()
	if st.Tasks < n {
		t.Errorf("tasks = %d, want >= %d", st.Tasks, n)
	}
	if st.CumExec < n*200*time.Microsecond {
		t.Errorf("cumExec = %v", st.CumExec)
	}
	if st.CumFunc < st.CumExec {
		t.Errorf("cumFunc %v < cumExec %v", st.CumFunc, st.CumExec)
	}
	if st.Background <= 0 {
		t.Error("background work never accounted")
	}
	if st.BgOverhead <= 0 || st.BgOverhead >= 1 {
		t.Errorf("background overhead = %v, want in (0,1)", st.BgOverhead)
	}
	// The Eq. 4 counter is queryable through the registry.
	v, err := rt.Counters().Value("/threads{locality#1}/background-overhead")
	if err != nil {
		t.Fatal(err)
	}
	if v != st.BgOverhead {
		t.Errorf("registry value %v != snapshot %v", v, st.BgOverhead)
	}
}

func TestCountersDiscoverable(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("echo", echoAction)
	if err := rt.EnableCoalescing("echo", coalescing.Params{NParcels: 4, Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	names := rt.Counters().Discover()
	want := []string{
		"/threads{locality#0}/background-work",
		"/threads{locality#0}/background-overhead",
		"/threads{locality#1}/time/average-overhead",
		"/coalescing{locality#0}/count/parcels@echo",
		"/coalescing{locality#1}/time/parcel-arrival-histogram@" + ResponseAction("echo"),
		"/parcels{locality#0}/count/sent",
		"/timers/flush/wakeups",
		"/timers/flush/fires",
		"/timers/flush/rekeys",
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("counter %s not discoverable (have %d counters)", w, len(names))
		}
	}
}

func TestQuiesce(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("echo", echoAction)
	f, err := rt.Locality(0).Async(1, "echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.GetWithTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !rt.Quiesce(5 * time.Second) {
		t.Error("runtime did not quiesce")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	rt := New(Config{Localities: 2, WorkersPerLocality: 1, CostModel: fastModel()})
	rt.Shutdown()
	rt.Shutdown()
}

func TestShutdownDrainsCoalescedTraffic(t *testing.T) {
	rt := New(Config{Localities: 2, WorkersPerLocality: 2, CostModel: fastModel()})
	rt.MustRegisterAction("echo", echoAction)
	if err := rt.EnableCoalescing("echo", coalescing.Params{NParcels: 1000, Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	// Parcels sit in the coalescer (queue never fills, timer is an hour);
	// Shutdown must still flush and complete them or at least not hang.
	f, err := rt.Locality(0).Async(1, "echo", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { rt.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown hung")
	}
	if _, err := f.GetWithTimeout(time.Second); err != nil {
		t.Errorf("future after shutdown: %v", err)
	}
}

func TestResponseActionName(t *testing.T) {
	if got := ResponseAction("foo"); got != "runtime/set_value@foo" {
		t.Errorf("ResponseAction = %q", got)
	}
}

func TestDefaultConfig(t *testing.T) {
	rt := New(Config{})
	defer rt.Shutdown()
	if rt.Localities() != 2 {
		t.Errorf("default localities = %d", rt.Localities())
	}
	if rt.Fabric().Model().SendOverhead == 0 {
		t.Error("default cost model not applied")
	}
	if rt.AGAS() == nil || rt.Timers() == nil {
		t.Error("services missing")
	}
}

func TestMustRegisterActionPanics(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("a", echoAction)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	rt.MustRegisterAction("a", echoAction)
}

func TestCrossLocalityAllToAll(t *testing.T) {
	const L = 4
	rt := newTestRuntime(t, L)
	rt.MustRegisterAction("echo", echoAction)
	var futures []*lco.Future[[]byte]
	for src := 0; src < L; src++ {
		for dst := 0; dst < L; dst++ {
			if src == dst {
				continue
			}
			f, err := rt.Locality(src).Async(dst, "echo", []byte(fmt.Sprintf("%d->%d", src, dst)))
			if err != nil {
				t.Fatal(err)
			}
			futures = append(futures, f)
		}
	}
	for _, f := range futures {
		if _, err := f.GetWithTimeout(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIdleRateCounter(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.MustRegisterAction("echo", echoAction)
	// Mostly idle runtime: idle rate should be high.
	time.Sleep(30 * time.Millisecond)
	v, err := rt.Counters().Value("/threads{locality#0}/idle-rate")
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.5 || v > 1 {
		t.Errorf("idle rate of idle runtime = %v, want near 1", v)
	}
	// Saturate with spinning tasks and check the rate drops.
	rt.MustRegisterAction("hog", func(*Context, []byte) ([]byte, error) {
		time.Sleep(2 * time.Millisecond)
		return nil, nil
	})
	var futures []*lco.Future[[]byte]
	for i := 0; i < 100; i++ {
		f, err := rt.Locality(1).Async(0, "hog", nil)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	if err := lco.WaitAll(futures); err != nil {
		t.Fatal(err)
	}
	busy, err := rt.Counters().Value("/threads{locality#0}/idle-rate")
	if err != nil {
		t.Fatal(err)
	}
	if busy >= v {
		t.Errorf("idle rate did not drop under load: %v -> %v", v, busy)
	}
}
