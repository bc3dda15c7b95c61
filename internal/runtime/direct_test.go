package runtime

import (
	"bytes"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/timer"
)

// onStack reports whether a function whose name ends in fn is on the
// calling goroutine's stack.
func onStack(fn string) bool {
	pcs := make([]uintptr, 64)
	frames := goruntime.CallersFrames(pcs[:goruntime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// directRun is what one run of the direct action saw.
type directRun struct {
	inBackground bool   // the port's DoBackgroundWork was on the stack
	intact       bool   // args still held what was sent
	args         []byte // the borrowed args, kept to see them released
}

// TestDirectActionRunsInBackgroundWork: a remote Apply of a direct action
// runs its body inside the receiving worker's DoBackgroundWork, creates
// no scheduler task, adds the body's time to the locality's Eq. 3
// background work, and releases its args once the body has returned. A
// local Apply of the same action runs it as a task.
func TestDirectActionRunsInBackgroundWork(t *testing.T) {
	network.PoisonReleasedPayloads(true)
	t.Cleanup(func() { network.PoisonReleasedPayloads(false) })
	defer parcel.SetBorrowDebug(parcel.SetBorrowDebug(true))

	const body = time.Millisecond
	rt := New(Config{Localities: 2, WorkersPerLocality: 1, CostModel: fastModel()})
	t.Cleanup(rt.Shutdown)
	runs := make(chan directRun, 1)
	sent := []byte("direct action args")
	if err := rt.RegisterDirectAction("direct", func(_ *Context, args []byte) ([]byte, error) {
		timer.Spin(body)
		runs <- directRun{inBackground: onStack("(*Port).DoBackgroundWork"), intact: bytes.Equal(args, sent), args: args}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterDirectAction("direct", echoAction); err == nil {
		t.Error("a second registration of the same name succeeded")
	}

	bgWork := func() float64 {
		v, err := rt.Counters().Value("/threads{locality#1}/background-work")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	tasksBefore, bgBefore := rt.Locality(1).SchedStats().Tasks, bgWork()
	if err := rt.Locality(0).Apply(1, "direct", sent); err != nil {
		t.Fatal(err)
	}
	var run directRun
	select {
	case run = <-runs:
	case <-time.After(5 * time.Second):
		t.Fatal("the direct action never ran")
	}
	if !run.inBackground {
		t.Error("the direct action ran outside the port's DoBackgroundWork")
	}
	if !run.intact {
		t.Error("the direct action's args were not what was sent")
	}
	// The worker adds its background span once DoBackgroundWork has
	// returned; the read flushes it. That span ends after the parcel's
	// Release, so once it is counted the args are released.
	deadline := time.Now().Add(5 * time.Second)
	for bgWork()-bgBefore < body.Seconds() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if got := bgWork() - bgBefore; got < body.Seconds() {
		t.Errorf("background work grew by %.6fs, want at least the body's %v", got, body)
	}
	if n := rt.Locality(1).SchedStats().Tasks - tasksBefore; n != 0 {
		t.Errorf("the direct action added %d scheduler tasks, want 0", n)
	}
	for i, c := range run.args {
		if c != 0xDD {
			t.Fatalf("args[%d] = %#x after the body returned, want the released-payload poison 0xdd", i, c)
		}
	}

	// Applied to its own locality, a direct action is a task like any
	// other.
	tasksBefore = rt.Locality(0).SchedStats().Tasks
	if err := rt.Locality(0).Apply(0, "direct", sent); err != nil {
		t.Fatal(err)
	}
	select {
	case run = <-runs:
	case <-time.After(5 * time.Second):
		t.Fatal("the local direct action never ran")
	}
	if run.inBackground || !run.intact {
		t.Errorf("local run: in background work %v, args intact %v; want a task with its args", run.inBackground, run.intact)
	}
	deadline = time.Now().Add(5 * time.Second)
	for rt.Locality(0).SchedStats().Tasks == tasksBefore && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if n := rt.Locality(0).SchedStats().Tasks - tasksBefore; n != 1 {
		t.Errorf("the local direct action ran as %d scheduler tasks, want 1", n)
	}
}
