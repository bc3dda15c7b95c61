package network

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestFaultPlanCrashDropsBothDirections(t *testing.T) {
	f := NewSimFabric(3, CostModel{})
	defer f.Close()
	plan := NewFaultPlan(1)
	f.SetFaultHook(plan.Hook())

	var got [3]atomic.Int64
	for i := 0; i < 3; i++ {
		i := i
		f.SetHandler(i, func(src int, payload []byte) {
			got[i].Add(1)
			PutPayload(payload)
		})
	}
	send := func(src, dst int) {
		if err := f.Send(src, dst, GetPayload(4)); err != nil {
			t.Fatal(err)
		}
	}
	wait := func(i int, want int64) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && got[i].Load() < want {
			time.Sleep(100 * time.Microsecond)
		}
		if got[i].Load() != want {
			t.Fatalf("locality %d received %d messages, want %d", i, got[i].Load(), want)
		}
	}

	send(0, 1)
	wait(1, 1)

	if plan.Crashed(1) {
		t.Fatal("locality 1 reported crashed before Crash")
	}
	plan.Crash(1)
	if !plan.Crashed(1) {
		t.Fatal("Crashed(1) = false after Crash")
	}

	// To and from the crashed locality: silently dropped.
	send(0, 1)
	send(1, 0)
	send(1, 2)
	// Between survivors: unaffected.
	send(0, 2)
	send(2, 0)
	wait(2, 1)
	wait(0, 1)
	time.Sleep(5 * time.Millisecond)
	if got[1].Load() != 1 {
		t.Errorf("crashed locality received %d messages after crash, want still 1", got[1].Load())
	}
	if plan.Injected() < 3 {
		t.Errorf("Injected() = %d, want >= 3 (the crash drops)", plan.Injected())
	}
}
