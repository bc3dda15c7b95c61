package metrics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/lco"
	"repro/internal/network"
	"repro/internal/runtime"
)

func newTestRuntime(t *testing.T) *runtime.Runtime {
	t.Helper()
	rt := runtime.New(runtime.Config{
		Localities:         2,
		WorkersPerLocality: 2,
		CostModel: network.CostModel{
			SendOverhead: 5 * time.Microsecond,
			RecvOverhead: 5 * time.Microsecond,
			Latency:      5 * time.Microsecond,
		},
	})
	t.Cleanup(rt.Shutdown)
	rt.MustRegisterAction("work", func(_ *runtime.Context, _ []byte) ([]byte, error) {
		time.Sleep(100 * time.Microsecond)
		return nil, nil
	})
	return rt
}

func burst(t *testing.T, rt *runtime.Runtime, n int) {
	t.Helper()
	futures := make([]*lco.Future[[]byte], 0, n)
	for i := 0; i < n; i++ {
		f, err := rt.Locality(0).Async(1, "work", nil)
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
}

func TestSampleZero(t *testing.T) {
	var s Sample
	if s.NetworkOverhead() != 0 {
		t.Error("zero sample should report zero metrics")
	}
}

func TestSnapshotAdvances(t *testing.T) {
	rt := newTestRuntime(t)
	before := Snapshot(rt)
	burst(t, rt, 20)
	after := Snapshot(rt)
	if after.Tasks <= before.Tasks {
		t.Errorf("tasks did not advance: %d -> %d", before.Tasks, after.Tasks)
	}
	if after.TaskDuration <= before.TaskDuration {
		t.Error("task duration did not advance")
	}
	if after.BackgroundWork <= before.BackgroundWork {
		t.Error("background work did not advance")
	}
	if after.ExecDuration < 20*100*time.Microsecond {
		t.Errorf("exec duration = %v", after.ExecDuration)
	}
	if oh := after.NetworkOverhead(); oh <= 0 || oh >= 1 {
		t.Errorf("network overhead = %v", oh)
	}
}

func TestPhaseRecorderDeltas(t *testing.T) {
	rt := newTestRuntime(t)
	rec := NewPhaseRecorder(rt)
	burst(t, rt, 10)
	p1 := rec.EndPhase("phase 1")
	if p1.Tasks < 10 {
		t.Errorf("phase 1 tasks = %d", p1.Tasks)
	}
	if p1.Wall <= 0 {
		t.Error("phase wall time not positive")
	}
	// An empty phase has (almost) no task delta.
	p2 := rec.EndPhase("phase 2")
	if p2.Tasks > 2 {
		t.Errorf("idle phase recorded %d tasks", p2.Tasks)
	}
	burst(t, rt, 10)
	p3 := rec.EndPhase("phase 3")
	if p3.Tasks < 10 {
		t.Errorf("phase 3 tasks = %d", p3.Tasks)
	}
	if p1.Label != "phase 1" || p3.Label != "phase 3" {
		t.Errorf("labels = %q, %q", p1.Label, p3.Label)
	}
}

func TestPhaseMetricsComputation(t *testing.T) {
	p := Phase{
		Tasks:          10,
		TaskDuration:   100 * time.Microsecond,
		ExecDuration:   60 * time.Microsecond,
		BackgroundWork: 300 * time.Microsecond,
	}
	if got := p.TaskOverheadUS(); got != 4 {
		t.Errorf("task overhead = %v, want 4µs", got)
	}
	if got := p.NetworkOverhead(); got != 0.75 {
		t.Errorf("network overhead = %v, want 0.75", got)
	}
	if (Phase{}).NetworkOverhead() != 0 || (Phase{}).TaskOverheadUS() != 0 {
		t.Error("zero phase should report zero metrics")
	}
	if !strings.Contains(p.String(), "n_oh=0.75") {
		t.Errorf("String = %q", p.String())
	}
}

func TestOverheadRespondsToCoalescingLoad(t *testing.T) {
	// More messages for the same task count must raise the phase's
	// network overhead — the monotone relationship the whole methodology
	// rests on. Compare a chatty phase against a quiet one.
	rt := newTestRuntime(t)
	rec := NewPhaseRecorder(rt)
	burst(t, rt, 40)
	chatty := rec.EndPhase("chatty")
	// Quiet phase: same wall-clock but no traffic.
	time.Sleep(chatty.Wall)
	quiet := rec.EndPhase("quiet")
	if chatty.NetworkOverhead() <= quiet.NetworkOverhead() {
		t.Errorf("chatty n_oh %v <= quiet n_oh %v", chatty.NetworkOverhead(), quiet.NetworkOverhead())
	}
}
