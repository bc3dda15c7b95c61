package bench

import (
	"testing"
	"time"

	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/taskbench"
)

// TaskbenchSweepConfig returns the harness configuration behind
// BENCH_taskbench.json: all nine dependence patterns across a 3×3
// (NParcels × Interval) coalescing grid on two simulated localities.
// quick shrinks the workload to a CI-smoke size (tiny width/steps, one
// repeat) that still exercises every pattern and every grid cell.
func TaskbenchSweepConfig(quick bool) taskbench.SweepConfig {
	cfg := taskbench.SweepConfig{
		Localities:         2,
		WorkersPerLocality: 2,
		Graph: taskbench.Graph{
			Width:       32,
			Steps:       16,
			Iterations:  64,
			OutputBytes: 32,
			Seed:        1,
		},
		NParcels:  []int{1, 8, 64},
		Intervals: []time.Duration{100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond},
		Repeat:    5,
	}
	if quick {
		cfg.Graph.Width = 6
		cfg.Graph.Steps = 4
		cfg.Graph.Iterations = 8
		cfg.Repeat = 1
	}
	return cfg
}

// TaskbenchPhaseConfig returns the adaptive phase-demo configuration:
// a stencil → fft → random pattern sequence on one runtime under a live
// MultiTuner, demonstrating re-convergence across phase changes.
func TaskbenchPhaseConfig(quick bool) taskbench.PhaseDemoConfig {
	cfg := taskbench.PhaseDemoConfig{
		Localities:         2,
		WorkersPerLocality: 2,
		Graph: taskbench.Graph{
			Width:       32,
			Steps:       16,
			Iterations:  64,
			OutputBytes: 32,
		},
		Phases:       []taskbench.Pattern{taskbench.Stencil1D, taskbench.FFT, taskbench.Random},
		RunsPerPhase: 10,
	}
	if quick {
		cfg.Graph.Width = 6
		cfg.Graph.Steps = 4
		cfg.Graph.Iterations = 8
		cfg.RunsPerPhase = 2
	}
	return cfg
}

// TaskbenchGraph measures end-to-end execution of one small stencil
// graph per iteration on a shared runtime: the task-graph analog of the
// other suites' ns/op numbers, with tasks/sec reported. It doubles as
// the `go test -bench` smoke for the taskbench driver.
func TaskbenchGraph(b *testing.B, pattern taskbench.Pattern) {
	rt := runtime.New(runtime.Config{
		Localities:         2,
		WorkersPerLocality: 2,
		CostModel: network.CostModel{
			SendOverhead: 5 * time.Microsecond,
			RecvOverhead: 3 * time.Microsecond,
			Latency:      5 * time.Microsecond,
		},
	})
	defer rt.Shutdown()
	tb, err := taskbench.New(rt, taskbench.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.EnableCoalescing(tb.ActionName(), coalescing.Params{
		NParcels: 16, Interval: 200 * time.Microsecond,
	}); err != nil {
		b.Fatal(err)
	}
	g := taskbench.Graph{Width: 8, Steps: 6, Pattern: pattern, Iterations: 16, OutputBytes: 16}
	var tasks int64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := tb.Run(g)
		if err != nil {
			b.Fatal(err)
		}
		tasks += res.Tasks
	}
	b.StopTimer()
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(tasks)/sec, "tasks/sec")
	}
}

// TaskbenchBenchName names one graph benchmark by its pattern.
func TaskbenchBenchName(pattern taskbench.Pattern) string {
	return "pattern=" + string(pattern)
}
