// Taskbench walkthrough: the Task Bench-style parameterized workload
// subsystem (internal/taskbench) in three acts.
//
//  1. One graph, one run: a stencil_1d dependence graph executes over
//     two localities with per-step dataflow through the coalescing
//     layer, reporting wall time and the Eq. 4 network overhead.
//  2. The correlation harness: two contrasting patterns swept across a
//     coalescing grid, with the per-pattern Pearson r between overhead
//     and execution time — the paper's central claim, per pattern.
//  3. The adaptive phase demo: a stencil → fft → random sequence under
//     a live MultiTuner, showing the tuner re-converging when the
//     communication structure changes underneath it.
//
// The committed BENCH_taskbench.json is the full-size version of acts 2
// and 3 (all eight patterns, 3×3 grid), produced by
// `go run ./cmd/amc-bench -suite taskbench`.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/coalescing"
	"repro/internal/runtime"
	"repro/internal/taskbench"
)

func main() {
	// Act 1: one graph end to end.
	rt := runtime.New(runtime.Config{Localities: 2, WorkersPerLocality: 2})
	bench, err := taskbench.New(rt, taskbench.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.EnableCoalescing(bench.ActionName(), coalescing.Params{
		NParcels: 16, Interval: 500 * time.Microsecond,
	}); err != nil {
		log.Fatal(err)
	}
	res, err := bench.Run(taskbench.Graph{
		Width: 16, Steps: 8, Pattern: taskbench.Stencil1D, Iterations: 64, OutputBytes: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single run  %-38s wall=%-10v n_oh=%.4f tasks=%d msgs=%d parcels=%d\n\n",
		res.Graph, res.Wall.Round(time.Microsecond), res.NetworkOverhead,
		res.Tasks, res.MessagesSent, res.ParcelsSent)
	rt.Shutdown()

	// Act 2: the correlation harness on two contrasting patterns.
	reports, err := taskbench.RunSweep(taskbench.SweepConfig{
		Graph:    taskbench.Graph{Width: 32, Steps: 12, Iterations: 64, OutputBytes: 32},
		Patterns: []taskbench.Pattern{taskbench.Stencil1DPeriodic, taskbench.Random},
		Repeat:   2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("correlation sweep (Nmsg × Tint grid per pattern):")
	for _, rep := range reports {
		fmt.Printf("  %-20s pearson r=%+.3f  best %.2fms (n=%d t=%gµs)  worst %.2fms (n=%d t=%gµs)\n",
			rep.Pattern, rep.PearsonR,
			rep.Best.WallMS, rep.Best.NParcels, rep.Best.IntervalUS,
			rep.Worst.WallMS, rep.Worst.NParcels, rep.Worst.IntervalUS)
		for _, pt := range rep.Points {
			fmt.Printf("      n=%-3d t=%6gµs  wall=%8.2fms  n_oh=%.4f  msgs=%d\n",
				pt.NParcels, pt.IntervalUS, pt.WallMS, pt.NetworkOverhead, pt.MessagesSent)
		}
	}

	// Act 3: the tuner across a pattern phase change.
	demo, err := taskbench.RunPhaseDemo(taskbench.PhaseDemoConfig{
		Graph:        taskbench.Graph{Width: 32, Steps: 12, Iterations: 64, OutputBytes: 32},
		RunsPerPhase: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nadaptive phase demo (stencil_1d → fft → random under one MultiTuner):")
	for _, ph := range demo.Phases {
		fmt.Printf("  %-12s runs=%d  final NParcels=%-4d decisions=%-3d mean n_oh=%.4f  wall=%.1fms\n",
			ph.Pattern, ph.Runs, ph.FinalNParcels, ph.Decisions, ph.MeanOverhead, ph.WallMS)
	}
	fmt.Printf("  reconverged across phases: %v (%d distinct parameter values)\n",
		demo.Reconverged, demo.DistinctNParcels)
}
