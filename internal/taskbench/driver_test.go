package taskbench

import (
	"testing"
	"time"

	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/runtime"
)

func newTestRuntime(t *testing.T, localities int) *runtime.Runtime {
	t.Helper()
	rt := runtime.New(runtime.Config{
		Localities:         localities,
		WorkersPerLocality: 2,
		// A light cost model keeps the unit tests fast while still
		// exercising the parcel path.
		CostModel: network.CostModel{SendOverhead: time.Microsecond, Latency: 2 * time.Microsecond},
	})
	t.Cleanup(rt.Shutdown)
	return rt
}

// TestDriverRunsEveryPattern executes a small graph of every pattern on
// two localities with coalescing enabled and checks every task body ran
// exactly once.
func TestDriverRunsEveryPattern(t *testing.T) {
	rt := newTestRuntime(t, 2)
	bench, err := New(rt, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.EnableCoalescing(bench.ActionName(), coalescing.Params{
		NParcels: 8, Interval: 200 * time.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	for _, pat := range AllPatterns {
		g := Graph{Width: 10, Steps: 6, Pattern: pat, Iterations: 16, OutputBytes: 16}
		res, err := bench.Run(g)
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		if want := int64(res.Graph.TotalTasks()); res.Tasks != want {
			t.Errorf("%s: executed %d tasks, want exactly %d", pat, res.Tasks, want)
		}
		if res.Wall <= 0 {
			t.Errorf("%s: non-positive wall time %v", pat, res.Wall)
		}
		// Patterns with cross-partition edges must generate wire traffic;
		// trivial and no_comm must not (width 10 on 2 localities splits
		// points 0..4 / 5..9, and vertical edges never cross).
		cross := pat != Trivial && pat != NoComm
		if cross && res.ParcelsSent == 0 {
			t.Errorf("%s: no parcels sent despite cross-locality edges", pat)
		}
		if !cross && res.ParcelsSent != 0 {
			t.Errorf("%s: %d parcels sent, want none", pat, res.ParcelsSent)
		}
	}
}

// TestDriverSingleLocalityAndWidthOne covers the degenerate shapes: one
// locality (all edges local) and width 1 / width 2 graphs.
func TestDriverSingleLocalityAndWidthOne(t *testing.T) {
	rt := newTestRuntime(t, 1)
	bench, err := New(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range AllPatterns {
		for _, w := range []int{1, 2} {
			g := Graph{Width: w, Steps: 5, Pattern: pat, Iterations: 8, OutputBytes: 8}
			res, err := bench.Run(g)
			if err != nil {
				t.Fatalf("%s w=%d: %v", pat, w, err)
			}
			if want := int64(w * 5); res.Tasks != want {
				t.Errorf("%s w=%d: executed %d tasks, want %d", pat, w, res.Tasks, want)
			}
		}
	}
}

// TestDriverSequentialRuns checks a bench can be reused: counters are
// deltas, tasks do not leak between runs, and a second graph with a
// different pattern runs cleanly.
func TestDriverSequentialRuns(t *testing.T) {
	rt := newTestRuntime(t, 2)
	bench, err := New(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pat := range []Pattern{Stencil1D, FFT, Stencil1D} {
		res, err := bench.Run(Graph{Width: 8, Steps: 4, Pattern: pat, Iterations: 8})
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, pat, err)
		}
		if want := int64(32); res.Tasks != want {
			t.Errorf("run %d (%s): %d tasks, want %d", i, pat, res.Tasks, want)
		}
	}
}

// TestDriverRejectsBadGraph checks validation surfaces before any task
// is spawned.
func TestDriverRejectsBadGraph(t *testing.T) {
	rt := newTestRuntime(t, 2)
	bench, err := New(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Run(Graph{Width: 4, Steps: 4, Pattern: "bogus"}); err == nil {
		t.Error("bogus pattern accepted")
	}
}

// TestTwoBenchesCoexist checks the ActionName override lets two drivers
// share one runtime.
func TestTwoBenchesCoexist(t *testing.T) {
	rt := newTestRuntime(t, 2)
	a, err := New(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(rt, Options{}); err == nil {
		t.Fatal("duplicate default action accepted")
	}
	b, err := New(rt, Options{ActionName: "taskbench/input-2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []*Bench{a, b} {
		if res, err := bench.Run(Graph{Width: 6, Steps: 3, Pattern: Spread, Iterations: 4}); err != nil {
			t.Fatal(err)
		} else if res.Tasks != 18 {
			t.Errorf("%s: %d tasks, want 18", bench.ActionName(), res.Tasks)
		}
	}
}

// TestRunReusesDependenceTablesOfTheSameGraph runs one graph twice, then
// another graph: the second run shares the first run's dependence tables
// and still executes every task exactly once, and a different graph gets
// tables of its own.
func TestRunReusesDependenceTablesOfTheSameGraph(t *testing.T) {
	rt := newTestRuntime(t, 2)
	bench, err := New(rt, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	run := func(g Graph) *[]int {
		t.Helper()
		res, err := bench.Run(g)
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if want := int64(res.Graph.TotalTasks()); res.Tasks != want {
			t.Fatalf("%s: executed %d tasks, want exactly %d", g, res.Tasks, want)
		}
		return &bench.deps[0]
	}
	g := Graph{Width: 8, Steps: 6, Pattern: Random, Iterations: 8, OutputBytes: 8}
	first := run(g)
	if again := run(g); again != first {
		t.Error("a second run of the same graph rebuilt its dependence tables")
	}
	g.Seed = 2
	if other := run(g); other == first {
		t.Error("a different graph reused the previous graph's dependence tables")
	}
}
