package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/adaptive"
	"repro/internal/taskbench"
)

// The taskgraph workload: three dependence patterns back to back under
// one MultiTuner, the paper's phase-adaptive scenario. stencil_1d is
// sparse nearest-neighbour traffic (coalescing can only delay it); fft
// and spread are bursty and long-range (coalescing helps). Each phase
// runs runsPerPhase graphs, and one cycle of the three phases is the unit
// the window is cut into: every cycle has the same composition, so cycle
// rates are comparable where equal time slices, which would catch
// different shares of each phase, are not.
var taskPhases = []taskbench.Pattern{taskbench.Stencil1D, taskbench.FFT, taskbench.Spread}

const (
	graphWidth   = 64
	graphSteps   = 16
	graphGrain   = 64 // spin iterations per task body
	graphOutput  = 32 // bytes per dependence message
	runsPerPhase = 16
	// tunerMaxNParcels bounds the tuner's search at the most parcels one
	// locality can have for another in one step of the graph: a longer
	// queue can never fill, so every flush would wait out its timer. With
	// the tuner's shipped bound of 1024 it climbs there on every pattern
	// (the Eq. 4 signal it follows cannot see the latency cost) and the
	// task rate becomes a random walk: 42 k to 59 k tasks/s over ten 15 s
	// runs, one run in ten stuck low for seconds, which the driver's
	// spread test does not survive. The traced pass measures the shipped
	// bound beside it (shippedBound), as a per-layer metric.
	tunerMaxNParcels = graphWidth / localities
)

func benchGraph(p taskbench.Pattern, seed int64) taskbench.Graph {
	return taskbench.Graph{
		Width: graphWidth, Steps: graphSteps, Pattern: p,
		Iterations: graphGrain, OutputBytes: graphOutput, Seed: seed,
	}
}

// phaseTotals accumulates one pattern's complete graphs.
type phaseTotals struct {
	tasks int64
	wall  time.Duration
	// finalNParcels is the coalescing queue length in force when the
	// pattern's most recent phase ended: where the tuner landed.
	finalNParcels int
}

// phaseSpan is one occurrence of a phase, for the settle-time figure.
type phaseSpan struct{ from, to time.Time }

type taskgraph struct {
	e     *env
	seed  int64
	bench *taskbench.Bench
	tuner *adaptive.MultiTuner

	done    int64 // task bodies of complete graphs
	issued  int64 // task bodies of all graphs started
	missing int64 // task bodies of graphs that failed or came up short
	steps   int64

	phases map[taskbench.Pattern]*phaseTotals
	spans  []phaseSpan
}

// newTaskgraph starts the tuner with its search bounded at maxNParcels
// (0: the tuner's shipped default).
func newTaskgraph(e *env, seed int64, maxNParcels int) (*taskgraph, error) {
	b, err := taskbench.New(e.rt, taskbench.Options{Timeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	if err := e.rt.EnableCoalescing(b.ActionName(), e.spec.coalesce); err != nil {
		return nil, err
	}
	t := &taskgraph{
		e: e, seed: seed, bench: b,
		tuner:  adaptive.NewMultiTuner(e.rt, b.ActionName(), adaptive.MultiTunerConfig{MaxNParcels: maxNParcels}),
		phases: make(map[taskbench.Pattern]*phaseTotals),
	}
	for _, p := range taskPhases {
		t.phases[p] = &phaseTotals{}
	}
	t.tuner.Start()
	return t, nil
}

// graph runs one graph and checks that every task body ran. It returns
// the time per step.
func (t *taskgraph) graph(p taskbench.Pattern) (perStep time.Duration, ok bool) {
	g := benchGraph(p, t.seed)
	want := int64(g.TotalTasks())
	t.issued += want
	res, err := t.bench.Run(g)
	if err != nil {
		t.missing += want
		return 0, false
	}
	if res.Tasks != want {
		t.missing += max(want-res.Tasks, res.Tasks-want)
		return 0, false
	}
	t.done += want
	t.steps += int64(g.Steps)
	ph := t.phases[p]
	ph.tasks += want
	ph.wall += res.Wall
	return res.Wall / time.Duration(g.Steps), true
}

// first runs the smallest graph with a cross-locality edge: two points,
// two steps.
func (t *taskgraph) first() error {
	g := taskbench.Graph{Width: 2, Steps: 2, Pattern: taskbench.Stencil1D, Iterations: 1, OutputBytes: graphOutput, Seed: t.seed}
	t.issued += int64(g.TotalTasks())
	res, err := t.bench.Run(g)
	if err != nil {
		return fmt.Errorf("%s: first graph: %w", t.e.spec.name, err)
	}
	if res.Tasks != int64(g.TotalTasks()) {
		return fmt.Errorf("%s: first graph ran %d of %d tasks", t.e.spec.name, res.Tasks, g.TotalTasks())
	}
	return nil
}

func (t *taskgraph) mark() sliceMark {
	return sliceMark{
		at:      time.Now(),
		cpu:     cpuNow(),
		ops:     t.done,
		parcels: t.e.portTotals().ParcelsReceived,
		tasks:   t.done,
	}
}

// run executes whole cycles until d has passed, marking each cycle.
func (t *taskgraph) run(d time.Duration, _ int) *window {
	w := &window{marks: []sliceMark{t.mark()}}
	start := w.marks[0].at
	for time.Since(start) < d {
		for _, p := range taskPhases {
			from := time.Now()
			for r := 0; r < runsPerPhase; r++ {
				if perStep, ok := t.graph(p); ok {
					w.lats = append(w.lats, latSample{doneNs: int64(time.Since(start)), lat: perStep})
				}
			}
			t.spans = append(t.spans, phaseSpan{from, time.Now()})
			if params, err := t.e.rt.CoalescingParams(t.bench.ActionName()); err == nil {
				t.phases[p].finalNParcels = params.NParcels
			}
		}
		w.marks = append(w.marks, t.mark())
	}
	return w
}

func (t *taskgraph) finish() { t.tuner.Stop() }

func (t *taskgraph) coalescedAction() string { return t.bench.ActionName() }

func (t *taskgraph) failures() map[string]int64 {
	return map[string]int64{"missing_tasks": t.missing}
}

func (t *taskgraph) attempted() int64 { return t.issued }

// settleSeconds is the median, over phase occurrences, of how long after
// the phase began the tuner made its last decision inside it: how long
// the controller keeps moving after the traffic changes under it.
func (t *taskgraph) settleSeconds() float64 {
	decisions := t.tuner.Decisions()
	var settle []float64
	for _, sp := range t.spans {
		last := 0.0
		for _, d := range decisions {
			if d.When.After(sp.from) && d.When.Before(sp.to) {
				last = d.When.Sub(sp.from).Seconds()
			}
		}
		settle = append(settle, last)
	}
	return median(settle)
}

// shippedBound runs the phase cycle on a fresh stack under a tuner with
// its shipped search bound, for about a third of the pass's window after
// as much warm-up as the pass had: what the runtime does as delivered, and
// what a later change to the tuner has to beat. It is a short reading of a
// quantity that wanders, so expect it to scatter by a fifth.
func (g *taskgraph) shippedBound(t *tracedState, cfg passConfig) {
	e, err := buildEnv(specs["taskgraph"], cfg.Seed, nil)
	if err != nil {
		return
	}
	defer e.close()
	u, err := newTaskgraph(e, cfg.Seed, 0)
	if err != nil {
		return
	}
	u.run(cfg.Warmup, 0)
	w := u.run(cfg.Duration/3, 0)
	u.finish()
	if u.missing > 0 {
		return
	}
	t.put("taskbench.tasks_per_s_shipped_bound", rate(w.ops(), w.wall()))
	reached := 0
	for _, p := range u.phases {
		reached = max(reached, p.finalNParcels)
	}
	t.put("adaptive.final_nparcels_shipped_bound", float64(reached))
}

// ladderGrains are the task grains (spin iterations) of the METG ladder,
// from the workload's own grain up to tasks of most of a millisecond.
var ladderGrains = []int{graphGrain, 1024, 8192, 65536, 524288}

// ladder measures Task Bench's minimum effective task granularity on
// stencil_1d: the graph runs at five task grains on a fresh, untuned
// stack; a grain's efficiency is its useful-work rate (tasks × grain per
// second) over the best rate of the ladder, its granularity the wall
// time × workers per task; METG(50 %) is the granularity at which
// efficiency crosses one half, interpolated between ladder points on a
// log scale. taskbench.efficiency is the efficiency at the workload's
// own grain.
func (g *taskgraph) ladder(t *tracedState, seed int64) {
	e, err := buildEnv(specs["taskgraph"], seed, nil)
	if err != nil {
		return
	}
	defer e.close()
	b, err := taskbench.New(e.rt, taskbench.Options{Timeout: 30 * time.Second})
	if err != nil {
		return
	}
	if err := e.rt.EnableCoalescing(b.ActionName(), e.spec.coalesce); err != nil {
		return
	}
	workRate := make([]float64, len(ladderGrains))
	granUS := make([]float64, len(ladderGrains))
	for i, grain := range ladderGrains {
		gr := benchGraph(taskbench.Stencil1D, seed)
		gr.Steps, gr.Iterations = 8, grain
		if _, err := b.Run(gr); err != nil { // warm-up
			return
		}
		var tasks int64
		var wall time.Duration
		for wall < 250*time.Millisecond {
			res, err := b.Run(gr)
			if err != nil {
				return
			}
			tasks += res.Tasks
			wall += res.Wall
		}
		workRate[i] = rate(tasks, wall) * float64(grain)
		granUS[i] = wall.Seconds() * 1e6 * localities * workers / float64(tasks)
	}
	peak := 0.0
	for _, r := range workRate {
		peak = max(peak, r)
	}
	eff := func(i int) float64 { return ratio(workRate[i], peak) }
	t.put("taskbench.efficiency", eff(0))
	metg := granUS[0]
	for i := range ladderGrains {
		if eff(i) < 0.5 {
			continue
		}
		if i > 0 {
			// Linear in efficiency, logarithmic in granularity.
			f := ratio(0.5-eff(i-1), eff(i)-eff(i-1))
			metg = math.Exp(math.Log(granUS[i-1]) + f*(math.Log(granUS[i])-math.Log(granUS[i-1])))
		}
		break
	}
	t.put("taskbench.metg50_us", metg)
}
