package taskbench

import (
	"fmt"
	"time"

	"repro/internal/adaptive"
	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/runtime"
)

// PhaseDemoConfig drives the multi-phase adaptive demo: a single runtime
// executes a sequence of dependence patterns back to back while an
// OverheadTuner watches the Eq. 4 counter, demonstrating the tuner
// re-converging when the communication structure changes under it — the
// capability the paper argues introspective metrics enable for
// applications without "a predictable pattern of communication".
type PhaseDemoConfig struct {
	// Localities and WorkersPerLocality shape the runtime
	// (defaults 2 and 2).
	Localities         int
	WorkersPerLocality int
	// Graph is the base workload; its Pattern is overridden per phase.
	Graph Graph
	// Phases is the pattern sequence (default stencil_1d → fft →
	// random).
	Phases []Pattern
	// RunsPerPhase is how many graph executions each phase performs,
	// giving the tuner time to settle (default 8).
	RunsPerPhase int
	// InitialParams seed the coalescer (default 1 parcel / 1ms:
	// coalescing effectively off, so the tuner's climb is visible).
	InitialParams coalescing.Params
	// CostModel shapes the fabric; zero selects the default model.
	CostModel network.CostModel
	// Timeout bounds each run (default 60s).
	Timeout time.Duration
}

// WithDefaults resolves unset fields.
func (c PhaseDemoConfig) WithDefaults() PhaseDemoConfig {
	if c.Localities <= 0 {
		c.Localities = 2
	}
	if c.WorkersPerLocality <= 0 {
		c.WorkersPerLocality = 2
	}
	c.Graph = c.Graph.WithDefaults()
	if len(c.Phases) == 0 {
		c.Phases = []Pattern{Stencil1D, FFT, Random}
	}
	if c.RunsPerPhase <= 0 {
		c.RunsPerPhase = 8
	}
	if c.InitialParams.NParcels == 0 {
		c.InitialParams = coalescing.Params{NParcels: 1, Interval: time.Millisecond}
	}
	if (c.CostModel == network.CostModel{}) {
		c.CostModel = network.DefaultCostModel()
	}
	return c
}

// PhaseOutcome records where the tuner landed at the end of one pattern
// phase.
type PhaseOutcome struct {
	Pattern string `json:"pattern"`
	Runs    int    `json:"runs"`
	// FinalNParcels and FinalIntervalUS are the coalescing parameters in
	// force when the phase ended.
	FinalNParcels   int     `json:"final_n_parcels"`
	FinalIntervalUS float64 `json:"final_interval_us"`
	// Decisions is how many tuning decisions the controller made during
	// the phase, and MeanOverhead the mean Eq. 4 value of its runs.
	Decisions    int     `json:"decisions"`
	MeanOverhead float64 `json:"mean_overhead"`
	WallMS       float64 `json:"wall_ms"`
}

// PhaseDemoResult is the full demo output.
type PhaseDemoResult struct {
	Phases []PhaseOutcome `json:"phases"`
	// DistinctNParcels counts the distinct final parameter values across
	// phases; Reconverged reports the acceptance condition that at least
	// two phases converged to different parameters.
	DistinctNParcels int  `json:"distinct_n_parcels"`
	Reconverged      bool `json:"reconverged"`
	// TotalDecisions is the tuner's decision count over the whole demo.
	TotalDecisions int `json:"total_decisions"`
}

// RunPhaseDemo executes the pattern sequence under a live OverheadTuner.
func RunPhaseDemo(cfg PhaseDemoConfig) (PhaseDemoResult, error) {
	cfg = cfg.WithDefaults()
	rt := runtime.New(runtime.Config{
		Localities:         cfg.Localities,
		WorkersPerLocality: cfg.WorkersPerLocality,
		CostModel:          cfg.CostModel,
	})
	defer rt.Shutdown()

	bench, err := New(rt, Options{Timeout: cfg.Timeout})
	if err != nil {
		return PhaseDemoResult{}, err
	}
	if err := rt.EnableCoalescing(bench.ActionName(), cfg.InitialParams); err != nil {
		return PhaseDemoResult{}, err
	}
	// A faster, narrower climb than the tuner's defaults, sized to the
	// demo's run lengths.
	tuner := adaptive.NewOverheadTuner(rt, bench.ActionName(), adaptive.TunerConfig{
		SampleInterval: 20 * time.Millisecond,
		MaxNParcels:    256,
		MinWindowTasks: 20,
	})
	tuner.Start()
	defer tuner.Stop()

	var out PhaseDemoResult
	finals := map[int]bool{}
	for _, pat := range cfg.Phases {
		g := cfg.Graph
		g.Pattern = pat
		start := time.Now()
		var overhead float64
		for r := 0; r < cfg.RunsPerPhase; r++ {
			res, err := bench.Run(g)
			if err != nil {
				return out, fmt.Errorf("taskbench: phase %s run %d: %w", pat, r, err)
			}
			overhead += res.NetworkOverhead
		}
		params, err := rt.CoalescingParams(bench.ActionName())
		if err != nil {
			return out, err
		}
		decisions := int(tuner.DecisionCount())
		out.Phases = append(out.Phases, PhaseOutcome{
			Pattern:         string(pat),
			Runs:            cfg.RunsPerPhase,
			FinalNParcels:   params.NParcels,
			FinalIntervalUS: float64(params.Interval) / float64(time.Microsecond),
			Decisions:       decisions - out.TotalDecisions,
			MeanOverhead:    overhead / float64(cfg.RunsPerPhase),
			WallMS:          float64(time.Since(start)) / float64(time.Millisecond),
		})
		out.TotalDecisions = decisions
		finals[params.NParcels] = true
	}
	out.DistinctNParcels = len(finals)
	out.Reconverged = out.DistinctNParcels >= 2
	return out, nil
}
