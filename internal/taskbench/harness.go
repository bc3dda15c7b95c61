package taskbench

import (
	"fmt"
	"time"

	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// SweepConfig parameterizes the per-pattern overhead-correlation
// harness: every pattern in Patterns is executed across the full
// NParcels × Intervals coalescing grid, and each cell's execution time
// and Eq. 4 network overhead are recorded.
type SweepConfig struct {
	// Localities and WorkersPerLocality shape the runtime
	// (defaults 2 and 2).
	Localities         int
	WorkersPerLocality int
	// Graph is the base workload; its Pattern field is overridden per
	// sweep entry.
	Graph Graph
	// Patterns lists the dependence patterns to sweep (default
	// AllPatterns).
	Patterns []Pattern
	// NParcels and Intervals span the coalescing grid (defaults
	// {1, 8, 64} × {100µs, 500µs, 2ms} — the 3×3 the acceptance
	// criteria require).
	NParcels  []int
	Intervals []time.Duration
	// Repeat is how many runs are averaged per cell (default 3).
	Repeat int
	// CostModel shapes the simulated fabric; zero selects
	// network.DefaultCostModel, whose per-message send overhead is what
	// coalescing amortizes.
	CostModel network.CostModel
}

// WithDefaults resolves unset fields.
func (c SweepConfig) WithDefaults() SweepConfig {
	if c.Localities <= 0 {
		c.Localities = 2
	}
	if c.WorkersPerLocality <= 0 {
		c.WorkersPerLocality = 2
	}
	c.Graph = c.Graph.WithDefaults()
	if len(c.Patterns) == 0 {
		c.Patterns = AllPatterns
	}
	if len(c.NParcels) == 0 {
		c.NParcels = []int{1, 8, 64}
	}
	if len(c.Intervals) == 0 {
		c.Intervals = []time.Duration{100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond}
	}
	if c.Repeat <= 0 {
		c.Repeat = 3
	}
	if (c.CostModel == network.CostModel{}) {
		c.CostModel = network.DefaultCostModel()
	}
	return c
}

// SweepPoint is one cell of a pattern's coalescing grid, averaged over
// Repeat runs.
type SweepPoint struct {
	NParcels        int     `json:"n_parcels"`
	IntervalUS      float64 `json:"interval_us"`
	WallMS          float64 `json:"wall_ms"`
	NetworkOverhead float64 `json:"network_overhead"`
	MessagesSent    int64   `json:"messages_sent"`
	ParcelsSent     int64   `json:"parcels_sent"`
}

// PatternReport is the harness output for one dependence pattern: the
// full grid plus the Pearson correlation between the Eq. 4 overhead and
// execution time across the grid — the paper's central claim, measured
// per pattern.
type PatternReport struct {
	Pattern string       `json:"pattern"`
	Points  []SweepPoint `json:"points"`
	// PearsonR correlates NetworkOverhead with WallMS across Points;
	// RValid is false when the correlation is undefined (e.g. zero
	// variance for communication-free patterns).
	PearsonR float64 `json:"pearson_r"`
	RValid   bool    `json:"r_valid"`
	// Best and Worst are the fastest and slowest cells.
	Best  SweepPoint `json:"best"`
	Worst SweepPoint `json:"worst"`
}

// RunSweep executes the correlation harness: a fresh runtime per
// pattern, the full coalescing grid per runtime, Pearson r per pattern.
func RunSweep(cfg SweepConfig) ([]PatternReport, error) {
	cfg = cfg.WithDefaults()
	reports := make([]PatternReport, 0, len(cfg.Patterns))
	for _, pat := range cfg.Patterns {
		rep, err := sweepPattern(cfg, pat)
		if err != nil {
			return reports, fmt.Errorf("taskbench: pattern %s: %w", pat, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

func sweepPattern(cfg SweepConfig, pat Pattern) (PatternReport, error) {
	rt := runtime.New(runtime.Config{
		Localities:         cfg.Localities,
		WorkersPerLocality: cfg.WorkersPerLocality,
		CostModel:          cfg.CostModel,
	})
	defer rt.Shutdown()

	bench, err := New(rt, Options{})
	if err != nil {
		return PatternReport{}, err
	}
	g := cfg.Graph
	g.Pattern = pat
	if err := rt.EnableCoalescing(bench.ActionName(), coalescing.Params{
		NParcels: cfg.NParcels[0],
		Interval: cfg.Intervals[0],
	}); err != nil {
		return PatternReport{}, err
	}
	// One unrecorded warmup run absorbs scheduler and pool cold starts.
	if _, err := bench.Run(g); err != nil {
		return PatternReport{}, err
	}

	rep := PatternReport{Pattern: string(pat)}
	var overheads, walls []float64
	for _, n := range cfg.NParcels {
		for _, iv := range cfg.Intervals {
			params := coalescing.Params{NParcels: n, Interval: iv}
			if err := rt.SetCoalescingParams(bench.ActionName(), params); err != nil {
				return rep, err
			}
			var wall, overhead float64
			var msgs, parcels int64
			for r := 0; r < cfg.Repeat; r++ {
				res, err := bench.Run(g)
				if err != nil {
					return rep, err
				}
				wall += res.Wall.Seconds()
				overhead += res.NetworkOverhead
				msgs += res.MessagesSent
				parcels += res.ParcelsSent
			}
			k := float64(cfg.Repeat)
			pt := SweepPoint{
				NParcels:        n,
				IntervalUS:      float64(iv) / float64(time.Microsecond),
				WallMS:          wall / k * 1e3,
				NetworkOverhead: overhead / k,
				MessagesSent:    msgs / cfg.Repeat64(),
				ParcelsSent:     parcels / cfg.Repeat64(),
			}
			rep.Points = append(rep.Points, pt)
			walls = append(walls, pt.WallMS)
			overheads = append(overheads, pt.NetworkOverhead)
		}
	}
	for i, pt := range rep.Points {
		if i == 0 || pt.WallMS < rep.Best.WallMS {
			rep.Best = pt
		}
		if i == 0 || pt.WallMS > rep.Worst.WallMS {
			rep.Worst = pt
		}
	}
	if r, err := stats.Pearson(overheads, walls); err == nil {
		rep.PearsonR = r
		rep.RValid = true
	}
	return rep, nil
}

// Repeat64 returns Repeat as int64 for averaging counters.
func (c SweepConfig) Repeat64() int64 {
	if c.Repeat <= 0 {
		return 1
	}
	return int64(c.Repeat)
}
