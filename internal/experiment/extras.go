package experiment

import (
	"fmt"
	"time"

	"repro/internal/adaptive"
	"repro/internal/apps/parquet"
	"repro/internal/apps/toy"
	"repro/internal/baselines"
	"repro/internal/coalescing"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/timer"
)

// TimerAccuracyResult reproduces the flush-timer accuracy experiment of
// Section II-B: "a timer was created and set to expire after certain
// amount of time ... the flush timer fires within on average 33 µs of the
// desired fire time."
type TimerAccuracyResult struct {
	Reports []timer.AccuracyReport
}

// TimerAccuracy measures the firing error at several intervals.
func TimerAccuracy(samplesPerInterval int) TimerAccuracyResult {
	if samplesPerInterval <= 0 {
		samplesPerInterval = 200
	}
	svc := timer.NewService(timer.ServiceOptions{})
	defer svc.Stop()
	var res TimerAccuracyResult
	for _, interval := range []time.Duration{
		500 * time.Microsecond,
		time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
	} {
		res.Reports = append(res.Reports, svc.MeasureAccuracy(samplesPerInterval, interval))
	}
	return res
}

// MeanError returns the mean firing error across all intervals.
func (r TimerAccuracyResult) MeanError() time.Duration {
	if len(r.Reports) == 0 {
		return 0
	}
	var sum time.Duration
	for _, rep := range r.Reports {
		sum += rep.Mean
	}
	return sum / time.Duration(len(r.Reports))
}

// Table renders the per-interval accuracy.
func (r TimerAccuracyResult) Table() Table {
	t := Table{
		Title:   "Flush-timer accuracy (paper: mean error ≈ 33 µs on a dedicated thread)",
		Headers: []string{"interval", "samples", "mean", "stddev", "max", "p99"},
	}
	for _, rep := range r.Reports {
		t.Rows = append(t.Rows, []string{
			rep.Interval.String(), fmt.Sprint(rep.Samples),
			rep.Mean.String(), rep.StdDev.String(), rep.Max.String(), rep.P99.String(),
		})
	}
	t.Rows = append(t.Rows, []string{"overall", "", r.MeanError().String(), "", "", ""})
	return t
}

// RSDResult reproduces the Section IV-C repeatability study: repeated
// parquet runs at the paper's trial parameters (4 parcels per message,
// 5000 µs wait) whose relative standard deviation must stay below five
// percent.
type RSDResult struct {
	Runs   int
	Params coalescing.Params
	Totals []time.Duration
	RSD    float64
}

// RSD runs the study.
func RSD(s Scale) (RSDResult, error) {
	res := RSDResult{Runs: s.RSDRuns, Params: params(4, 5000)}
	totals := make([]float64, 0, s.RSDRuns)
	for i := 0; i < s.RSDRuns; i++ {
		r, err := parquet.Run(parquet.Config{
			Localities:         s.ParquetLocalities,
			WorkersPerLocality: s.Workers,
			Nc:                 s.ParquetNc,
			Iterations:         s.ParquetIterations,
			Params:             res.Params,
		})
		if err != nil {
			return res, fmt.Errorf("rsd run %d: %w", i, err)
		}
		res.Totals = append(res.Totals, r.Total)
		totals = append(totals, r.Total.Seconds())
	}
	rsd, err := stats.RSD(totals)
	if err != nil {
		return res, fmt.Errorf("rsd: %w", err)
	}
	res.RSD = rsd
	return res, nil
}

// Table renders the stability summary.
func (r RSDResult) Table() Table {
	totals := make([]float64, len(r.Totals))
	for i, d := range r.Totals {
		totals[i] = d.Seconds() * 1000
	}
	return Table{
		Title:   fmt.Sprintf("Repeatability — parquet, %s, %d runs (paper: RSD < 5%% over 100 runs)", r.Params, r.Runs),
		Headers: []string{"mean(ms)", "stddev(ms)", "min(ms)", "max(ms)", "RSD(%)"},
		Rows: [][]string{{
			fmt.Sprintf("%.3f", stats.Mean(totals)),
			fmt.Sprintf("%.3f", stats.StdDev(totals)),
			fmt.Sprintf("%.3f", stats.Min(totals)),
			fmt.Sprintf("%.3f", stats.Max(totals)),
			fmt.Sprintf("%.2f", r.RSD),
		}},
	}
}

// AdaptiveResult is the extension experiment: the paper's envisioned
// overhead-driven tuner against static parameter choices and the
// PICS-style iterative baseline.
type AdaptiveResult struct {
	// Toy totals under three policies.
	StaticWorst, StaticBest, Tuned time.Duration
	// TunerDecisions is the overhead tuner's decision count; FinalNParcels
	// is where it landed.
	TunerDecisions int
	FinalNParcels  int
	// PICS results on the iterative parquet application.
	PICSDecisions  int
	PICSBest       coalescing.Params
	PICSIterations int
}

// Adaptive runs the extension experiment.
func Adaptive(s Scale) (AdaptiveResult, error) {
	var res AdaptiveResult
	best := s.ToyNParcelsLadder[len(s.ToyNParcelsLadder)-1]
	const waitUS = 2000

	worst, err := runToyAveraged(s, params(1, waitUS), nil)
	if err != nil {
		return res, fmt.Errorf("adaptive static worst: %w", err)
	}
	res.StaticWorst = worst.total
	bestRun, err := runToyAveraged(s, params(best, waitUS), nil)
	if err != nil {
		return res, fmt.Errorf("adaptive static best: %w", err)
	}
	res.StaticBest = bestRun.total

	// Tuned run: start from the worst choice with the overhead tuner
	// attached; give it the same workload.
	rt := runtime.New(runtime.Config{
		Localities:         s.ToyLocalities,
		WorkersPerLocality: s.Workers,
	})
	defer rt.Shutdown()
	toy.Register(rt)
	start := params(1, waitUS)
	if err := rt.EnableCoalescing(toy.Action, start); err != nil {
		return res, err
	}
	tuner := adaptive.NewOverheadTuner(rt, toy.Action, adaptive.TunerConfig{
		SampleInterval: 20 * time.Millisecond,
		MaxNParcels:    best,
	})
	tuner.Start()
	tr, err := toy.RunOn(rt, toy.Config{
		Localities:         s.ToyLocalities,
		WorkersPerLocality: s.Workers,
		ParcelsPerPhase:    s.ToyParcelsPerPhase,
		Phases:             s.ToyPhases,
		Params:             start,
	})
	tuner.Stop()
	if err != nil {
		return res, fmt.Errorf("adaptive tuned run: %w", err)
	}
	res.Tuned = tr.Total
	res.TunerDecisions = len(tuner.Decisions())
	if p, err := rt.CoalescingParams(toy.Action); err == nil {
		res.FinalNParcels = p.NParcels
	}

	// PICS baseline on the iterative parquet application.
	prt := runtime.New(runtime.Config{
		Localities:         s.ParquetLocalities,
		WorkersPerLocality: s.Workers,
		CostModel:          parquet.ScaledCostModel(s.ParquetNc),
	})
	defer prt.Shutdown()
	app := parquet.NewApp(prt, parquet.Config{
		Localities: s.ParquetLocalities,
		Nc:         s.ParquetNc,
	})
	ladderTop := s.ParquetNParcelsLadder[len(s.ParquetNParcelsLadder)-1]
	if err := prt.EnableCoalescing(parquet.Action, params(1, 5000)); err != nil {
		return res, err
	}
	pics, err := adaptive.NewPICSTuner(prt, parquet.Action, adaptive.DefaultLadder(ladderTop, 5000*time.Microsecond))
	if err != nil {
		return res, err
	}
	maxIters := 4 * len(s.ParquetNParcelsLadder)
	for i := 0; i < maxIters && !pics.Converged(); i++ {
		elapsed, err := app.RunOneIteration()
		if err != nil {
			return res, fmt.Errorf("adaptive pics iteration %d: %w", i, err)
		}
		pics.OnIteration(elapsed)
		res.PICSIterations++
	}
	res.PICSDecisions = pics.Decisions()
	res.PICSBest = pics.Best()
	return res, nil
}

// Table renders the comparison.
func (r AdaptiveResult) Table() Table {
	return Table{
		Title:   "Adaptive tuning (extension): overhead-driven tuner vs static choices vs PICS-style baseline",
		Headers: []string{"policy", "toy total(ms)", "decisions", "outcome"},
		Rows: [][]string{
			{"static worst (nparcels=1)", ms(r.StaticWorst), "-", "-"},
			{"static best", ms(r.StaticBest), "-", "-"},
			{"overhead tuner (start at 1)", ms(r.Tuned), fmt.Sprint(r.TunerDecisions), fmt.Sprintf("final nparcels=%d", r.FinalNParcels)},
			{"PICS-style (parquet)", "-", fmt.Sprint(r.PICSDecisions), fmt.Sprintf("best %s after %d iterations", r.PICSBest, r.PICSIterations)},
		},
	}
}

// StrategyResult is one row of the coalescing-strategy ablation.
type StrategyResult struct {
	Name     string
	Total    time.Duration
	Messages int64
	Parcels  int64
}

// Strategies compares the paper's count-based coalescing against the
// related-work baselines (Section I: Active Pebbles/AM++ buffer-size with
// explicit flush, Charm++ periodic check) and the no-coalescing control,
// all driving the toy traffic pattern.
func Strategies(s Scale) ([]StrategyResult, error) {
	const k = 16
	const waitUS = 2000
	// Byte budget equivalent to k toy parcels (~70 wire bytes each).
	bufBytes := k * 70

	type install func(rt *runtime.Runtime) (cleanup func(), err error)
	cases := []struct {
		name string
		inst install
	}{
		{"none (pass-through)", func(rt *runtime.Runtime) (func(), error) {
			return func() {}, nil // no handler: the port sends directly
		}},
		{fmt.Sprintf("count-based k=%d (this paper)", k), func(rt *runtime.Runtime) (func(), error) {
			return func() {}, rt.EnableCoalescing(toy.Action, params(k, waitUS))
		}},
		{fmt.Sprintf("buffer-size %dB + periodic app flush (AM++/Pebbles)", bufBytes), func(rt *runtime.Runtime) (func(), error) {
			for i := 0; i < rt.Localities(); i++ {
				port := rt.Locality(i).Port()
				for _, act := range []string{toy.Action, runtime.ResponseAction(toy.Action)} {
					port.SetMessageHandler(act, baselines.NewBufferSize(port, bufBytes))
				}
			}
			// AM++ has no timeout; a real application must flush
			// explicitly. Emulate an application-level periodic flush.
			stop := make(chan struct{})
			go func() {
				t := time.NewTicker(time.Duration(waitUS) * time.Microsecond)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case <-t.C:
						rt.FlushAllCoalescers()
					}
				}
			}()
			return func() { close(stop) }, nil
		}},
		{fmt.Sprintf("periodic-check %dB (Charm++)", bufBytes), func(rt *runtime.Runtime) (func(), error) {
			for i := 0; i < rt.Localities(); i++ {
				port := rt.Locality(i).Port()
				for _, act := range []string{toy.Action, runtime.ResponseAction(toy.Action)} {
					port.SetMessageHandler(act, baselines.NewPeriodicCheck(port, bufBytes, time.Duration(waitUS)*time.Microsecond))
				}
			}
			return func() {}, nil
		}},
	}

	var out []StrategyResult
	for _, c := range cases {
		rt := runtime.New(runtime.Config{
			Localities:         s.ToyLocalities,
			WorkersPerLocality: s.Workers,
		})
		toy.Register(rt)
		cleanup, err := c.inst(rt)
		if err != nil {
			rt.Shutdown()
			return out, fmt.Errorf("strategies %s: %w", c.name, err)
		}
		r, err := toy.RunOn(rt, toy.Config{
			Localities:         s.ToyLocalities,
			WorkersPerLocality: s.Workers,
			ParcelsPerPhase:    s.ToyParcelsPerPhase,
			Phases:             s.ToyPhases,
			Params:             params(k, waitUS),
		})
		cleanup()
		rt.Shutdown()
		if err != nil {
			return out, fmt.Errorf("strategies %s: %w", c.name, err)
		}
		out = append(out, StrategyResult{
			Name:     c.name,
			Total:    r.Total,
			Messages: r.MessagesSent,
			Parcels:  r.ParcelsSent,
		})
	}
	return out, nil
}

// StrategiesTable renders the ablation rows.
func StrategiesTable(rows []StrategyResult) Table {
	t := Table{
		Title:   "Coalescing strategies — toy traffic pattern",
		Headers: []string{"strategy", "total(ms)", "messages", "parcels", "parcels/msg"},
	}
	for _, r := range rows {
		ratio := "-"
		if r.Messages > 0 {
			ratio = fmt.Sprintf("%.2f", float64(r.Parcels)/float64(r.Messages))
		}
		t.Rows = append(t.Rows, []string{
			r.Name, ms(r.Total), fmt.Sprint(r.Messages), fmt.Sprint(r.Parcels), ratio,
		})
	}
	return t
}

// SparseBypassResult quantifies the design choice the paper motivates in
// Section II-B: sending parcels immediately when traffic is sparse. It
// compares the mean request completion latency of slow traffic through a
// coalescer with the bypass enabled (the paper's design) and disabled
// (every parcel waits out the flush timer).
type SparseBypassResult struct {
	Parcels       int
	Interval      time.Duration
	WithBypass    time.Duration
	WithoutBypass time.Duration
}

// Table renders the ablation.
func (r SparseBypassResult) Table() Table {
	return Table{
		Title:   "Ablation — sparse-traffic bypass (send immediately when arrival gap > wait time)",
		Headers: []string{"variant", "mean latency(ms)", "parcels", "wait(µs)"},
		Rows: [][]string{
			{"bypass enabled (paper's design)", ms(r.WithBypass), fmt.Sprint(r.Parcels), fmt.Sprint(r.Interval.Microseconds())},
			{"bypass disabled", ms(r.WithoutBypass), fmt.Sprint(r.Parcels), fmt.Sprint(r.Interval.Microseconds())},
		},
	}
}

// SparseBypass runs the ablation: paced traffic (gaps larger than the
// wait time) through a large coalescing queue, with and without the
// bypass rule.
func SparseBypass(s Scale) (SparseBypassResult, error) {
	const parcels = 40
	interval := 2 * time.Millisecond
	res := SparseBypassResult{Parcels: parcels, Interval: interval}
	for _, disable := range []bool{false, true} {
		rt := runtime.New(runtime.Config{
			Localities:         2,
			WorkersPerLocality: s.Workers,
		})
		toy.Register(rt)
		p := coalescing.Params{NParcels: 64, Interval: interval}
		for i := 0; i < rt.Localities(); i++ {
			loc := rt.Locality(i)
			for _, act := range []string{toy.Action, runtime.ResponseAction(toy.Action)} {
				c := coalescing.New(loc.Port(), p, coalescing.Options{
					Locality:            i,
					Action:              act,
					TimerService:        rt.Timers(),
					DisableSparseBypass: disable,
				})
				loc.Port().SetMessageHandler(act, c)
			}
		}
		var total time.Duration
		var failed error
		for i := 0; i < parcels; i++ {
			start := time.Now()
			f, err := rt.Locality(0).Async(1, toy.Action, nil)
			if err != nil {
				failed = err
				break
			}
			if _, err := f.GetWithTimeout(30 * time.Second); err != nil {
				failed = err
				break
			}
			total += time.Since(start)
			time.Sleep(3 * interval / 2) // keep the traffic sparse
		}
		rt.Shutdown()
		if failed != nil {
			return res, fmt.Errorf("sparse bypass (disable=%v): %w", disable, failed)
		}
		mean := total / parcels
		if disable {
			res.WithoutBypass = mean
		} else {
			res.WithBypass = mean
		}
	}
	return res, nil
}
