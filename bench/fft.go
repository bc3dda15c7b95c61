package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/apps/fft"
	"repro/internal/cluster"
	"repro/internal/coalescing"
	"repro/internal/collectives"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// FFTConfig drives the distributed-FFT suite: the in-process sweep over
// {all-to-all algorithm variant × coalescing arm × grid size} and the
// multi-process cluster stage.
type FFTConfig struct {
	// NodeCommand is the argv prefix that runs one amc-node process for
	// the cluster stage (typically the amc-bench binary plus "-as-node").
	// Empty skips the cluster stage.
	NodeCommand []string
	// Quick shrinks the sweep to CI-smoke size.
	Quick bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c FFTConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// fftArm is one coalescing configuration of the sweep: either a static
// parameter point or the adaptive MultiTuner.
type fftArm struct {
	name     string
	params   coalescing.Params // static arm (NParcels <= 1: coalescing off)
	adaptive bool              // MultiTuner arm; params is its starting point
}

// FFTPoint is one in-process measurement: a full 2-D FFT (repeated
// Iterations times) under one {variant, coalescing arm, grid} cell.
type FFTPoint struct {
	Algorithm  string `json:"algorithm"`
	Rows       int    `json:"rows"`
	Cols       int    `json:"cols"`
	Localities int    `json:"localities"`
	Iterations int    `json:"iterations"`
	// Coalescing names the arm ("off", "n=16/500µs", "adaptive").
	Coalescing string  `json:"coalescing"`
	NParcels   int     `json:"nparcels"`
	IntervalUS float64 `json:"interval_us"`
	Adaptive   bool    `json:"adaptive"`
	// Decisions is the adaptive arm's tuner decision count (0 otherwise).
	Decisions int64 `json:"decisions,omitempty"`
	// WallMS is mean wall time per transform; NetworkOverhead is Eq. 4
	// and TaskOverheadUS Eq. 2 over the whole measured window.
	WallMS          float64 `json:"wall_ms"`
	NetworkOverhead float64 `json:"network_overhead"`
	TaskOverheadUS  float64 `json:"task_overhead_us"`
	// Verified: the final iteration's output was bit-exact against the
	// sequential reference on every locality.
	Verified bool `json:"verified"`
}

// FFTVariantSummary aggregates one algorithm variant across the sweep:
// the Pearson correlation between Eq. 4 overhead and wall time over its
// points (the paper's overhead-predicts-performance claim, here tested
// on collective bursts), and its best cell.
type FFTVariantSummary struct {
	Algorithm      string  `json:"algorithm"`
	Points         int     `json:"points"`
	PearsonR       float64 `json:"pearson_r"`
	RValid         bool    `json:"r_valid"`
	BestWallMS     float64 `json:"best_wall_ms"`
	BestCoalescing string  `json:"best_coalescing"`
	MeanOverhead   float64 `json:"mean_overhead"`
}

// FFTComparison records one matched cell where ring beat direct.
type FFTComparison struct {
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	Coalescing string  `json:"coalescing"`
	DirectWall float64 `json:"direct_wall_ms"`
	RingWall   float64 `json:"ring_wall_ms"`
	DirectOH   float64 `json:"direct_overhead"`
	RingOH     float64 `json:"ring_overhead"`
	// OnWall / OnOverhead say which metric(s) ring won.
	OnWall     bool `json:"on_wall"`
	OnOverhead bool `json:"on_overhead"`
}

// FFTClusterPoint is one multi-process cluster run of the FFT app.
type FFTClusterPoint struct {
	Nodes           int     `json:"nodes"`
	Algorithm       string  `json:"algorithm"`
	Rows            int     `json:"rows"`
	Cols            int     `json:"cols"`
	CoalesceParcels int     `json:"coalesce_parcels"`
	Completed       bool    `json:"completed"`
	Verified        bool    `json:"verified"`
	WallMS          float64 `json:"wall_ms"`
	NetOverhead     float64 `json:"net_overhead"`
	Messages        int64   `json:"messages"`
	Parcels         int64   `json:"parcels"`
}

// FFTSuiteResult is the payload of BENCH_fft.json.
type FFTSuiteResult struct {
	Points   []FFTPoint          `json:"points"`
	Variants []FFTVariantSummary `json:"variants"`
	Cluster  []FFTClusterPoint   `json:"cluster,omitempty"`
	// RingWins lists the matched cells where the paced ring rotation beat
	// the direct burst on wall time or Eq. 4 overhead.
	RingWins []FFTComparison `json:"ring_wins,omitempty"`
}

// fftGrid is one swept payload size.
type fftGrid struct{ rows, cols int }

// RunFFTSuite executes the in-process sweep and the cluster stage.
func RunFFTSuite(cfg FFTConfig) (FFTSuiteResult, error) {
	var out FFTSuiteResult

	const localities = 4
	variants := []collectives.Algorithm{collectives.AlgDirect, collectives.AlgRing}
	grids := []fftGrid{{32, 32}, {64, 64}}
	arms := []fftArm{
		{name: "off"},
		{name: "n=4/100µs", params: coalescing.Params{NParcels: 4, Interval: 100 * time.Microsecond}},
		{name: "n=16/500µs", params: coalescing.Params{NParcels: 16, Interval: 500 * time.Microsecond}},
		{name: "adaptive", params: coalescing.Params{NParcels: 1, Interval: time.Microsecond}, adaptive: true},
	}
	iterations := 6
	if cfg.Quick {
		grids = grids[:1]
		arms = []fftArm{arms[0], arms[3]}
		iterations = 2
	}

	for _, alg := range variants {
		for _, g := range grids {
			for _, arm := range arms {
				p, err := measureFFT(alg, g, arm, localities, iterations)
				if err != nil {
					return out, fmt.Errorf("bench: fft %s %dx%d %s: %w", alg, g.rows, g.cols, arm.name, err)
				}
				cfg.logf("fft: %-6s %2dx%-2d %-10s wall=%.2fms n_oh=%.4f verified=%v",
					p.Algorithm, p.Rows, p.Cols, p.Coalescing, p.WallMS, p.NetworkOverhead, p.Verified)
				out.Points = append(out.Points, p)
				if !p.Verified {
					return out, fmt.Errorf("bench: fft %s %dx%d %s: output not bit-exact", alg, g.rows, g.cols, arm.name)
				}
			}
		}
	}

	out.Variants = summarizeFFTVariants(out.Points)
	out.RingWins = fftRingWins(out.Points)

	if len(cfg.NodeCommand) > 0 {
		clusterRuns := []FFTClusterPoint{
			{Nodes: 3, Algorithm: "direct", Rows: 32, Cols: 32},
			{Nodes: 3, Algorithm: "ring", Rows: 32, Cols: 32},
			{Nodes: 3, Algorithm: "ring", Rows: 64, Cols: 64, CoalesceParcels: 8},
		}
		if cfg.Quick {
			clusterRuns = clusterRuns[:2]
			for i := range clusterRuns {
				clusterRuns[i].Rows, clusterRuns[i].Cols = 16, 16
			}
		}
		for _, r := range clusterRuns {
			p, err := cfg.measureFFTCluster(r)
			if err != nil {
				return out, err
			}
			out.Cluster = append(out.Cluster, p)
		}
	}
	return out, nil
}

// measureFFT runs one sweep cell on a fresh simulated runtime: a warm-up
// transform, then iterations measured ones, verifying the last against
// the sequential reference.
func measureFFT(alg collectives.Algorithm, g fftGrid, arm fftArm, L, iterations int) (FFTPoint, error) {
	rt := runtime.New(runtime.Config{
		Localities:         L,
		WorkersPerLocality: 2,
		CostModel: network.CostModel{
			SendOverhead: 2 * time.Microsecond,
			Latency:      5 * time.Microsecond,
		},
	})
	defer rt.Shutdown()

	p := FFTPoint{
		Algorithm: alg.String(), Rows: g.rows, Cols: g.cols,
		Localities: L, Iterations: iterations,
		Coalescing: arm.name, NParcels: arm.params.NParcels,
		IntervalUS: float64(arm.params.Interval.Microseconds()),
		Adaptive:   arm.adaptive,
	}

	comm, err := collectives.NewComm(rt, "bench-fft", collectives.Options{Algorithm: alg})
	if err != nil {
		return p, err
	}
	defer comm.Close()

	var tuner *adaptive.MultiTuner
	if arm.params.NParcels > 0 || arm.adaptive {
		if err := rt.EnableCoalescing(collectives.Action, arm.params); err != nil {
			return p, err
		}
	}
	if arm.adaptive {
		tuner = adaptive.NewMultiTuner(rt, collectives.Action, adaptive.MultiTunerConfig{
			SampleInterval: 2 * time.Millisecond,
			MinWindowTasks: 8,
		})
		tuner.Start()
		defer tuner.Stop()
	}

	cfgFFT := fft.Config{Rows: g.rows, Cols: g.cols, Seed: 0xbe4c}
	run := func(tag string) ([][][]complex128, error) {
		blocks := make([][][]complex128, L)
		errs := make([]error, L)
		var wg sync.WaitGroup
		for l := 0; l < L; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				blocks[l], errs[l] = fft.Distributed(comm, l, cfgFFT, tag)
			}(l)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return blocks, nil
	}

	if _, err := run("warmup"); err != nil {
		return p, err
	}

	before := metrics.Snapshot(rt)
	start := time.Now()
	var blocks [][][]complex128
	for it := 0; it < iterations; it++ {
		if blocks, err = run(fmt.Sprintf("it%d", it)); err != nil {
			return p, err
		}
	}
	wall := time.Since(start)
	after := metrics.Snapshot(rt)

	bg := after.BackgroundWork - before.BackgroundWork
	td := after.TaskDuration - before.TaskDuration
	tasks := after.Tasks - before.Tasks
	p.WallMS = wall.Seconds() * 1e3 / float64(iterations)
	if busy := td + bg; busy > 0 {
		p.NetworkOverhead = float64(bg) / float64(busy)
	}
	if tasks > 0 {
		p.TaskOverheadUS = float64(td-(after.ExecDuration-before.ExecDuration)) /
			float64(tasks) / float64(time.Microsecond)
	}
	if tuner != nil {
		tuner.Stop()
		if err := tuner.Err(); err != nil {
			return p, fmt.Errorf("tuner: %w", err)
		}
		p.Decisions = tuner.DecisionCount()
	}

	ref := fft.Reference(cfgFFT)
	p.Verified = true
	for l := 0; l < L; l++ {
		lo, _ := fft.Range(cfgFFT.Rows, L, l)
		if err := fft.VerifyRows(ref, lo, blocks[l]); err != nil {
			p.Verified = false
			return p, err
		}
	}
	return p, nil
}

// summarizeFFTVariants computes, per algorithm variant, the Pearson
// correlation between Eq. 4 overhead and wall time across its sweep
// cells plus the best cell.
func summarizeFFTVariants(points []FFTPoint) []FFTVariantSummary {
	order := []string{}
	byAlg := map[string][]FFTPoint{}
	for _, p := range points {
		if _, ok := byAlg[p.Algorithm]; !ok {
			order = append(order, p.Algorithm)
		}
		byAlg[p.Algorithm] = append(byAlg[p.Algorithm], p)
	}
	var out []FFTVariantSummary
	for _, alg := range order {
		ps := byAlg[alg]
		s := FFTVariantSummary{Algorithm: alg, Points: len(ps), BestWallMS: ps[0].WallMS, BestCoalescing: ps[0].Coalescing}
		var xs, ys []float64
		for _, p := range ps {
			xs = append(xs, p.NetworkOverhead)
			ys = append(ys, p.WallMS)
			s.MeanOverhead += p.NetworkOverhead
			if p.WallMS < s.BestWallMS {
				s.BestWallMS, s.BestCoalescing = p.WallMS, p.Coalescing
			}
		}
		s.MeanOverhead /= float64(len(ps))
		if r, err := stats.Pearson(xs, ys); err == nil {
			s.PearsonR, s.RValid = r, true
		}
		out = append(out, s)
	}
	return out
}

// fftRingWins pairs ring and direct points measured under the same
// {grid, coalescing arm} and returns the cells ring won.
func fftRingWins(points []FFTPoint) []FFTComparison {
	type cell struct {
		rows, cols int
		arm        string
	}
	direct := map[cell]FFTPoint{}
	for _, p := range points {
		if p.Algorithm == collectives.AlgDirect.String() {
			direct[cell{p.Rows, p.Cols, p.Coalescing}] = p
		}
	}
	var wins []FFTComparison
	for _, p := range points {
		if p.Algorithm != collectives.AlgRing.String() {
			continue
		}
		d, ok := direct[cell{p.Rows, p.Cols, p.Coalescing}]
		if !ok {
			continue
		}
		c := FFTComparison{
			Rows: p.Rows, Cols: p.Cols, Coalescing: p.Coalescing,
			DirectWall: d.WallMS, RingWall: p.WallMS,
			DirectOH: d.NetworkOverhead, RingOH: p.NetworkOverhead,
			OnWall:     p.WallMS < d.WallMS,
			OnOverhead: p.NetworkOverhead < d.NetworkOverhead,
		}
		if c.OnWall || c.OnOverhead {
			wins = append(wins, c)
		}
	}
	return wins
}

// measureFFTCluster runs r.Nodes amc-node processes of the FFT app over
// loopback TCP and distills the aggregate node 0 wrote.
func (c FFTConfig) measureFFTCluster(r FFTClusterPoint) (FFTClusterPoint, error) {
	c.logf("fft cluster: %d nodes, %s %dx%d coalesce=%d", r.Nodes, r.Algorithm, r.Rows, r.Cols, r.CoalesceParcels)
	nodes := suiteNodes(r.Nodes, cluster.BenchSpec{})
	for i := range nodes {
		nodes[i].App = "fft"
		nodes[i].FFT = cluster.FFTSpec{Rows: r.Rows, Cols: r.Cols, Alg: r.Algorithm, Iterations: 2}
		if r.CoalesceParcels > 0 {
			nodes[i].FFT.CoalesceParcels = r.CoalesceParcels
			nodes[i].FFT.CoalesceInterval = 200 * time.Microsecond
		}
	}
	res, err := cluster.Launch(c.NodeCommand, nodes, os.Stderr)
	if err != nil {
		return r, err
	}
	agg := res.Result
	r.Completed = agg.Completed
	r.Verified = agg.Verified
	r.WallMS = float64(agg.MaxWallNS) / 1e6
	for _, n := range agg.PerNode {
		r.NetOverhead += n.NetOverhead
	}
	if len(agg.PerNode) > 0 {
		r.NetOverhead /= float64(len(agg.PerNode))
	}
	r.Messages = agg.Messages
	r.Parcels = agg.Parcels
	if !r.Completed || !r.Verified {
		return r, fmt.Errorf("bench: fft cluster %s completed=%v verified=%v", r.Algorithm, r.Completed, r.Verified)
	}
	c.logf("fft cluster: %s done in %.1fms verified=%v", r.Algorithm, r.WallMS, r.Verified)
	return r, nil
}
