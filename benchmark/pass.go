package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/coalescing"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/reliable"
	"repro/internal/stats"
)

// passConfig is everything one child process needs to run one pass of one
// workload.
type passConfig struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Warmup   time.Duration `json:"warmup"`
	Duration time.Duration `json:"duration"`
	Traced   bool          `json:"traced"`
	TraceOut string        `json:"trace_out,omitempty"`
	// SetupOnly ends the pass after its first verified operation: the
	// child exists to time a set-up in a fresh process.
	SetupOnly bool `json:"setup_only,omitempty"`
}

func newWorkload(e *env, seed int64) (workload, error) {
	switch e.spec.name {
	case "pingpong":
		return newPingpong(e, seed)
	case "taskgraph":
		return newTaskgraph(e, seed, tunerMaxNParcels)
	default:
		return newStream(e, seed)
	}
}

// setUp builds the stack (fabric, runtime, registration, dial) and
// performs the first verified operation.
func setUp(sp spec, seed int64, rec *recorder) (*env, workload, error) {
	e, err := buildEnv(sp, seed, rec)
	if err != nil {
		return nil, nil, err
	}
	wl, err := newWorkload(e, seed)
	if err == nil {
		err = wl.first()
	}

	if err != nil {
		e.close()
		return nil, nil, err
	}
	return e, wl, nil
}

// counters is one reading of every public stats getter the per-layer
// metrics are deltas of.
type counters struct {
	sched metrics.Sample
	port  parcel.Stats
	coal  coalescing.Stats
	dest  coalescing.DestStats
	rel   reliable.ReliabilityStats
	wire  network.Stats
	proc  procSample
}

func readCounters(e *env, wl workload) counters {
	c := counters{
		sched: metrics.Snapshot(e.rt),
		port:  e.portTotals(),
		wire:  e.wire.Stats(),
		proc:  procNow(),
	}
	if e.rel != nil {
		c.rel = e.rel.ReliabilityStats()
	}
	// Request-direction coalescers only: the benchmark's actions are
	// fire-and-forget, so their response coalescers stay empty.
	var arrivalWeighted float64
	for _, co := range e.rt.Coalescers(wl.coalescedAction()) {
		st := co.Stats()
		c.coal.Parcels += st.Parcels
		c.coal.Messages += st.Messages
		arrivalWeighted += st.AvgArrivalUS * float64(st.Parcels)
		for _, ds := range co.AllDestStats() {
			c.dest.Parcels += ds.Parcels
			c.dest.Queued += ds.Queued
			c.dest.FlushedFull += ds.FlushedFull
			c.dest.FlushedTimer += ds.FlushedTimer
			c.dest.FlushedBytes += ds.FlushedBytes
			c.dest.Bypass += ds.Bypass
			c.dest.ArrivalCount += ds.ArrivalCount
			c.dest.ArrivalSumUS += ds.ArrivalSumUS
		}
	}
	if c.coal.Parcels > 0 {
		c.coal.AvgArrivalUS = arrivalWeighted / float64(c.coal.Parcels)
	}
	return c
}

// runPass runs one pass of one workload in this process. Whatever goes
// wrong — a set-up error, failed operations — is reported in the result.
func runPass(cfg passConfig) (res workloadResult) {
	began := time.Now()
	res = workloadResult{Workload: cfg.Workload, Seed: cfg.Seed}
	defer func() { res.WallS = time.Since(began).Seconds() }()
	fail := func(err error) workloadResult {
		res.Error = err.Error()
		res.Attempted, res.Failed = max(res.Attempted, 1), max(res.Failed, 1)
		return res
	}
	sp, ok := specs[cfg.Workload]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", cfg.Workload))
	}
	var rec *recorder
	if cfg.Traced {
		rec = newRecorder()
	}

	e, wl, err := setUp(sp, cfg.Seed, rec)
	if err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	// One reading per process, and the process is fresh: what a user
	// waits before the first result.
	setup := value{Value: time.Since(began).Seconds(), Unit: "s", N: 1, Bound: boundOf("setup_s")}

	var traced *tracedState
	switch {
	case cfg.SetupOnly:
		res.EndToEnd = map[string]value{"setup_s": setup}
	case cfg.Traced:
		wl.run(cfg.Warmup, 1)
		traced = tracedWindow(cfg, e, wl, rec, readCounters(e, wl))
	default:
		wl.run(cfg.Warmup, 1)
		res.EndToEnd = endToEnd(wl.run(cfg.Duration, nSlices))
		res.EndToEnd["setup_s"] = setup
	}
	wl.finish()
	res.Attempted, res.Failures = wl.attempted(), wl.failures()
	// Parcels the port dropped or failed to send or decode are failures
	// even where the workload's own books happen to balance.
	ports := e.portTotals()
	res.Failures["port_lost"] = ports.RxDropped + ports.SendErrors + ports.DecodeErrors
	for _, n := range res.Failures {
		res.Failed += n
	}
	e.close()

	if traced != nil {
		// Replay and span arithmetic run after the stack has stopped:
		// nothing else competes for the cores, and every span is final.
		if err := traced.finish(cfg, rec); err != nil {
			return fail(err)
		}
		res.PerLayer = traced.layers
	}
	okRatio := 1 - float64(res.Failed)/float64(max(res.Attempted, 1))
	if res.EndToEnd != nil {
		res.EndToEnd["ok_ratio"] = value{Value: okRatio, Unit: "ratio", N: int(res.Attempted), Bound: boundOf("ok_ratio")}
		res.EndToEnd["peak_rss_mb"] = value{Value: peakRSSMiB(), Unit: "MiB", N: 1, Bound: boundOf("peak_rss_mb")}
	}
	if res.PerLayer != nil {
		res.PerLayer["fail_ratio"] = value{Value: 1 - okRatio, Unit: "ratio"}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

func boundOf(name string) float64 {
	d, _ := findDef(endToEndDefs, name)
	return d.Bound
}

// endToEnd turns a measured window into the end-to-end metrics: each the
// median over the window's slices, with the slice spread and the sample
// count beside it. setup_s, ok_ratio and peak_rss_mb are single readings
// the pass adds itself.
func endToEnd(w *window) map[string]value {
	out := make(map[string]value)
	put := func(name string, xs []float64, n int) {
		d, _ := findDef(endToEndDefs, name)
		out[name] = value{Value: median(xs), Unit: d.Unit, N: n, Spread: relSpread(xs), Bound: d.Bound}
	}
	slices := len(w.marks) - 1
	put("parcels_per_s", w.perSlice(func(a, b sliceMark) float64 { return rate(b.parcels-a.parcels, b.at.Sub(a.at)) }), slices)
	put("tasks_per_s", w.perSlice(func(a, b sliceMark) float64 { return rate(b.tasks-a.tasks, b.at.Sub(a.at)) }), slices)
	put("cpu_us_per_op", w.perSlice(func(a, b sliceMark) float64 {
		if b.ops == a.ops {
			return 0
		}
		return float64(b.cpu-a.cpu) / float64(time.Microsecond) / float64(b.ops-a.ops)
	}), slices)
	put("rtt_mean_us", w.latPerSlice(stats.Mean), len(w.lats))
	put("rtt_p99_us", w.latPerSlice(func(g []float64) float64 { return percentile(g, 99) }), len(w.lats))
	return out
}

// writeTrace writes the recorded spans as Chrome-trace JSON.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
