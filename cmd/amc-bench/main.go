// Command amc-bench runs the micro-benchmark suites (package bench)
// outside `go test` and writes the results as JSON, producing the
// committed BENCH_parcel.json and BENCH_sched.json snapshots.
//
// The parcel suite measures the three layers of the zero-allocation
// pipeline — bundle encode and borrowed decode, port enqueue/send, and
// coalescer Put under 1/4/16 concurrent senders — and its report has
// pass/fail fields for the pipeline's headline claims (0 allocs/op on
// encode, decode and send).
//
// The sched suite measures the work-stealing task scheduler:
// spawn/execute throughput at 1/4/16 workers, cold-start empty-task
// latency through the park/wake path, a steal-heavy imbalanced load, and
// background network work under task saturation.
//
// The taskbench suite is the Task Bench-style workload harness
// (internal/taskbench): all eight dependence patterns are executed
// across a 3×3 coalescing-parameter grid on two simulated localities,
// recording per-pattern execution time, Eq. 4 network overhead and the
// Pearson correlation between the two, followed by the adaptive
// phase demo (stencil → fft → random under a live OverheadTuner).
// -quick shrinks it to a CI-smoke size.
//
// The adaptive suite A/Bs the two online controllers — the global
// OverheadTuner against the per-destination multi-knob MultiTuner — on a
// mixed uniform workload and on the deliberately skewed fan-in pattern,
// from identical uncoalesced starting parameters, reporting wall time,
// Eq. 4 overhead, convergence time, decision counts and steady-state
// stability per arm. -quick shrinks it to a CI-smoke size.
//
// The fft suite runs the distributed 2-D FFT app (internal/apps/fft)
// on the collectives layer: {direct, ring} all-to-all variants ×
// {off, static grid, adaptive MultiTuner} coalescing × grid sizes,
// each cell verified bit-exact against the sequential reference and
// measured for wall time and Eq. 4 overhead (with the per-variant
// Pearson correlation between the two), then three-node multi-process
// cluster runs of the same app over loopback TCP. -quick shrinks it to
// a CI-smoke size.
//
// An unknown -suite value prints the registry of available suites and
// exits nonzero; `-suite help` prints the same listing.
//
// Examples:
//
//	amc-bench -o BENCH_parcel.json
//	amc-bench -suite sched -o BENCH_sched.json
//	amc-bench -suite taskbench -o BENCH_taskbench.json
//	amc-bench -suite taskbench -quick
//	amc-bench -suite all
//	amc-bench -benchtime 2s -v
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/bench"
	"repro/internal/cluster"
	"repro/internal/taskbench"
)

// result is one benchmark's measurement.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	// Extra carries testing.B.ReportMetric values (e.g. the background
	// starvation benchmark's bg-units/task).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// report is the BENCH_parcel.json schema.
type report struct {
	partialStatus
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchtime  string   `json:"benchtime"`
	Results    []result `json:"results"`
	// ZeroAllocSendPath: EncodeBundle and PortSend reached 0 allocs/op;
	// ZeroAllocRecvPath: DecodeBundle did.
	ZeroAllocSendPath bool `json:"zero_alloc_send_path"`
	ZeroAllocRecvPath bool `json:"zero_alloc_recv_path"`
}

// lossPoint is one chaos measurement of the reliable-delivery layer at a
// fixed injected loss rate.
type lossPoint struct {
	LossPct          float64 `json:"loss_pct"`
	ParcelsPerSec    float64 `json:"parcels_per_sec"`
	NetworkOverhead  float64 `json:"network_overhead"`
	RetransmitsPerOp float64 `json:"retransmits_per_op"`
	DupsPerOp        float64 `json:"dups_per_op"`
}

// reliableReport is the BENCH_reliable.json schema: goodput and Eq. 4
// network overhead of a coalescing toy app over the reliable layer as the
// injected frame-loss rate grows, plus the failure-detection latency of a
// partitioned link.
type reliableReport struct {
	partialStatus
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchtime  string      `json:"benchtime"`
	Results    []result    `json:"results"`
	LossSweep  []lossPoint `json:"loss_sweep"`
	LinkDownNs float64     `json:"link_down_detection_ns"`
	// GoodputRetainedAt5 is goodput at 5% loss divided by goodput at 0%
	// loss: the headline resilience figure.
	GoodputRetainedAt5 float64 `json:"goodput_retained_at_5pct_loss"`
	// LargeTCP is bench.ReliableLargeTCP (a 64 KiB message's whole life
	// over loopback) beside the same function's figures at the commit
	// before the layer stopped copying payloads.
	LargeTCP largeTCPReport `json:"large_tcp"`
}

// largeTCPPoint is one side of the ReliableLargeTCP comparison.
type largeTCPPoint struct {
	Commit      string  `json:"commit,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type largeTCPReport struct {
	Before largeTCPPoint `json:"before"`
	After  largeTCPPoint `json:"after"`
}

// largeTCPBefore is bench.ReliableLargeTCP at commit 5a3fa9c, where a
// 64 KiB message was copied four times in user space: median of five
// 1 s runs on the 2-vCPU sizing machine (42.3, 42.6, 45.1, 46.7, 52.4 µs).
// 0 B/op, 0 allocs/op.
var largeTCPBefore = largeTCPPoint{Commit: "5a3fa9c", NsPerOp: 45131}

// schedReport is the BENCH_sched.json schema.
type schedReport struct {
	partialStatus
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchtime  string   `json:"benchtime"`
	Results    []result `json:"results"`
}

// runner measures one benchmark, records it in a result list, and
// optionally echoes it to stderr.
type runner struct {
	verbose bool
	results *[]result
}

func (rn runner) run(name string, fn func(*testing.B)) testing.BenchmarkResult {
	r := testing.Benchmark(fn)
	res := result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.Bytes > 0 && r.T > 0 {
		res.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	if len(r.Extra) > 0 {
		res.Extra = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			res.Extra[k] = v
		}
	}
	*rn.results = append(*rn.results, res)
	if rn.verbose {
		fmt.Fprintf(os.Stderr, "%-60s %12d iters %10.1f ns/op %6d B/op %4d allocs/op\n",
			name, r.N, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	return r
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// options carries the command-line knobs shared by every suite.
type options struct {
	benchtime time.Duration
	verbose   bool
	quick     bool
}

// suiteDef registers one runnable suite: its default output file, a
// one-line description for the usage listing, and the runner. A runner
// that fails mid-suite still writes whatever it measured — marked with
// "partial": true and an "error" field — and returns the error so main
// exits non-zero; a consumer of the JSON must check the marker before
// trusting the numbers.
type suiteDef struct {
	name       string
	defaultOut string
	desc       string
	run        func(out string, opts options) error
}

// suites is the registry the -suite flag is validated against; "all"
// runs every entry with its default output file.
var suites = []suiteDef{
	{"parcel", "BENCH_parcel.json", "zero-allocation send+receive pipeline and striped coalescer Put", runParcel},
	{"sched", "BENCH_sched.json", "work-stealing task scheduler: spawn/execute, wake latency, stealing, background share", runSched},
	{"reliable", "BENCH_reliable.json", "goodput and Eq. 4 overhead under injected frame loss; link-down detection", runReliable},
	{"taskbench", "BENCH_taskbench.json", "Task Bench-style pattern sweep: per-pattern overhead/time correlation + adaptive phase demo", runTaskbench},
	{"health", "BENCH_health.json", "crash-stop chaos: phi-accrual detection latency, false-positive soak, survive-crash workload", runHealth},
	{"adaptive", "BENCH_adaptive.json", "controller A/B: global OverheadTuner vs per-destination MultiTuner on uniform and skewed workloads", runAdaptive},
	{"cluster", "BENCH_cluster.json", "multi-process cluster: weak/strong scaling over real TCP sockets + crash-recovery run", runCluster},
	{"fft", "BENCH_fft.json", "distributed 2-D FFT on collectives: all-to-all variants x coalescing arms, Eq. 4 correlation, 3-node cluster runs", runFFT},
}

// partialStatus is embedded in every report schema: when a suite errors
// after measurement started, the report is still written with Partial
// set and the error recorded, and amc-bench exits non-zero.
type partialStatus struct {
	Partial bool   `json:"partial,omitempty"`
	Error   string `json:"error,omitempty"`
}

func (p *partialStatus) markPartial(err error) {
	p.Partial = true
	p.Error = err.Error()
}

// lookupSuite resolves a -suite value against the registry.
func lookupSuite(name string) (suiteDef, bool) {
	for _, s := range suites {
		if s.name == name {
			return s, true
		}
	}
	return suiteDef{}, false
}

// listSuites prints the available suites (the -suite validation error
// path, so unknown values fail loudly instead of silently doing
// nothing).
func listSuites(w io.Writer) {
	fmt.Fprintln(w, "available suites:")
	for _, s := range suites {
		fmt.Fprintf(w, "  %-10s %s (writes %s)\n", s.name, s.desc, s.defaultOut)
	}
	fmt.Fprintf(w, "  %-10s run every suite with its default output file\n", "all")
}

func main() {
	// Re-exec mode: the cluster suite spawns this same binary as its
	// amc-node processes, so one build artifact is both driver and node.
	if len(os.Args) > 1 && os.Args[1] == "-as-node" {
		os.Exit(cluster.NodeMain(os.Args[2:], os.Stderr))
	}

	testing.Init() // register test.* flags so test.benchtime can be set
	suite := flag.String("suite", "parcel", "benchmark suite to run (see -suite help)")
	out := flag.String("o", "", "output file (- for stdout; default BENCH_<suite>.json)")
	benchtime := flag.Duration("benchtime", time.Second, "per-benchmark measurement time")
	verbose := flag.Bool("v", false, "print each result as it completes")
	quick := flag.Bool("quick", false, "shrink the taskbench suite to CI-smoke size")
	flag.Parse()

	// testing.Benchmark honours the package-level benchtime flag.
	if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		fatal(err)
	}

	opts := options{benchtime: *benchtime, verbose: *verbose, quick: *quick}
	switch *suite {
	case "all":
		if *out != "" {
			fatal(fmt.Errorf("-o cannot be combined with -suite all; each suite writes its default file"))
		}
		failed := 0
		for _, s := range suites {
			if err := s.run(s.defaultOut, opts); err != nil {
				fmt.Fprintf(os.Stderr, "amc-bench: suite %s failed: %v\n", s.name, err)
				failed++
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "amc-bench: %d suite(s) failed; reports carry the partial marker\n", failed)
			os.Exit(1)
		}
	case "help", "list":
		listSuites(os.Stdout)
	default:
		s, ok := lookupSuite(*suite)
		if !ok {
			fmt.Fprintf(os.Stderr, "amc-bench: unknown suite %q\n", *suite)
			listSuites(os.Stderr)
			os.Exit(2)
		}
		if err := s.run(orDefault(*out, s.defaultOut), opts); err != nil {
			fatal(fmt.Errorf("suite %s: %w", s.name, err))
		}
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func runParcel(out string, opts options) error {
	rep := report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  opts.benchtime.String(),
	}
	rn := runner{verbose: opts.verbose, results: &rep.Results}

	encode := rn.run("EncodeBundle", bench.EncodeBundle)
	decode := rn.run("DecodeBundle", bench.DecodeBundle)
	rn.run("PortEnqueue", bench.PortEnqueue)
	send := rn.run("PortSend", bench.PortSend)
	for _, workers := range []int{1, 4, 16} {
		w := workers
		rn.run(bench.CoalescerBenchName(w), func(b *testing.B) { bench.CoalescerPut(b, w) })
	}
	rep.ZeroAllocSendPath = encode.AllocsPerOp() == 0 && send.AllocsPerOp() == 0
	rep.ZeroAllocRecvPath = decode.AllocsPerOp() == 0

	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(statusW(out), "wrote %s (%d benchmarks, zero-alloc send=%v recv=%v)\n",
		out, len(rep.Results), rep.ZeroAllocSendPath, rep.ZeroAllocRecvPath)
	return nil
}

func runSched(out string, opts options) error {
	rep := schedReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  opts.benchtime.String(),
	}
	rn := runner{verbose: opts.verbose, results: &rep.Results}

	for _, workers := range []int{1, 4, 16} {
		w := workers
		rn.run(bench.SchedBenchName("SpawnExecute", w), func(b *testing.B) { bench.SchedSpawnExecute(b, w, 0) })
	}
	rn.run(bench.SchedBenchName("EmptyTaskLatency", 4), func(b *testing.B) { bench.SchedEmptyTaskLatency(b, 4) })
	rn.run(bench.SchedBenchName("StealImbalance", 16), func(b *testing.B) { bench.SchedStealImbalance(b, 16) })
	rn.run(bench.SchedBenchName("BackgroundStarvation", 4), func(b *testing.B) { bench.SchedBackgroundStarvation(b, 4) })

	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(statusW(out), "wrote %s (%d benchmarks)\n", out, len(rep.Results))
	return nil
}

func runReliable(out string, opts options) error {
	rep := reliableReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  opts.benchtime.String(),
	}
	rn := runner{verbose: opts.verbose, results: &rep.Results}

	var goodput0 float64
	for _, lossPct := range []float64{0, 1, 5, 10} {
		l := lossPct
		r := rn.run("ReliableChaos/"+bench.ReliableBenchName(l),
			func(b *testing.B) { bench.ReliableChaos(b, l) })
		p := lossPoint{
			LossPct:          l,
			ParcelsPerSec:    r.Extra["parcels/sec"],
			NetworkOverhead:  r.Extra["network-overhead"],
			RetransmitsPerOp: r.Extra["retransmits/op"],
			DupsPerOp:        r.Extra["dups/op"],
		}
		rep.LossSweep = append(rep.LossSweep, p)
		if l == 0 {
			goodput0 = p.ParcelsPerSec
		}
		if l == 5 && goodput0 > 0 {
			rep.GoodputRetainedAt5 = p.ParcelsPerSec / goodput0
		}
	}
	down := rn.run("ReliableLinkDownDetection", bench.ReliableLinkDownDetection)
	rep.LinkDownNs = nsPerOp(down)
	large := rn.run("ReliableLargeTCP", bench.ReliableLargeTCP)
	rep.LargeTCP = largeTCPReport{
		Before: largeTCPBefore,
		After:  largeTCPPoint{NsPerOp: nsPerOp(large), BytesPerOp: large.AllocedBytesPerOp(), AllocsPerOp: large.AllocsPerOp()},
	}

	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(statusW(out), "wrote %s (%d benchmarks, goodput retained at 5%% loss=%.2f)\n",
		out, len(rep.Results), rep.GoodputRetainedAt5)
	return nil
}

// taskbenchReport is the BENCH_taskbench.json schema: the Task Bench-
// style pattern sweep (per-pattern {execution time, Eq. 4 overhead,
// Pearson r} across the coalescing grid) plus the adaptive phase demo.
type taskbenchReport struct {
	partialStatus
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Localities int    `json:"localities"`
	// Graph echoes the swept workload shape.
	Graph struct {
		Width       int `json:"width"`
		Steps       int `json:"steps"`
		Iterations  int `json:"iterations"`
		OutputBytes int `json:"output_bytes"`
	} `json:"graph"`
	Patterns  []taskbench.PatternReport `json:"patterns"`
	PhaseDemo taskbench.PhaseDemoResult `json:"phase_demo"`
	// BestAbsR is the strongest per-pattern |r|; CorrelationOK is the
	// acceptance headline (some pattern reaches |r| >= 0.8, reproducing
	// the paper's overhead/time correlation claim), and
	// PhaseReconvergedOK that the tuner settled on different parameters
	// for at least two phases.
	BestAbsR           float64 `json:"best_abs_r"`
	BestRPattern       string  `json:"best_r_pattern"`
	CorrelationOK      bool    `json:"correlation_abs_r_ge_0_8"`
	PhaseReconvergedOK bool    `json:"phase_demo_reconverged"`
}

func runTaskbench(out string, opts options) error {
	sweepCfg := bench.TaskbenchSweepConfig(opts.quick)
	phaseCfg := bench.TaskbenchPhaseConfig(opts.quick)

	rep := taskbenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      opts.quick,
		Localities: sweepCfg.Localities,
	}
	rep.Graph.Width = sweepCfg.Graph.Width
	rep.Graph.Steps = sweepCfg.Graph.Steps
	rep.Graph.Iterations = sweepCfg.Graph.Iterations
	rep.Graph.OutputBytes = sweepCfg.Graph.OutputBytes

	reports, err := taskbench.RunSweep(sweepCfg)
	if err != nil {
		return failPartial(out, &rep, &rep.partialStatus, err)
	}
	rep.Patterns = reports
	for _, pr := range reports {
		if opts.verbose {
			fmt.Fprintf(os.Stderr, "%-20s r=%+.3f valid=%v best=%.2fms (n=%d t=%gus) worst=%.2fms\n",
				pr.Pattern, pr.PearsonR, pr.RValid, pr.Best.WallMS, pr.Best.NParcels, pr.Best.IntervalUS, pr.Worst.WallMS)
		}
		if pr.RValid && math.Abs(pr.PearsonR) > rep.BestAbsR {
			rep.BestAbsR = math.Abs(pr.PearsonR)
			rep.BestRPattern = pr.Pattern
		}
	}
	rep.CorrelationOK = rep.BestAbsR >= 0.8

	demo, err := taskbench.RunPhaseDemo(phaseCfg)
	if err != nil {
		return failPartial(out, &rep, &rep.partialStatus, err)
	}
	rep.PhaseDemo = demo
	rep.PhaseReconvergedOK = demo.Reconverged

	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(statusW(out), "wrote %s (%d patterns, best |r|=%.3f on %s, correlation ok=%v, phase reconverged=%v)\n",
		out, len(rep.Patterns), rep.BestAbsR, rep.BestRPattern, rep.CorrelationOK, rep.PhaseReconvergedOK)
	return nil
}

// healthReport is the BENCH_health.json schema: phi-accrual detection
// latency, the no-crash false-positive soak, and the survive-crash
// workload, with pass/fail acceptance fields for the robustness
// headline claims.
type healthReport struct {
	partialStatus
	GoVersion    string             `json:"go_version"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	Quick        bool               `json:"quick"`
	Detector     healthDetectorInfo `json:"detector"`
	SoakDetector healthDetectorInfo `json:"soak_detector"`
	Health       bench.HealthReport `json:"health"`
	// ZeroFalsePositives: no suspicions over the soak. SurviveCrashOK:
	// the recovery run completed every task on the survivors.
	// FailFastOK: the non-recovery run failed cleanly (it reaching the
	// report at all means it did not hang).
	ZeroFalsePositives bool `json:"zero_false_positives"`
	SurviveCrashOK     bool `json:"survive_crash_ok"`
	FailFastOK         bool `json:"fail_fast_ok"`
}

// healthDetectorInfo echoes the phi-accrual parameters under test.
type healthDetectorInfo struct {
	HeartbeatIntervalUS float64 `json:"heartbeat_interval_us"`
	PhiThreshold        float64 `json:"phi_threshold"`
	WindowSize          int     `json:"window_size"`
	GraceUS             float64 `json:"grace_us"`
}

func detectorInfo(c bench.HealthConfig, soak bool) healthDetectorInfo {
	det := c.Detector.WithDefaults()
	if soak {
		det = c.SoakDetector.WithDefaults()
	}
	return healthDetectorInfo{
		HeartbeatIntervalUS: float64(det.HeartbeatInterval.Microseconds()),
		PhiThreshold:        det.PhiThreshold,
		WindowSize:          det.Window,
		GraceUS:             float64(det.Grace.Microseconds()),
	}
}

func runHealth(out string, opts options) error {
	cfg := bench.HealthSuiteConfig(opts.quick)
	rep := healthReport{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Quick:        opts.quick,
		Detector:     detectorInfo(cfg, false),
		SoakDetector: detectorInfo(cfg, true),
	}
	hr, err := bench.RunHealth(cfg)
	rep.Health = hr // partial progress is meaningful even on error
	if err != nil {
		return failPartial(out, &rep, &rep.partialStatus, err)
	}
	rep.ZeroFalsePositives = hr.SoakSuspicions == 0
	rep.SurviveCrashOK = hr.SurviveTasks == int64(cfg.Graph.WithDefaults().TotalTasks())
	rep.FailFastOK = hr.FailFastMS > 0
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(statusW(out), "wrote %s (detection mean=%.1fms over %d trials, soak %ds suspicions=%d, survive-crash ok=%v, fail-fast=%.1fms)\n",
		out, rep.Health.DetectionMeanMS, rep.Health.DetectionTrials,
		int(rep.Health.SoakSeconds), rep.Health.SoakSuspicions,
		rep.SurviveCrashOK, rep.Health.FailFastMS)
	return nil
}

// adaptiveReport is the BENCH_adaptive.json schema: the controller A/B
// harness (internal/taskbench.RunAB) comparing the global OverheadTuner
// against the per-destination MultiTuner on a mixed uniform workload and
// on the skewed fan-in pattern, from identical uncoalesced starting
// parameters. Each arm records wall time, mean Eq. 4 overhead,
// convergence time, decision counts and steady-state stability.
type adaptiveReport struct {
	partialStatus
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Quick      bool               `json:"quick"`
	Localities int                `json:"localities"`
	Runs       int                `json:"runs_per_arm"`
	AB         taskbench.ABResult `json:"ab"`
	// MultiWinsSkewedOK: on the skewed workload the MultiTuner arm beat
	// the global arm on wall time or Eq. 4 overhead at equal work.
	// MultiNoWorseUniformOK: on the uniform workload the MultiTuner arm
	// stayed within 5% of the global arm's wall time.
	MultiWinsSkewedOK     bool `json:"multi_wins_skewed"`
	MultiNoWorseUniformOK bool `json:"multi_no_worse_uniform"`
}

func runAdaptive(out string, opts options) error {
	cfg := bench.TaskbenchABConfig(opts.quick)
	cfg = cfg.WithDefaults()
	rep := adaptiveReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      opts.quick,
		Localities: cfg.Localities,
		Runs:       cfg.Runs,
	}
	res, err := taskbench.RunAB(cfg)
	rep.AB = res // partial arm progress is meaningful even on error
	if err != nil {
		return failPartial(out, &rep, &rep.partialStatus, err)
	}
	for _, wl := range res.Workloads {
		if opts.verbose {
			fmt.Fprintf(os.Stderr, "%-10s global: wall=%.2fms oh=%.4f dec=%d conv=%.0fms | multi: wall=%.2fms oh=%.4f dec=%d conv=%.0fms dests=%d\n",
				wl.Workload, wl.Global.MeanWallMS, wl.Global.MeanOverhead, wl.Global.Decisions, wl.Global.ConvergenceMS,
				wl.Multi.MeanWallMS, wl.Multi.MeanOverhead, wl.Multi.Decisions, wl.Multi.ConvergenceMS, wl.Multi.TrackedDests)
		}
		switch wl.Workload {
		case "skewed":
			rep.MultiWinsSkewedOK = wl.WallRatio > 1 || wl.OverheadRatio > 1
		case "uniform":
			rep.MultiNoWorseUniformOK = wl.WallRatio >= 0.95
		}
	}
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(statusW(out), "wrote %s (%d workloads, multi wins skewed=%v, no worse uniform=%v)\n",
		out, len(rep.AB.Workloads), rep.MultiWinsSkewedOK, rep.MultiNoWorseUniformOK)
	return nil
}

// clusterReport is the BENCH_cluster.json schema: weak and strong
// scaling of the Task Bench stencil across real amc-node OS processes on
// loopback TCP, plus a crash-recovery run where one node is hard-killed
// mid-benchmark and the survivors detect it through gossiped membership
// and finish its partition.
type clusterReport struct {
	partialStatus
	GoVersion  string                   `json:"go_version"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Quick      bool                     `json:"quick"`
	Cluster    bench.ClusterSuiteResult `json:"cluster"`
	// AllCompleted: every scaling run executed its whole graph.
	// RecoveryOK: the crash run detected the kill and still completed.
	// PartitionHealOK: every partition scenario completed its graph
	// post-heal and, when rejoin was armed, re-converged.
	AllCompleted    bool `json:"all_completed"`
	RecoveryOK      bool `json:"recovery_ok"`
	PartitionHealOK bool `json:"partition_heal_ok"`
	// NodeStderrTails, present only on failure, holds the tail of each
	// node's stderr from the run that killed the suite.
	NodeStderrTails map[int]string `json:"node_stderr_tails,omitempty"`
}

func runCluster(out string, opts options) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolving own binary for node re-exec: %w", err)
	}
	rep := clusterReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      opts.quick,
	}
	cfg := bench.ClusterConfig{
		NodeCommand: []string{self, "-as-node"},
		Quick:       opts.quick,
	}
	if opts.verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	res, err := bench.RunClusterSuite(cfg)
	rep.Cluster = res // partial sweep progress is meaningful even on error
	if err != nil {
		var cre *bench.ClusterRunError
		if errors.As(err, &cre) {
			rep.NodeStderrTails = cre.StderrTails
		}
		return failPartial(out, &rep, &rep.partialStatus, err)
	}
	rep.AllCompleted = true
	for _, p := range append(append([]bench.ClusterPoint(nil), res.WeakScaling...), res.StrongScaling...) {
		if !p.Completed {
			rep.AllCompleted = false
		}
	}
	rep.RecoveryOK = res.Recovery != nil && res.Recovery.Detected && res.Recovery.Completed
	rep.PartitionHealOK = len(res.PartitionHeal) > 0
	for _, p := range res.PartitionHeal {
		if !p.Completed {
			rep.PartitionHealOK = false
		}
	}
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(statusW(out), "wrote %s (%d weak + %d strong scaling points, %d partition scenarios, all completed=%v, recovery ok=%v, partition heal ok=%v)\n",
		out, len(res.WeakScaling), len(res.StrongScaling), len(res.PartitionHeal), rep.AllCompleted, rep.RecoveryOK, rep.PartitionHealOK)
	return nil
}

// fftReport is the BENCH_fft.json schema: the distributed 2-D FFT
// benchmark (internal/apps/fft over collectives) swept across
// {all-to-all algorithm variant × coalescing arm (static grid +
// adaptive MultiTuner) × grid size}, each cell verified bit-exact
// against the sequential reference and measured for wall time and Eq. 4
// network overhead, plus three-node multi-process cluster runs of the
// same app over real TCP sockets.
type fftReport struct {
	partialStatus
	GoVersion  string               `json:"go_version"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Quick      bool                 `json:"quick"`
	FFT        bench.FFTSuiteResult `json:"fft"`
	// AllVerified: every sweep cell and cluster run was bit-exact.
	// RingBeatsDirectOK: the paced ring rotation beat the direct burst on
	// wall time or Eq. 4 overhead in at least one matched cell.
	// ClusterVerifiedOK: every cluster run (>= 3 real processes) verified.
	AllVerified       bool `json:"all_verified"`
	RingBeatsDirectOK bool `json:"ring_beats_direct"`
	ClusterVerifiedOK bool `json:"cluster_verified"`
}

func runFFT(out string, opts options) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolving own binary for node re-exec: %w", err)
	}
	rep := fftReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      opts.quick,
	}
	cfg := bench.FFTConfig{
		NodeCommand: []string{self, "-as-node"},
		Quick:       opts.quick,
	}
	if opts.verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	res, err := bench.RunFFTSuite(cfg)
	rep.FFT = res // partial sweep progress is meaningful even on error
	if err != nil {
		return failPartial(out, &rep, &rep.partialStatus, err)
	}
	rep.AllVerified = len(res.Points) > 0
	for _, p := range res.Points {
		if !p.Verified {
			rep.AllVerified = false
		}
	}
	rep.ClusterVerifiedOK = len(res.Cluster) > 0
	for _, p := range res.Cluster {
		if !p.Verified || !p.Completed {
			rep.ClusterVerifiedOK = false
		}
		if !p.Verified {
			rep.AllVerified = false
		}
	}
	rep.RingBeatsDirectOK = len(res.RingWins) > 0
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(statusW(out), "wrote %s (%d sweep cells, %d cluster runs, all verified=%v, ring beats direct=%v)\n",
		out, len(rep.FFT.Points), len(rep.FFT.Cluster), rep.AllVerified, rep.RingBeatsDirectOK)
	return nil
}

// failPartial writes the partial report with its marker set and returns
// the suite error (joined with any write error).
func failPartial(out string, rep any, st *partialStatus, err error) error {
	st.markPartial(err)
	if werr := writeJSON(out, rep); werr != nil {
		return fmt.Errorf("%w (and writing partial report failed: %v)", err, werr)
	}
	fmt.Fprintf(os.Stderr, "amc-bench: wrote PARTIAL report %s: %v\n", out, err)
	return err
}

// statusW is where a suite's one-line human summary goes: stderr when
// the JSON report itself is streaming to stdout (`-o -`), so the
// output stays machine-parseable, stdout otherwise.
func statusW(out string) io.Writer {
	if out == "-" {
		return os.Stderr
	}
	return os.Stdout
}

func writeJSON(out string, rep any) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amc-bench:", err)
	os.Exit(1)
}
