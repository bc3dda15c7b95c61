package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/health"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/taskbench"
)

// HealthConfig shapes the failure-detection chaos suite behind
// BENCH_health.json: phi-accrual detection latency, a no-crash
// false-positive soak, and the survive-crash workload runs.
type HealthConfig struct {
	Localities         int
	WorkersPerLocality int
	// Detector is the phi-accrual configuration used for the detection
	// trials and the survive-crash runs (fast horizons in quick mode so
	// CI detects in milliseconds).
	Detector health.Config
	// SoakDetector is the configuration under test in the false-positive
	// soak. This stays at production defaults even in quick mode: the
	// soak's claim — sustained workload traffic, zero suspicions — is
	// about the shipped parameters, not the accelerated test ones.
	SoakDetector health.Config
	// DetectionTrials is how many crash-inject/measure cycles feed the
	// latency statistics (each on a fresh runtime).
	DetectionTrials int
	// SoakDuration is how long the no-crash soak runs workload traffic
	// while asserting the detector stays silent.
	SoakDuration time.Duration
	// Graph is the survive-crash workload; CrashAtStep the injection
	// point within it.
	Graph       taskbench.Graph
	CrashAtStep int
	// RunTimeout bounds each taskbench execution.
	RunTimeout time.Duration
}

// HealthSuiteConfig returns the full (30s soak) or quick (CI smoke, 3s
// soak, millisecond detector horizons) configuration.
func HealthSuiteConfig(quick bool) HealthConfig {
	cfg := HealthConfig{
		Localities:         3,
		WorkersPerLocality: 2,
		Detector:           health.Config{Enabled: true}, // production defaults
		SoakDetector:       health.Config{Enabled: true}, // production defaults
		DetectionTrials:    5,
		SoakDuration:       30 * time.Second,
		Graph: taskbench.Graph{
			Width: 24, Steps: 12, Pattern: taskbench.Stencil1D,
			Iterations: 32, OutputBytes: 16,
		},
		CrashAtStep: 4,
		RunTimeout:  60 * time.Second,
	}
	if quick {
		cfg.Detector = health.Config{
			Enabled:           true,
			HeartbeatInterval: 2 * time.Millisecond,
			Tick:              500 * time.Microsecond,
			PhiThreshold:      8,
			Grace:             20 * time.Millisecond,
		}
		cfg.DetectionTrials = 3
		cfg.SoakDuration = 3 * time.Second
		cfg.Graph.Width = 12
		cfg.Graph.Steps = 6
		cfg.Graph.Iterations = 16
		cfg.CrashAtStep = 2
		cfg.RunTimeout = 30 * time.Second
	}
	return cfg
}

// HealthReport is the measurement set the health suite produces.
type HealthReport struct {
	Localities int `json:"localities"`
	// Detection latency (crash injection to LocalityDead on the
	// survivors), over DetectionTrials fresh runtimes.
	DetectionTrials int     `json:"detection_trials"`
	DetectionMinMS  float64 `json:"detection_min_ms"`
	DetectionMeanMS float64 `json:"detection_mean_ms"`
	DetectionMaxMS  float64 `json:"detection_max_ms"`
	// False-positive soak: workload traffic, zero crashes. Suspicions
	// must stay zero.
	SoakSeconds    float64 `json:"soak_seconds"`
	SoakRuns       int     `json:"soak_runs"`
	SoakSuspicions int64   `json:"soak_suspicions"`
	// Survive-crash workload: with the retry/recovery policy the run
	// completes on the survivors; without it, it fails cleanly with
	// ErrLocalityDown — measured as time-to-clean-failure.
	SurviveWallMS float64 `json:"survive_wall_ms"`
	SurviveTasks  int64   `json:"survive_tasks"`
	FailFastMS    float64 `json:"fail_fast_ms"`
}

type healthRig struct {
	rt   *runtime.Runtime
	fab  *network.SimFabric
	plan *network.FaultPlan
}

func newHealthRig(cfg HealthConfig, det health.Config) *healthRig {
	fab := network.NewSimFabric(cfg.Localities, network.CostModel{
		SendOverhead: time.Microsecond, Latency: 2 * time.Microsecond,
	})
	plan := network.NewFaultPlan(1)
	fab.SetFaultHook(plan.Hook())
	rt := runtime.New(runtime.Config{
		Localities:         cfg.Localities,
		WorkersPerLocality: cfg.WorkersPerLocality,
		Fabric:             fab,
		Health:             det,
	})
	return &healthRig{rt: rt, fab: fab, plan: plan}
}

func (r *healthRig) close() {
	r.rt.Shutdown()
	r.fab.Close()
}

// RunHealth executes the chaos suite and returns its report. Partial
// progress is returned alongside the error so the caller can emit a
// partial report.
func RunHealth(cfg HealthConfig) (HealthReport, error) {
	rep := HealthReport{Localities: cfg.Localities, DetectionTrials: cfg.DetectionTrials}

	// 1. Detection latency: crash a locality on a fresh runtime and
	// measure injection-to-declaration on the survivors.
	var sum float64
	for trial := 0; trial < cfg.DetectionTrials; trial++ {
		lat, err := detectionTrial(cfg)
		if err != nil {
			return rep, fmt.Errorf("detection trial %d: %w", trial, err)
		}
		ms := float64(lat) / 1e6
		sum += ms
		if trial == 0 || ms < rep.DetectionMinMS {
			rep.DetectionMinMS = ms
		}
		if ms > rep.DetectionMaxMS {
			rep.DetectionMaxMS = ms
		}
	}
	if cfg.DetectionTrials > 0 {
		rep.DetectionMeanMS = sum / float64(cfg.DetectionTrials)
	}

	// 2. False-positive soak: workload traffic, no crash, detector must
	// stay silent for the whole window.
	runs, suspicions, err := soak(cfg)
	rep.SoakSeconds = cfg.SoakDuration.Seconds()
	rep.SoakRuns = runs
	rep.SoakSuspicions = suspicions
	if err != nil {
		return rep, fmt.Errorf("soak: %w", err)
	}

	// 3. Survive-crash with recovery: the run must complete on the
	// survivors with every task executed.
	wall, tasks, err := surviveCrash(cfg, true)
	if err != nil {
		return rep, fmt.Errorf("survive-crash (recover): %w", err)
	}
	rep.SurviveWallMS = float64(wall) / 1e6
	rep.SurviveTasks = tasks

	// 4. Without recovery the same crash must fail cleanly (never hang):
	// the error wraps ErrLocalityDown and arrives within the run budget.
	wall, _, err = surviveCrash(cfg, false)
	if err == nil {
		return rep, errors.New("fail-fast run completed despite crash with no recovery policy")
	}
	if !errors.Is(err, network.ErrLocalityDown) {
		return rep, fmt.Errorf("fail-fast run: %w (want ErrLocalityDown, a timeout means the run hung)", err)
	}
	rep.FailFastMS = float64(wall) / 1e6
	return rep, nil
}

func detectionTrial(cfg HealthConfig) (time.Duration, error) {
	rig := newHealthRig(cfg, cfg.Detector)
	defer rig.close()
	victim := cfg.Localities - 1

	// Let the detector build its inter-arrival window first.
	hi := cfg.Detector.WithDefaults().HeartbeatInterval
	time.Sleep(10 * hi)

	rig.plan.Crash(victim)
	rig.rt.CrashLocality(victim)
	start := time.Now()
	deadline := start.Add(cfg.RunTimeout)
	for time.Now().Before(deadline) {
		if rig.rt.LocalityDead(victim) {
			return time.Since(start), nil
		}
		time.Sleep(hi / 10)
	}
	return 0, fmt.Errorf("locality %d not declared dead within %v (phi from 0: %.2f)",
		victim, cfg.RunTimeout, rig.rt.Monitor(0).Phi(victim))
}

func soak(cfg HealthConfig) (runs int, suspicions int64, err error) {
	rig := newHealthRig(cfg, cfg.SoakDetector)
	defer rig.close()
	b, err := taskbench.New(rig.rt, taskbench.Options{Timeout: cfg.RunTimeout})
	if err != nil {
		return 0, 0, err
	}
	g := cfg.Graph
	deadline := time.Now().Add(cfg.SoakDuration)
	for time.Now().Before(deadline) {
		if _, err := b.Run(g); err != nil {
			return runs, 0, err
		}
		runs++
	}
	for i := 0; i < cfg.Localities; i++ {
		suspicions += rig.rt.Monitor(i).Suspicions()
		if rig.rt.LocalityDead(i) {
			return runs, suspicions, fmt.Errorf("false positive: locality %d declared dead with no crash", i)
		}
	}
	if suspicions != 0 {
		return runs, suspicions, fmt.Errorf("false positives: %d suspicions during idle soak", suspicions)
	}
	return runs, suspicions, nil
}

func surviveCrash(cfg HealthConfig, recover bool) (wall time.Duration, tasks int64, err error) {
	rig := newHealthRig(cfg, cfg.Detector)
	defer rig.close()
	b, err := taskbench.New(rig.rt, taskbench.Options{Timeout: cfg.RunTimeout, Recover: recover})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	res, err := b.RunWithCrash(cfg.Graph, taskbench.CrashSpec{
		Locality: cfg.Localities - 1,
		AtStep:   cfg.CrashAtStep,
		Plan:     rig.plan,
	})
	wall = time.Since(start)
	if err != nil {
		return wall, 0, err
	}
	if want := int64(res.Graph.TotalTasks()); res.Tasks != want {
		return wall, res.Tasks, fmt.Errorf("executed %d tasks, want exactly %d", res.Tasks, want)
	}
	return wall, res.Tasks, nil
}
