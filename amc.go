// Package amc is the public API of the adaptive active-message-coalescing
// reproduction: a task-based runtime system ("GPX", an HPX analog in Go)
// with per-action parcel coalescing, introspective network-overhead
// metrics, and adaptive parameter tuning, after
//
//	Wagle, Kellar, Serio, Kaiser — "Methodology for Adaptive Active
//	Message Coalescing in Task Based Runtime Systems" (IPDPS Workshops
//	2018).
//
// The facade re-exports the pieces an application touches — runtime
// construction, action registration, asynchronous invocation, coalescing
// control, performance counters, metrics, and tuners — while the
// subsystems live in internal/ packages. A minimal program:
//
//	rt := amc.NewRuntime(amc.RuntimeConfig{Localities: 2})
//	defer rt.Shutdown()
//	rt.MustRegisterAction("echo", func(ctx *amc.Context, args []byte) ([]byte, error) {
//		return args, nil
//	})
//	_ = rt.EnableCoalescing("echo", amc.CoalescingParams{
//		NParcels: 16, Interval: 2 * time.Millisecond,
//	})
//	f, _ := rt.Locality(0).Async(1, "echo", []byte("hi"))
//	reply, _ := f.Get()
//
// See examples/ for runnable programs and cmd/amc-repro for the
// experiment harness regenerating every figure of the paper.
package amc

import (
	"time"

	"repro/internal/adaptive"
	"repro/internal/agas"
	"repro/internal/coalescing"
	"repro/internal/collectives"
	"repro/internal/counters"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/runtime"
)

// Core runtime types.
type (
	// Runtime is a multi-locality task-based runtime instance.
	Runtime = runtime.Runtime
	// RuntimeConfig configures NewRuntime.
	RuntimeConfig = runtime.Config
	// Locality is the abstraction for one simulated node.
	Locality = runtime.Locality
	// Context is passed to every executing action.
	Context = runtime.Context
	// ActionFunc is the body of a registered action.
	ActionFunc = runtime.ActionFunc
)

// Component objects (globally addressable, migratable).
type (
	// Component is a globally addressable object hosted at a locality.
	Component = runtime.Component
	// Migratable components can move between localities.
	Migratable = runtime.Migratable
	// ComponentFactory reconstructs migrated components.
	ComponentFactory = runtime.ComponentFactory
	// ComponentActionFunc is the body of a component action.
	ComponentActionFunc = runtime.ComponentActionFunc
	// GID is a global identifier in the Active Global Address Space.
	GID = agas.GID
)

// Coalescing control.
type (
	// CoalescingParams are the two tunable parameters of Algorithm 1 —
	// the parcel-queue length and the flush wait time — plus the
	// maximum-buffer-size guard.
	CoalescingParams = coalescing.Params
)

// Transport modeling.
type (
	// CostModel parameterizes the simulated interconnect.
	CostModel = network.CostModel
	// Fabric is the transport interface (simulated or TCP).
	Fabric = network.Fabric
)

// Introspection.
type (
	// MetricsSample is a point-in-time reading of the Section III
	// metrics.
	MetricsSample = metrics.Sample
	// PhaseRecorder captures per-phase metric deltas (Fig. 9).
	PhaseRecorder = metrics.PhaseRecorder
)

// Adaptive tuning.
type (
	// MultiTuner hill-climbs coalescing parameters against the
	// instantaneous network-overhead counter, per hot destination and
	// action-wide.
	MultiTuner = adaptive.MultiTuner
	// MultiTunerConfig configures a MultiTuner.
	MultiTunerConfig = adaptive.MultiTunerConfig
	// PICSTuner is the iteration-driven baseline controller.
	PICSTuner = adaptive.PICSTuner
)

// Collectives.
type (
	// Comm is a collective communicator (broadcast, reduce, all-reduce,
	// gather, barrier) over the runtime's active messages.
	Comm = collectives.Comm
	// ReduceFunc combines two serialized values during a reduction.
	ReduceFunc = collectives.ReduceFunc
)

// NewComm creates a named collective communicator on a runtime.
func NewComm(rt *Runtime, name string) (*Comm, error) { return collectives.NewComm(rt, name) }

// Counter time series.
type (
	// CounterSampler periodically reads counter queries into a time
	// series (the --hpx:print-counter-interval analog).
	CounterSampler = counters.Sampler
)

// NewCounterSampler creates a sampler over the runtime's registry.
func NewCounterSampler(rt *Runtime, queries []string, interval time.Duration) *CounterSampler {
	return counters.NewSampler(rt.Counters(), queries, interval)
}

// NewRuntime creates and starts a runtime.
func NewRuntime(cfg RuntimeConfig) *Runtime { return runtime.New(cfg) }

// DefaultCostModel returns the calibrated interconnect model used by the
// experiment harness.
func DefaultCostModel() CostModel { return network.DefaultCostModel() }

// ResponseAction returns the internal action name carrying responses of
// the given action (responses are coalesced alongside requests).
func ResponseAction(action string) string { return runtime.ResponseAction(action) }

// Snapshot reads the Section III metrics of a runtime.
func Snapshot(rt *Runtime) MetricsSample { return metrics.Snapshot(rt) }

// NewPhaseRecorder starts per-phase metric recording on a runtime.
func NewPhaseRecorder(rt *Runtime) *PhaseRecorder { return metrics.NewPhaseRecorder(rt) }

// NewMultiTuner creates an adaptive tuner for a coalesced action.
func NewMultiTuner(rt *Runtime, action string, cfg MultiTunerConfig) *MultiTuner {
	return adaptive.NewMultiTuner(rt, action, cfg)
}

// NewPICSTuner creates the iteration-driven baseline tuner over a
// candidate ladder.
func NewPICSTuner(rt *Runtime, action string, candidates []CoalescingParams) (*PICSTuner, error) {
	return adaptive.NewPICSTuner(rt, action, candidates)
}

// TunerLadder builds a powers-of-two candidate ladder for PICS-style
// search.
func TunerLadder(maxNParcels int, wait time.Duration) []CoalescingParams {
	return adaptive.DefaultLadder(maxNParcels, wait)
}

// Experiment scales for the reproduction harness.
type ExperimentScale = experiment.Scale

// QuickScale finishes in seconds (smoke tests).
func QuickScale() ExperimentScale { return experiment.QuickScale() }

// DefaultScale reproduces every trend in minutes.
func DefaultScale() ExperimentScale { return experiment.DefaultScale() }

// FullScale approaches the paper's workload sizes.
func FullScale() ExperimentScale { return experiment.FullScale() }
