// Package amc is the public API of the adaptive active-message-coalescing
// reproduction: a task-based runtime system ("GPX", an HPX analog in Go)
// with per-action parcel coalescing, introspective network-overhead
// metrics, and adaptive parameter tuning, after
//
//	Wagle, Kellar, Serio, Kaiser — "Methodology for Adaptive Active
//	Message Coalescing in Task Based Runtime Systems" (IPDPS Workshops
//	2018).
//
// The facade re-exports what the examples use — runtime construction,
// action registration, asynchronous invocation, coalescing control,
// component objects, the Section III metrics and the adaptive tuner;
// performance counters are read through Runtime.Counters. The subsystems,
// collectives and the experiment harness among them, live in internal/
// packages. A minimal program:
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
	"repro/internal/adaptive"
	"repro/internal/agas"
	"repro/internal/coalescing"
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
)

// NewRuntime creates and starts a runtime.
func NewRuntime(cfg RuntimeConfig) *Runtime { return runtime.New(cfg) }

// Snapshot reads the Section III metrics of a runtime.
func Snapshot(rt *Runtime) MetricsSample { return metrics.Snapshot(rt) }

// NewPhaseRecorder starts per-phase metric recording on a runtime.
func NewPhaseRecorder(rt *Runtime) *PhaseRecorder { return metrics.NewPhaseRecorder(rt) }

// NewMultiTuner creates an adaptive tuner for a coalesced action.
func NewMultiTuner(rt *Runtime, action string, cfg MultiTunerConfig) *MultiTuner {
	return adaptive.NewMultiTuner(rt, action, cfg)
}
