// Package metrics computes the paper's Section III network-performance
// metrics from the runtime's performance counters:
//
//	Task duration       t_d  = Σ t_func                      (Eq. 1)
//	Task overhead       t_o  = (Σ t_func − Σ t_exec) / n_t   (Eq. 2)
//	Background work     t_bd = Σ t_background-work            (Eq. 3)
//	Network overhead    n_oh = Σ t_bg / Σ t_func              (Eq. 4)
//
// where the Eq. 4 denominator is the scheduler's total busy time (task
// time plus background time), keeping the ratio in [0, 1]; see
// internal/runtime's scheduler documentation for the correspondence with
// HPX's cumulative thread-time counter.
//
// The PhaseRecorder supports the paper's instantaneous measurements
// (Section IV-D, Fig. 9): it snapshots the cumulative counters at phase
// boundaries and reports per-phase deltas, so the network overhead of
// each application phase is observable while the application runs — the
// capability the paper argues enables phase-aware adaptive tuning.
package metrics

import (
	"fmt"
	"time"

	"repro/internal/runtime"
)

// Sample is a point-in-time reading of the cumulative Section III
// counters, aggregated across all localities of a runtime.
type Sample struct {
	// When is the snapshot time.
	When time.Time
	// Tasks is the number of executed lightweight tasks (n_t).
	Tasks int64
	// TaskDuration is Σ t_func (Eq. 1).
	TaskDuration time.Duration
	// ExecDuration is Σ t_exec.
	ExecDuration time.Duration
	// BackgroundWork is Σ t_background-work (Eq. 3).
	BackgroundWork time.Duration
}

// NetworkOverhead returns Eq. 4: the fraction of scheduler busy time
// spent on network background work.
func (s Sample) NetworkOverhead() float64 {
	busy := s.TaskDuration + s.BackgroundWork
	if busy == 0 {
		return 0
	}
	return float64(s.BackgroundWork) / float64(busy)
}

// Snapshot reads the cumulative counters of every locality.
func Snapshot(rt *runtime.Runtime) Sample {
	s := Sample{When: time.Now()}
	for i := 0; i < rt.Localities(); i++ {
		st := rt.Locality(i).SchedStats()
		s.Tasks += st.Tasks
		s.TaskDuration += st.CumFunc
		s.ExecDuration += st.CumExec
		s.BackgroundWork += st.Background
	}
	return s
}

// Phase is the delta between two samples: the Section III metrics of one
// application phase.
type Phase struct {
	// Label identifies the phase (e.g. "phase 2" or "iteration 1").
	Label string
	// Wall is the elapsed wall-clock time of the phase.
	Wall time.Duration
	// Tasks, TaskDuration, ExecDuration, BackgroundWork are the phase's
	// counter deltas.
	Tasks          int64
	TaskDuration   time.Duration
	ExecDuration   time.Duration
	BackgroundWork time.Duration
}

// TaskOverheadUS returns the phase's Eq. 2 value in microseconds.
func (p Phase) TaskOverheadUS() float64 {
	if p.Tasks == 0 {
		return 0
	}
	return float64(p.TaskDuration-p.ExecDuration) / float64(p.Tasks) / float64(time.Microsecond)
}

// NetworkOverhead returns the phase's Eq. 4 value.
func (p Phase) NetworkOverhead() float64 {
	busy := p.TaskDuration + p.BackgroundWork
	if busy == 0 {
		return 0
	}
	return float64(p.BackgroundWork) / float64(busy)
}

// String renders the phase the way the experiment tables report it.
func (p Phase) String() string {
	return fmt.Sprintf("%s: wall=%v n_oh=%.4f t_o=%.2fµs tasks=%d bg=%v",
		p.Label, p.Wall.Round(time.Microsecond), p.NetworkOverhead(), p.TaskOverheadUS(), p.Tasks, p.BackgroundWork.Round(time.Microsecond))
}

// delta computes the phase between two samples.
func delta(label string, from, to Sample) Phase {
	return Phase{
		Label:          label,
		Wall:           to.When.Sub(from.When),
		Tasks:          to.Tasks - from.Tasks,
		TaskDuration:   to.TaskDuration - from.TaskDuration,
		ExecDuration:   to.ExecDuration - from.ExecDuration,
		BackgroundWork: to.BackgroundWork - from.BackgroundWork,
	}
}

// PhaseRecorder captures per-phase metric deltas as an application runs.
type PhaseRecorder struct {
	rt   *runtime.Runtime
	last Sample
}

// NewPhaseRecorder starts recording from the runtime's current counter
// state.
func NewPhaseRecorder(rt *runtime.Runtime) *PhaseRecorder {
	return &PhaseRecorder{rt: rt, last: Snapshot(rt)}
}

// EndPhase closes the current phase under the given label and starts the
// next one, returning the closed phase's metrics.
func (r *PhaseRecorder) EndPhase(label string) Phase {
	now := Snapshot(r.rt)
	p := delta(label, r.last, now)
	r.last = now
	return p
}
