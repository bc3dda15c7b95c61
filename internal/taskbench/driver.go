package taskbench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lco"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/serialization"
)

// Action is the default active-message action name carrying dependence
// outputs between tasks. Enable coalescing for this action to route
// taskbench traffic through the coalescing layer.
const Action = "taskbench/input"

// Options configures a Bench on a runtime.
type Options struct {
	// ActionName overrides the registered action name (default Action),
	// letting several independent benches coexist on one runtime.
	ActionName string
	// Timeout bounds one Run (default 60s).
	Timeout time.Duration
}

// Bench binds the taskbench driver to a runtime: it registers the input
// action once and then executes any number of graphs sequentially. Task
// points are block-partitioned across localities (point p lives on
// locality p*L/Width), so a pattern's cross-partition edges become
// parcels while vertical edges stay local, exactly as a distributed
// Task Bench instance would behave.
type Bench struct {
	rt      *runtime.Runtime
	action  string
	timeout time.Duration

	mu  sync.Mutex // serializes Run; guards the tables below
	cur atomic.Pointer[run]
	// deps and dependents are the dependence tables of tablesFor, the
	// last graph prepared. Runs only read them, and a phase runs one graph
	// back to back, so the next run of the same graph reuses them.
	tablesFor        Graph
	deps, dependents [][]int

	// epochs tags every input parcel with the run it belongs to. In
	// cluster mode the processes start the same run a few milliseconds
	// apart, so a fast node's first outputs can arrive before the slow
	// receiver has prepared its run state; those early parcels are held
	// in pending and replayed when the matching run is installed (the
	// transport has already delivered them exactly-once — dropping them
	// here would stall the graph with no retransmission coming).
	epoch        atomic.Uint64
	pendMu       sync.Mutex
	pending      []pendingInput
	drainedEpoch uint64
}

// pendingInput is one buffered early input (payload content is unused
// by the protocol, so only the coordinates are retained).
type pendingInput struct {
	epoch       uint64
	step, point int
	loc         int
}

// maxPending bounds the early-parcel buffer; overflow is dropped (a
// stall follows, but memory stays bounded under a hostile sender).
const maxPending = 1 << 16

// run is the state of one graph execution.
type run struct {
	g     Graph
	epoch uint64
	// owners maps each point to its executing locality. Atomic because
	// crash recovery re-homes the dead locality's points mid-run.
	owners []atomic.Int32
	// deps and dependents are indexed step*Width+point and shared by
	// consecutive runs of one graph: read only.
	deps       [][]int
	dependents [][]int
	remaining  []atomic.Int32
	// done marks task bodies that have executed; the CAS makes execution
	// exactly-once even when the crash-recovery sweep re-spawns a task
	// racing its regular dataflow trigger.
	done     []atomic.Bool
	latches  []*lco.Latch // one per step, counting Width completions
	executed atomic.Int64
	payload  []byte

	// Crash-mode state (nil/zero without a CrashSpec).
	crash      *CrashSpec
	crashFired atomic.Bool
	failed     chan struct{}
	failOnce   sync.Once
	stopSweep  chan struct{}

	// Cluster-mode state (nil outside RunCluster): this process executes
	// only its hosted partition and the crash watchdog reacts to
	// DeclareDown verdicts instead of an injected CrashSpec.
	cluster *ClusterOptions
}

// fail marks the run cleanly failed (crash detected, no recovery policy);
// the wait loop observes it and returns instead of hanging.
func (ru *run) fail() { ru.failOnce.Do(func() { close(ru.failed) }) }

// New registers the input action and returns a bench bound to the
// runtime.
func New(rt *runtime.Runtime, opts Options) (*Bench, error) {
	b := &Bench{rt: rt, action: opts.ActionName, timeout: opts.Timeout}
	if b.action == "" {
		b.action = Action
	}
	if b.timeout <= 0 {
		b.timeout = defaultTimeout
	}
	if err := rt.RegisterAction(b.action, b.inputAction); err != nil {
		return nil, err
	}
	return b, nil
}

// ActionName returns the action the bench's dependence messages use —
// the name to pass to EnableCoalescing / SetCoalescingParams.
func (b *Bench) ActionName() string { return b.action }

// Result summarizes one graph execution.
type Result struct {
	// Graph is the executed graph (defaults resolved).
	Graph Graph
	// Wall is the end-to-end execution time.
	Wall time.Duration
	// Tasks is the number of task bodies executed (must equal
	// Graph.TotalTasks()).
	Tasks int64
	// NetworkOverhead is the Eq. 4 metric over the run, and
	// TaskOverheadUS the Eq. 2 metric.
	NetworkOverhead float64
	TaskOverheadUS  float64
	// MessagesSent and ParcelsSent are the port-level deltas across all
	// localities: how much coalesced wire traffic the run generated.
	MessagesSent, ParcelsSent int64
}

// Run executes one graph to completion and returns its measurements.
// Runs are serialized; concurrent calls block.
func (b *Bench) Run(g Graph) (Result, error) { return b.execute(g, nil) }

func (b *Bench) execute(g Graph, crash *CrashSpec) (Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()

	g = g.WithDefaults()
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	if crash != nil {
		if err := b.validateCrash(g, crash); err != nil {
			return Result{}, err
		}
	}
	ru := b.prepare(g)
	ru.crash = crash
	b.installRun(ru)
	defer b.cur.Store(nil)
	if crash != nil {
		ru.stopSweep = make(chan struct{})
		go b.sweep(ru)
		defer close(ru.stopSweep)
	}

	portBefore := b.portStats()
	before := metrics.Snapshot(b.rt)
	start := time.Now()

	// Seed every zero-dependency task: all of step 0, plus any later
	// task whose pattern gives it no inputs (Trivial everywhere, Random
	// points that drew no edges). Dataflow triggers everything else.
	w := g.Width
	for s := 0; s < g.Steps; s++ {
		for p := 0; p < w; p++ {
			idx := s*w + p
			if len(ru.deps[idx]) != 0 {
				continue
			}
			s, p := s, p
			loc := int(ru.owners[p].Load())
			if !b.rt.Locality(loc).Spawn(func() { b.runTask(ru, s, p, loc) }) {
				return Result{}, runtime.ErrStopped
			}
		}
	}

	deadline := time.Now().Add(b.timeout)
	for s, latch := range ru.latches {
		left := time.Until(deadline)
		if left <= 0 {
			return Result{}, fmt.Errorf("taskbench: %s stalled at step %d with %d/%d tasks executed",
				g, s, ru.executed.Load(), g.TotalTasks())
		}
		tmr := time.NewTimer(left)
		select {
		case <-latch.Done():
			tmr.Stop()
		case <-ru.failed:
			tmr.Stop()
			return Result{}, fmt.Errorf("taskbench: %s: %w: locality %d crashed and no retry policy is active (failed cleanly at step %d, %d/%d tasks executed)",
				g, network.ErrLocalityDown, crash.Locality, s, ru.executed.Load(), g.TotalTasks())
		case <-tmr.C:
			return Result{}, fmt.Errorf("taskbench: %s stalled at step %d with %d/%d tasks executed",
				g, s, ru.executed.Load(), g.TotalTasks())
		}
	}

	wall := time.Since(start)
	after := metrics.Snapshot(b.rt)
	portAfter := b.portStats()

	phase := metrics.Phase{
		Tasks:          after.Tasks - before.Tasks,
		TaskDuration:   after.TaskDuration - before.TaskDuration,
		ExecDuration:   after.ExecDuration - before.ExecDuration,
		BackgroundWork: after.BackgroundWork - before.BackgroundWork,
	}
	return Result{
		Graph:           g,
		Wall:            wall,
		Tasks:           ru.executed.Load(),
		NetworkOverhead: phase.NetworkOverhead(),
		TaskOverheadUS:  phase.TaskOverheadUS(),
		MessagesSent:    portAfter[0] - portBefore[0],
		ParcelsSent:     portAfter[1] - portBefore[1],
	}, nil
}

// installRun publishes the run and replays any inputs that arrived for
// its epoch before it existed (cluster mode: peers that started first).
func (b *Bench) installRun(ru *run) {
	b.cur.Store(ru)
	b.pendMu.Lock()
	b.drainedEpoch = ru.epoch
	var replay []pendingInput
	keep := b.pending[:0]
	for _, p := range b.pending {
		if p.epoch == ru.epoch {
			replay = append(replay, p)
		} else if p.epoch > ru.epoch {
			keep = append(keep, p)
		}
	}
	b.pending = keep
	b.pendMu.Unlock()
	for _, p := range replay {
		_ = b.applyInput(ru, p.step, p.point, p.loc)
	}
}

// bufferInput stashes an early input, unless its run was already
// installed while the caller was deciding (then the caller must apply it
// normally against the returned run) or it is stale (nil, false).
func (b *Bench) bufferInput(ep uint64, step, point, loc int) (*run, bool) {
	b.pendMu.Lock()
	defer b.pendMu.Unlock()
	if ru := b.cur.Load(); ru != nil && ru.epoch == ep {
		return ru, false
	}
	if ep > b.drainedEpoch && len(b.pending) < maxPending {
		b.pending = append(b.pending, pendingInput{ep, step, point, loc})
		return nil, true
	}
	return nil, false
}

// prepare builds the per-run state and completion LCOs for a graph, and
// its dependence tables unless the previous run's graph was the same.
// The caller holds b.mu.
func (b *Bench) prepare(g Graph) *run {
	w, L := g.Width, b.rt.Localities()
	fresh := b.tablesFor != g
	if fresh {
		b.tablesFor = g
		b.deps, b.dependents = make([][]int, w*g.Steps), make([][]int, w*g.Steps)
	}
	ru := &run{
		g:          g,
		epoch:      b.epoch.Add(1),
		owners:     make([]atomic.Int32, w),
		deps:       b.deps,
		dependents: b.dependents,
		remaining:  make([]atomic.Int32, w*g.Steps),
		done:       make([]atomic.Bool, w*g.Steps),
		latches:    make([]*lco.Latch, g.Steps),
		payload:    make([]byte, g.OutputBytes),
		failed:     make(chan struct{}),
	}
	for p := 0; p < w; p++ {
		ru.owners[p].Store(int32(p * L / w))
	}
	for i := range ru.payload {
		ru.payload[i] = byte(i)
	}
	for s := 0; s < g.Steps; s++ {
		ru.latches[s] = lco.NewLatch(w)
		for p := 0; p < w; p++ {
			idx := s*w + p
			if fresh {
				ru.deps[idx] = g.Dependencies(s, p)
				// Invert into the producers' dependent lists.
				for _, q := range ru.deps[idx] {
					pidx := (s-1)*w + q
					ru.dependents[pidx] = append(ru.dependents[pidx], p)
				}
			}
			ru.remaining[idx].Store(int32(len(ru.deps[idx])))
		}
	}
	return ru
}

// portStats sums {messages, parcels} sent across the hosted localities
// (non-hosted cluster stubs have no port).
func (b *Bench) portStats() [2]int64 {
	var out [2]int64
	for i := 0; i < b.rt.Localities(); i++ {
		if !b.rt.Hosted(i) {
			continue
		}
		st := b.rt.Locality(i).Port().Stats()
		out[0] += st.MessagesSent
		out[1] += st.ParcelsSent
	}
	return out
}

// inputAction receives one dependence output for (step, point); the last
// arriving input runs the task body inline — the action already executes
// as a scheduler task on the owning locality, so no extra hop is needed.
func (b *Bench) inputAction(ctx *runtime.Context, args []byte) ([]byte, error) {
	r := serialization.NewReader(args)
	ep := r.Uvarint()
	step := int(r.Uvarint())
	point := int(r.Uvarint())
	r.BytesField() // payload: carried for wire-size realism, content unused
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("taskbench: corrupt input parcel: %w", err)
	}
	ru := b.cur.Load()
	if ru == nil || ru.epoch != ep {
		// Early (the matching run is not installed yet — buffer it) or
		// stale (its run is over — drop it); bufferInput decides under the
		// lock, and hands back the run if installation just won the race.
		var buffered bool
		if ru, buffered = b.bufferInput(ep, step, point, ctx.Locality); buffered || ru == nil {
			return nil, nil
		}
	}
	return nil, b.applyInput(ru, step, point, ctx.Locality)
}

// applyInput counts one dependence input down for (step, point); the
// last arriving input runs the task body inline.
func (b *Bench) applyInput(ru *run, step, point, loc int) error {
	w := ru.g.Width
	if step < 0 || step >= ru.g.Steps || point < 0 || point >= w {
		return fmt.Errorf("taskbench: input for (%d,%d) outside %s", step, point, ru.g)
	}
	switch n := ru.remaining[step*w+point].Add(-1); {
	case n == 0:
		b.runTask(ru, step, point, loc)
	case n < 0:
		// Under a crash the recovery sweep (or a cluster redrive) re-sends
		// inputs and re-spawns tasks directly, so a late dataflow trigger
		// for an already-run task is expected at-least-once noise, not a
		// protocol violation.
		if ru.crash == nil && (ru.cluster == nil || !ru.cluster.Recover) {
			return fmt.Errorf("taskbench: surplus input for task (%d,%d)", step, point)
		}
	}
	return nil
}

// runTask executes the task body at (step, point) on locality loc: spin
// the configured grain, emit one message per dependent in the next step,
// and count down the step's completion latch.
func (b *Bench) runTask(ru *run, step, point, loc int) {
	if c := ru.crash; c != nil {
		// Inject the crash the first time any task of the target step
		// starts: deterministic in graph progress, not wall time.
		if step >= c.AtStep && ru.crashFired.CompareAndSwap(false, true) {
			c.Plan.Crash(c.Locality)
			b.rt.CrashLocality(c.Locality)
		}
		// A crashed locality executes nothing more. Its queued tasks stay
		// not-done so the recovery sweep can re-run them on a survivor —
		// this models the scheduler state lost with the node.
		if ru.crashFired.Load() && loc == c.Locality {
			return
		}
	}
	// In cluster mode a condemned locality stops executing: the cluster
	// has already re-homed its partition, and work it completed now would
	// race the survivors' re-execution.
	if ru.cluster != nil && b.rt.LocalityDead(loc) {
		return
	}
	if !ru.done[step*ru.g.Width+point].CompareAndSwap(false, true) {
		return // already executed (sweep re-spawn raced the dataflow path)
	}
	if grind(ru.g.Iterations) < 0 {
		panic("taskbench: grind underflow") // unreachable; pins the spin loop
	}
	w := ru.g.Width
	if step+1 < ru.g.Steps {
		src := b.rt.Locality(loc)
		for _, q := range ru.dependents[step*w+point] {
			wr := serialization.NewWriter(24 + len(ru.payload))
			wr.Uvarint(ru.epoch)
			wr.Uvarint(uint64(step + 1))
			wr.Uvarint(uint64(q))
			wr.BytesField(ru.payload)
			if err := src.Apply(int(ru.owners[q].Load()), b.action, wr.Bytes()); err != nil {
				// The latch still counts down: a send failure surfaces as a
				// stalled downstream step (or a sweep re-spawn under crash
				// recovery) with this task recorded done.
				break
			}
		}
	}
	ru.executed.Add(1)
	ru.latches[step].CountDown(1)
}

// grind is the task grain: iters dependent floating-point operations the
// compiler cannot elide.
func grind(iters int) float64 {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}
