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
	// Recover keeps a run going when a locality goes down: its points are
	// re-homed onto the survivors and their dataflow re-driven. Without
	// it the run fails with network.ErrLocalityDown. A re-drive can
	// deliver an input twice, so with Recover a surplus input is
	// tolerated instead of failing the run.
	Recover bool
}

// Bench binds the taskbench driver to a runtime: it registers the input
// action once and then executes any number of graphs sequentially. Task
// points are block-partitioned across localities (point p lives on
// locality p*L/Width), so a pattern's cross-partition edges become
// parcels while same-locality edges are counted down in place, exactly
// as a distributed Task Bench instance would behave. The input action is
// a direct action: a received input is counted down in the receiving
// port's background work, as HPX delivers an LCO input, so each graph
// task is exactly one scheduler task. A runtime hosting only some
// localities (cluster mode, runtime.Config.Hosted) executes only the
// points they own; every process runs the same graph.
type Bench struct {
	rt      *runtime.Runtime
	action  string
	timeout time.Duration
	recover bool

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
	// recovery re-homes a dead locality's points mid-run.
	owners []atomic.Int32
	// deps and dependents are indexed step*Width+point and shared by
	// consecutive runs of one graph: read only.
	deps       [][]int
	dependents [][]int
	remaining  []atomic.Int32
	// done marks task bodies claimed here; the CAS makes execution
	// exactly-once even when the recovery heal re-spawns a task racing
	// its regular dataflow trigger. finished marks the ones whose body,
	// sends included, has completed.
	done     []atomic.Bool
	finished []atomic.Bool
	executed atomic.Int64
	payload  []byte

	// complete counts down the tasks of hosted-owned points; it opens when
	// the last one has run. Once a re-home moves a point into or out of
	// this process (scan), the count no longer describes this process's
	// share: it stops, and the recovery watchdog opens the latch when its
	// scan finds every hosted-owned task finished.
	complete *lco.Latch
	scan     atomic.Bool

	crash      *CrashSpec // nil outside RunWithCrash
	crashFired atomic.Bool

	failed   chan struct{} // closed by fail
	failOnce sync.Once
	err      error         // why the run failed; nil for a down locality. Read after failed closes.
	ended    chan struct{} // closed when Run returns
	// watching starts the recovery watchdog, or, once Run has returned,
	// rules it out; watched is closed when either has happened and the
	// watchdog, if any, has exited.
	watching sync.Once
	watched  chan struct{}
}

// fail marks the run failed: with err nil cleanly (a locality went down
// and no recovery policy is active, or recovery has nobody left to run
// the work), otherwise with err (a protocol violation). The first call wins.
func (ru *run) fail(err error) {
	ru.failOnce.Do(func() {
		ru.err = err
		close(ru.failed)
	})
}

// New registers the input action as a direct action, subscribes the bench
// to the runtime's peer events and returns the bench.
func New(rt *runtime.Runtime, opts Options) (*Bench, error) {
	b := &Bench{rt: rt, action: opts.ActionName, timeout: opts.Timeout, recover: opts.Recover}
	if b.action == "" {
		b.action = Action
	}
	if b.timeout <= 0 {
		b.timeout = defaultTimeout
	}
	if err := rt.RegisterDirectAction(b.action, b.inputAction); err != nil {
		return nil, err
	}
	rt.SubscribePeer(func(ev runtime.PeerEvent) {
		if ev.Kind != runtime.PeerDown {
			return
		}
		if ru := b.cur.Load(); ru != nil {
			b.down(ru)
		}
	})
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
	// Tasks is the number of task bodies executed by this process (equal
	// to Graph.TotalTasks() when every locality is hosted).
	Tasks int64
	// NetworkOverhead is the Eq. 4 metric over the run, and
	// TaskOverheadUS the Eq. 2 metric.
	NetworkOverhead float64
	TaskOverheadUS  float64
	// MessagesSent and ParcelsSent are the port-level deltas across all
	// hosted localities: how much coalesced wire traffic the run generated.
	MessagesSent, ParcelsSent int64
}

// Run executes one graph to completion and returns its measurements.
// It returns once every task owned by a hosted locality has run. If a
// locality goes down during the run (or is down when it starts), the
// run fails with network.ErrLocalityDown unless Options.Recover is set.
// Without it, an input delivered twice fails the run too, naming the
// task. Runs are serialized; concurrent calls block.
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
	defer func() {
		b.cur.Store(nil)
		close(ru.ended)
		ru.watching.Do(func() { close(ru.watched) })
		<-ru.watched
	}()
	for i := 0; i < b.rt.Localities(); i++ {
		if b.rt.LocalityDead(i) {
			b.down(ru)
			break
		}
	}

	portBefore := b.portStats()
	before := metrics.Snapshot(b.rt)
	start := time.Now()

	// Seed every hosted zero-dependency task: all of step 0, plus any
	// later task whose pattern gives it no inputs (Trivial everywhere,
	// Random points that drew no edges). Every other process seeds its
	// own partition, and dataflow triggers everything else.
	w := g.Width
	for s := 0; s < g.Steps; s++ {
		for p := 0; p < w; p++ {
			loc := int(ru.owners[p].Load())
			if len(ru.deps[s*w+p]) != 0 || !b.rt.Hosted(loc) {
				continue
			}
			if !b.spawn(ru, s, p, loc) {
				return Result{}, runtime.ErrStopped
			}
		}
	}

	tmr := time.NewTimer(b.timeout)
	defer tmr.Stop()
	select {
	case <-ru.complete.Done():
	case <-ru.failed:
		if ru.err == nil {
			return Result{}, fmt.Errorf("taskbench: %s failed cleanly: %w (declared down: %s; %d tasks executed here)",
				g, network.ErrLocalityDown, b.deadList(), ru.executed.Load())
		}
	case <-tmr.C:
		return Result{}, fmt.Errorf("taskbench: %s stalled at step %d with %d tasks executed here",
			g, b.firstUndone(ru), ru.executed.Load())
	}
	// A surplus input can make a task run early, before its last genuine
	// input, so the latch may open with the violation already recorded.
	select {
	case <-ru.failed:
		if ru.err != nil {
			return Result{}, fmt.Errorf("taskbench: %s failed: %w", g, ru.err)
		}
	default:
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

// prepare builds the per-run state for a graph, and its dependence
// tables unless the previous run's graph was the same. The caller holds
// b.mu.
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
		finished:   make([]atomic.Bool, w*g.Steps),
		payload:    make([]byte, g.OutputBytes),
		failed:     make(chan struct{}),
		ended:      make(chan struct{}),
		watched:    make(chan struct{}),
	}
	hosted := 0
	for p := 0; p < w; p++ {
		loc := p * L / w
		ru.owners[p].Store(int32(loc))
		if b.rt.Hosted(loc) {
			hosted++
		}
	}
	ru.complete = lco.NewLatch(hosted * g.Steps)
	for i := range ru.payload {
		ru.payload[i] = byte(i)
	}
	for s := 0; s < g.Steps; s++ {
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

// inputAction receives one dependence output for (step, point). It is a
// direct action: it runs in the receiving port's background work, so it
// only counts the input down, and the last input spawns the task.
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

// applyInput counts one dependence input down for (step, point), owned
// by locality loc. The last input spawns the task, so dataflow never
// recurses into later steps and a task body never runs inside background
// work. A surplus input fails the run.
func (b *Bench) applyInput(ru *run, step, point, loc int) error {
	w := ru.g.Width
	if step < 0 || step >= ru.g.Steps || point < 0 || point >= w {
		return fmt.Errorf("taskbench: input for (%d,%d) outside %s", step, point, ru.g)
	}
	switch n := ru.remaining[step*w+point].Add(-1); {
	case n == 0:
		b.spawn(ru, step, point, loc)
	case n < 0 && !b.recover:
		// With Recover, re-drives re-send inputs and heal re-spawns tasks,
		// so a late trigger for an already-run task is expected
		// at-least-once noise. Without it, an input arrived twice.
		err := fmt.Errorf("surplus input for task (%d,%d)", step, point)
		ru.fail(err)
		return err
	}
	return nil
}

// spawn queues task (step, point) on locality loc, reporting false once
// the runtime has stopped.
func (b *Bench) spawn(ru *run, step, point, loc int) bool {
	return b.rt.Locality(loc).Spawn(func() { b.runTask(ru, step, point, loc) })
}

// runTask executes the task body at (step, point) on locality loc: spin
// the configured grain, send its output to every dependent in the next
// step, and count the task off the run.
func (b *Bench) runTask(ru *run, step, point, loc int) {
	// Inject the crash the first time any task of the target step starts:
	// deterministic in graph progress, not wall time.
	if c := ru.crash; c != nil && step >= c.AtStep && ru.crashFired.CompareAndSwap(false, true) {
		c.Plan.Crash(c.Locality)
		b.rt.CrashLocality(c.Locality)
	}
	// A crashed or down locality executes nothing more. Its tasks stay
	// not-done for the survivors to re-run after the re-home — this models
	// the scheduler state lost with the node.
	if b.rt.LocalityCrashed(loc) {
		return
	}
	idx := step*ru.g.Width + point
	if !ru.done[idx].CompareAndSwap(false, true) {
		return // already executed (a heal re-spawn raced the dataflow path)
	}
	if grind(ru.g.Iterations) < 0 {
		panic("taskbench: grind underflow") // unreachable; pins the spin loop
	}
	b.send(ru, b.rt.Locality(loc), step, point, nil)
	ru.executed.Add(1)
	ru.finished[idx].Store(true)
	if b.rt.Hosted(int(ru.owners[point].Load())) && !ru.scan.Load() {
		ru.complete.CountDown(1)
	}
}

// send writes task (step, point)'s output to each of its dependents in
// the next step — only to those marked in only, when only is non-nil —
// from locality src. A dependent on src itself is counted down in place;
// any other gets an input parcel. A failed send skips no other
// dependent: the loss surfaces as a stall, a failed run, or a recovery
// re-send.
func (b *Bench) send(ru *run, src *runtime.Locality, step, point int, only []bool) {
	if step+1 >= ru.g.Steps {
		return
	}
	for _, q := range ru.dependents[step*ru.g.Width+point] {
		if only != nil && !only[q] {
			continue
		}
		dst := int(ru.owners[q].Load())
		if dst == src.ID() && !b.rt.LocalityDead(dst) {
			// An ended run takes no more inputs, as its parcels' epoch
			// check drops them; a dead destination gets none, as Apply
			// refuses it.
			if b.cur.Load() == ru {
				_ = b.applyInput(ru, step+1, q, dst)
			}
			continue
		}
		wr := serialization.NewWriter(24 + len(ru.payload))
		wr.Uvarint(ru.epoch)
		wr.Uvarint(uint64(step + 1))
		wr.Uvarint(uint64(q))
		wr.BytesField(ru.payload)
		_ = src.Apply(dst, b.action, wr.Bytes())
	}
}

// firstUndone returns the lowest step holding a task of a hosted-owned
// point that has not run here, or -1 when every such task has.
func (b *Bench) firstUndone(ru *run) int {
	w := ru.g.Width
	for s := 0; s < ru.g.Steps; s++ {
		for p := 0; p < w; p++ {
			if !ru.done[s*w+p].Load() && b.rt.Hosted(int(ru.owners[p].Load())) {
				return s
			}
		}
	}
	return -1
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
