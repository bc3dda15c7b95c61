// Package runtime implements GPX, the task-based runtime system this
// reproduction builds in place of HPX: localities hosting lightweight-task
// schedulers, an action registry, asynchronous remote invocation through
// the parcel subsystem, per-action parcel coalescing, and the performance
// counter framework wired through every layer.
//
// A Runtime hosts several localities (the abstraction for a physical
// node) inside one process, connected by a network fabric with an
// explicit cost model (see internal/network). Applications register
// actions, then invoke them remotely with Async — each invocation creates
// a parcel carrying the action, its serialized arguments, and a
// continuation GID; the parcel is (optionally) coalesced with others of
// the same action, transmitted, and turned into a task at the
// destination, whose result travels back as a set-value parcel that
// fulfils the caller's future. This is the full path of the paper's
// Listing 1.
package runtime

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/coalescing"
	"repro/internal/counters"
	"repro/internal/health"
	"repro/internal/network"
	"repro/internal/timer"
	"repro/internal/trace"
)

// ActionFunc is the body of an action: it receives the execution context
// and the serialized argument pack and returns a serialized result.
type ActionFunc func(ctx *Context, args []byte) ([]byte, error)

// Context is passed to every executing action.
type Context struct {
	// Runtime is the hosting runtime.
	Runtime *Runtime
	// Locality is the id of the locality executing the action.
	Locality int
	// Source is the locality that sent the invocation.
	Source int
}

// setValuePrefix marks system parcels that deliver a result to a
// continuation promise. The suffix is the original action name, so
// responses can be coalesced with per-action policies just like requests.
const setValuePrefix = "runtime/set_value@"

// ResponseAction returns the internal action name carrying responses of
// the given action; enabling coalescing for an action also installs a
// coalescer for its response action (both directions of Listing 1's
// million-message exchange are fine-grained traffic).
func ResponseAction(action string) string { return setValuePrefix + action }

// Config configures a Runtime.
type Config struct {
	// Localities is the number of simulated nodes (default 2).
	Localities int
	// WorkersPerLocality sizes each locality's scheduler pool (default 4).
	WorkersPerLocality int
	// CostModel parameterizes the simulated fabric. A zero model selects
	// network.DefaultCostModel. Ignored when Fabric is set.
	CostModel network.CostModel
	// Fabric overrides the transport (e.g. a TCP fabric); nil selects a
	// SimFabric with CostModel.
	Fabric network.Fabric
	// TaskQueueSize bounds each locality's runnable-task queue
	// (default 65536).
	TaskQueueSize int
	// BackgroundBatch is how many background work units a worker performs
	// per idle visit (default 8).
	BackgroundBatch int
	// TaskOverhead is the modeled per-task thread-management cost (HPX
	// lightweight threads cost roughly 1–2 µs to set up, switch to and
	// tear down; Go closures cost nanoseconds, so the difference is spent
	// explicitly). It is included in Eq. 1 task duration and reported by
	// the Eq. 2 task-overhead counter. Default 2 µs; negative disables.
	TaskOverhead time.Duration
	// Trace optionally records runtime events (task execution, message
	// transmission, coalescing flushes) into a bounded ring buffer for
	// Chrome-trace export; nil disables all probes.
	Trace *trace.Buffer
	// Health configures phi-accrual failure detection. Disabled by
	// default (Health.Enabled false): no monitors run, no heartbeats are
	// sent, and the runtime behaves exactly as before the health
	// subsystem existed. When enabled, each locality watches every peer
	// and a detected crash triggers DeclareDown.
	Health health.Config
	// Hosted lists the locality ids this process actually runs (cluster
	// mode: one process per locality, each over a network.TCPFabric that
	// hosts the same ids — network.NewPeerFabric). nil hosts every
	// locality, the in-process default. Non-hosted localities exist only
	// as routing stubs — deterministic root GIDs, no scheduler, port or
	// monitor — and AGAS switches to static routing so GIDs allocated by
	// other processes resolve to their encoded home locality.
	Hosted []int

	// fallbackPark overrides the schedulers' fallback park bound; tests
	// stretch it to prove nothing waits on that timer.
	fallbackPark time.Duration
}

func (c Config) withDefaults() Config {
	if c.Localities <= 0 {
		c.Localities = 2
	}
	if c.WorkersPerLocality <= 0 {
		c.WorkersPerLocality = 4
	}
	zero := network.CostModel{}
	if c.Fabric == nil && c.CostModel == zero {
		c.CostModel = network.DefaultCostModel()
	}
	if c.TaskOverhead == 0 {
		c.TaskOverhead = 2 * time.Microsecond
	}
	if c.TaskOverhead < 0 {
		c.TaskOverhead = 0
	}
	return c
}

// Runtime is a multi-locality GPX instance.
type Runtime struct {
	cfg     Config
	fabric  network.Fabric
	ownsFab bool
	agas    *agas.Service
	timers  *timer.Service
	locs    []*Locality
	root    *counters.Registry

	actionsMu        sync.RWMutex
	actions          map[string]ActionFunc
	componentActions map[string]ComponentActionFunc
	componentTypes   map[string]ComponentFactory

	coalMu     sync.Mutex
	coalescers map[string][]*coalescing.Coalescer // action -> per-locality (incl. response)

	// Crash-stop state. monitors is nil unless cfg.Health.Enabled. dead
	// marks localities declared down (DeclareDown); silenced marks
	// localities whose own monitor has been muted (a superset of dead:
	// the crash injector silences a locality the instant its wire dies,
	// before any survivor detects it).
	monitors []*health.Monitor
	dead     []atomic.Bool
	silenced []atomic.Bool

	deathMu     sync.Mutex
	deathSubs   []func(peer int)
	upSubs      []func(peer int)
	suspSubs    []func(observer, peer int, suspected bool)
	verdictSubs []func(observer, peer int)

	retryMu   sync.Mutex
	retryable map[string]bool

	extMu sync.Mutex
	ext   map[string]any

	stopped bool
	stopMu  sync.Mutex
}

// ErrUnknownAction reports invocation of an unregistered action.
var ErrUnknownAction = errors.New("runtime: unknown action")

// ErrStopped reports use of a stopped runtime.
var ErrStopped = errors.New("runtime: stopped")

// New creates and starts a runtime.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:              cfg,
		agas:             agas.NewService(cfg.Localities),
		timers:           timer.NewService(timer.ServiceOptions{}),
		root:             counters.NewRegistry(),
		actions:          make(map[string]ActionFunc),
		componentActions: make(map[string]ComponentActionFunc),
		componentTypes:   make(map[string]ComponentFactory),
		coalescers:       make(map[string][]*coalescing.Coalescer),
	}
	rt.actions[migrateAction] = handleMigrate
	rt.actions[heartbeatAction] = handleHeartbeat
	if cfg.Fabric != nil {
		rt.fabric = cfg.Fabric
	} else {
		rt.fabric = network.NewSimFabric(cfg.Localities, cfg.CostModel)
		rt.ownsFab = true
	}
	rt.registerFabricCounters()
	rt.registerTimerCounters()
	rt.dead = make([]atomic.Bool, cfg.Localities)
	rt.silenced = make([]atomic.Bool, cfg.Localities)
	hosted := make([]bool, cfg.Localities)
	if cfg.Hosted == nil {
		for i := range hosted {
			hosted[i] = true
		}
	} else {
		for _, id := range cfg.Hosted {
			if id < 0 || id >= cfg.Localities {
				panic(fmt.Sprintf("runtime: hosted locality %d outside [0,%d)", id, cfg.Localities))
			}
			hosted[id] = true
		}
		// Cluster mode: this process's directory only ever learns about
		// GIDs allocated here, so remote GIDs must route by their encoded
		// allocation home.
		rt.agas.EnableStaticRouting()
	}
	rt.locs = make([]*Locality, cfg.Localities)
	for i := 0; i < cfg.Localities; i++ {
		rt.locs[i] = newLocality(rt, i, hosted[i])
	}
	for _, l := range rt.locs {
		l.start()
	}
	if cfg.Health.Enabled {
		rt.startHealth()
	}
	return rt
}

// Localities returns the number of localities.
func (rt *Runtime) Localities() int { return len(rt.locs) }

// Locality returns locality i.
func (rt *Runtime) Locality(i int) *Locality { return rt.locs[i] }

// Hosted reports whether locality i runs in this process. Always true
// outside cluster mode (Config.Hosted nil).
func (rt *Runtime) Hosted(i int) bool {
	return i >= 0 && i < len(rt.locs) && rt.locs[i].hosted
}

// Counters returns the root registry aggregating every locality's
// counters.
func (rt *Runtime) Counters() *counters.Registry { return rt.root }

// Extension returns the per-runtime extension value stored under key,
// creating it with mk on first use. Subsystems layered on top of the
// runtime (collectives, say) keep their per-runtime state here instead
// of in package-level maps keyed by *Runtime, so the state is garbage-
// collected with the runtime rather than leaking one entry per runtime
// ever created.
func (rt *Runtime) Extension(key string, mk func() any) any {
	rt.extMu.Lock()
	defer rt.extMu.Unlock()
	if rt.ext == nil {
		rt.ext = make(map[string]any)
	}
	v, ok := rt.ext[key]
	if !ok {
		v = mk()
		rt.ext[key] = v
	}
	return v
}

// AGAS returns the address-space service.
func (rt *Runtime) AGAS() *agas.Service { return rt.agas }

// Timers returns the runtime's shared deadline-timer service.
func (rt *Runtime) Timers() *timer.Service { return rt.timers }

// Fabric returns the underlying transport.
func (rt *Runtime) Fabric() network.Fabric { return rt.fabric }

// RegisterAction binds a name to an action body on every locality (all
// localities share the binary, as with HPX_PLAIN_ACTION).
func (rt *Runtime) RegisterAction(name string, fn ActionFunc) error {
	if name == "" || fn == nil {
		return errors.New("runtime: action needs a name and a body")
	}
	if strings.HasPrefix(name, setValuePrefix) {
		return fmt.Errorf("runtime: action name %q uses the reserved response prefix", name)
	}
	rt.actionsMu.Lock()
	defer rt.actionsMu.Unlock()
	if _, dup := rt.actions[name]; dup {
		return fmt.Errorf("runtime: action %q already registered", name)
	}
	rt.actions[name] = fn
	return nil
}

// MustRegisterAction registers an action, panicking on error.
func (rt *Runtime) MustRegisterAction(name string, fn ActionFunc) {
	if err := rt.RegisterAction(name, fn); err != nil {
		panic(err)
	}
}

func (rt *Runtime) lookupAction(name string) ActionFunc {
	rt.actionsMu.RLock()
	defer rt.actionsMu.RUnlock()
	return rt.actions[name]
}

// Actions returns the sorted names of all registered user actions;
// runtime-internal actions (the "runtime/" namespace) are omitted.
func (rt *Runtime) Actions() []string {
	rt.actionsMu.RLock()
	defer rt.actionsMu.RUnlock()
	out := make([]string, 0, len(rt.actions))
	for name := range rt.actions {
		if strings.HasPrefix(name, "runtime/") {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// EnableCoalescing installs parcel coalescing for an action on every
// locality — the analog of the paper's
// HPX_ACTION_USES_MESSAGE_COALESCING(action) annotation. Response parcels
// of the action are coalesced with the same parameters. It fails if
// coalescing is already enabled for the action.
func (rt *Runtime) EnableCoalescing(action string, params coalescing.Params) error {
	rt.coalMu.Lock()
	defer rt.coalMu.Unlock()
	if _, dup := rt.coalescers[action]; dup {
		return fmt.Errorf("runtime: coalescing already enabled for %q", action)
	}
	var cs []*coalescing.Coalescer
	for _, l := range rt.locs {
		if !l.hosted {
			continue
		}
		for _, name := range []string{action, ResponseAction(action)} {
			c := coalescing.New(l.port, params, coalescing.Options{
				Locality:     l.id,
				Action:       name,
				Registry:     l.registry,
				TimerService: rt.timers,
				Trace:        rt.cfg.Trace,
			})
			l.port.SetMessageHandler(name, c)
			rt.registerDestCounters(l, name, c)
			cs = append(cs, c)
		}
	}
	rt.coalescers[action] = cs
	return nil
}

// registerDestCounters exposes one coalescer's per-destination records
// in the counter tree as /coalescing{locality#L}/dest/<d>/count/*@action
// — the adaptive controller's inputs, observable like everything else.
// Destinations are locality ids, so the set is known up front; the
// counters are derived, reading the coalescer's shard-guarded records on
// demand.
func (rt *Runtime) registerDestCounters(l *Locality, action string, c *coalescing.Coalescer) {
	inst := fmt.Sprintf("locality#%d", l.id)
	for d := 0; d < len(rt.locs); d++ {
		d := d
		for _, f := range []struct {
			name string
			read func(coalescing.DestStats) float64
		}{
			{"queued", func(s coalescing.DestStats) float64 { return float64(s.Queued) }},
			{"flushed-full", func(s coalescing.DestStats) float64 { return float64(s.FlushedFull) }},
			{"flushed-timer", func(s coalescing.DestStats) float64 { return float64(s.FlushedTimer) }},
			{"flushed-bytes", func(s coalescing.DestStats) float64 { return float64(s.FlushedBytes) }},
			{"flushed-idle", func(s coalescing.DestStats) float64 { return float64(s.FlushedIdle) }},
			{"bypass", func(s coalescing.DestStats) float64 { return float64(s.Bypass) }},
			{"direct", func(s coalescing.DestStats) float64 { return float64(s.Direct) }},
		} {
			read := f.read
			l.registry.MustRegister(counters.NewDerived(counters.Path{
				Object:     "coalescing",
				Instance:   inst,
				Name:       fmt.Sprintf("dest/%d/count/%s", d, f.name),
				Parameters: action,
			}, func() float64 { return read(c.DestStats(d)) }))
		}
	}
}

// SetCoalescingParams retunes a coalesced action at runtime on every
// locality — the knob the adaptive controller turns.
func (rt *Runtime) SetCoalescingParams(action string, params coalescing.Params) error {
	rt.coalMu.Lock()
	defer rt.coalMu.Unlock()
	cs, ok := rt.coalescers[action]
	if !ok {
		return fmt.Errorf("runtime: coalescing not enabled for %q", action)
	}
	for _, c := range cs {
		c.SetParams(params)
	}
	return nil
}

// CoalescingParams returns the action's current parameters.
func (rt *Runtime) CoalescingParams(action string) (coalescing.Params, error) {
	rt.coalMu.Lock()
	defer rt.coalMu.Unlock()
	cs, ok := rt.coalescers[action]
	if !ok || len(cs) == 0 {
		return coalescing.Params{}, fmt.Errorf("runtime: coalescing not enabled for %q", action)
	}
	return cs[0].Params(), nil
}

// SetCoalescingParamsDest installs a per-destination parameter override
// for a coalesced action on every locality (requests and responses) —
// the per-destination knob the multi-knob adaptive controller turns.
func (rt *Runtime) SetCoalescingParamsDest(action string, dst int, params coalescing.Params) error {
	rt.coalMu.Lock()
	defer rt.coalMu.Unlock()
	cs, ok := rt.coalescers[action]
	if !ok {
		return fmt.Errorf("runtime: coalescing not enabled for %q", action)
	}
	if dst < 0 || dst >= len(rt.locs) {
		return fmt.Errorf("runtime: destination %d outside [0, %d)", dst, len(rt.locs))
	}
	for _, c := range cs {
		c.SetDestParams(dst, params)
	}
	return nil
}

// ClearCoalescingParamsDest removes a destination's override, returning
// it to the action's global parameters.
func (rt *Runtime) ClearCoalescingParamsDest(action string, dst int) error {
	rt.coalMu.Lock()
	defer rt.coalMu.Unlock()
	cs, ok := rt.coalescers[action]
	if !ok {
		return fmt.Errorf("runtime: coalescing not enabled for %q", action)
	}
	for _, c := range cs {
		c.ClearDestParams(dst)
	}
	return nil
}

// CoalescingParamsDest returns the parameters in force toward one
// destination and whether they come from a per-destination override.
func (rt *Runtime) CoalescingParamsDest(action string, dst int) (coalescing.Params, bool, error) {
	rt.coalMu.Lock()
	defer rt.coalMu.Unlock()
	cs, ok := rt.coalescers[action]
	if !ok || len(cs) == 0 {
		return coalescing.Params{}, false, fmt.Errorf("runtime: coalescing not enabled for %q", action)
	}
	p, overridden := cs[0].DestParams(dst)
	return p, overridden, nil
}

// Coalescers returns the action's per-locality coalescers (requests and
// responses interleaved), for introspection by tuners and tests.
func (rt *Runtime) Coalescers(action string) []*coalescing.Coalescer {
	rt.coalMu.Lock()
	defer rt.coalMu.Unlock()
	return append([]*coalescing.Coalescer{}, rt.coalescers[action]...)
}

// FlushAllCoalescers forces every coalescing queue on every locality to
// send immediately (used at phase boundaries).
func (rt *Runtime) FlushAllCoalescers() {
	for _, l := range rt.locs {
		if l.hosted {
			l.port.FlushHandlers()
		}
	}
}

// Quiesce waits until no tasks are queued, no background work is pending
// and no parcels are in flight, or until the timeout elapses; it reports
// whether the runtime went quiet. Coalescing queues are not flushed —
// they drain through their own timers — so callers that want prompt
// quiescence should FlushAllCoalescers first.
func (rt *Runtime) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	quietRounds := 0
	for time.Now().Before(deadline) {
		busy := false
		for i, l := range rt.locs {
			// Dead localities are excluded: their pending state can never
			// drain (their wire is gone), and waiting on it would turn
			// every post-crash quiescence into a full timeout. Non-hosted
			// localities have no local state to drain at all.
			if rt.dead[i].Load() || !l.hosted {
				continue
			}
			if l.sched.pending() > 0 || l.port.PendingOutbound() > 0 || l.pendingContinuations() > 0 {
				busy = true
				break
			}
		}
		if busy {
			quietRounds = 0
			time.Sleep(200 * time.Microsecond)
			continue
		}
		quietRounds++
		if quietRounds >= 3 {
			return true
		}
		time.Sleep(500 * time.Microsecond)
	}
	return false
}

// Shutdown flushes and stops everything: coalescers, schedulers, the
// fabric (if owned) and the timer service. The runtime is unusable
// afterwards.
func (rt *Runtime) Shutdown() {
	rt.stopMu.Lock()
	if rt.stopped {
		rt.stopMu.Unlock()
		return
	}
	rt.stopped = true
	rt.stopMu.Unlock()

	// Monitors stop first: heartbeat traffic would otherwise keep the
	// quiescence loop from ever seeing an empty outbound queue.
	for _, m := range rt.monitors {
		if m != nil {
			m.Stop()
		}
	}

	// Responses generated while draining re-enter coalescing queues, so
	// alternate flushing and quiescing until the runtime settles.
	for i := 0; i < 20; i++ {
		rt.FlushAllCoalescers()
		if rt.Quiesce(100 * time.Millisecond) {
			break
		}
	}
	for _, l := range rt.locs {
		l.stop()
	}
	if rt.ownsFab {
		_ = rt.fabric.Close()
	}
	rt.timers.Stop()
}
