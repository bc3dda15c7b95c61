package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/agas"
	"repro/internal/counters"
	"repro/internal/lco"
	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/serialization"
	"repro/internal/trace"
)

// Locality is the abstraction for one physical node: a scheduler, a
// parcel port, an AGAS resolution cache, a performance-counter registry
// and the continuation table connecting returning result parcels to the
// futures that await them.
type Locality struct {
	id       int
	rt       *Runtime
	hosted   bool
	registry *counters.Registry
	cache    *agas.Cache
	port     *parcel.Port
	sched    *scheduler
	rootGID  agas.GID

	contMu sync.Mutex
	conts  map[agas.GID]*pendingCont

	components *componentTable

	// ctxs[s] is the Context of every action this locality runs for
	// source locality s, built once (see context).
	ctxs []Context

	actionErrors  *counters.Raw
	forwarded     *counters.Raw
	contsPoisoned *counters.Raw
	contsRetried  *counters.Raw
}

// pendingCont is one outstanding remote invocation: the promise its
// future reads, plus enough of the original parcel (destination, action,
// argument pack) to poison or re-issue it if the destination dies.
type pendingCont struct {
	prom   *lco.Promise[[]byte]
	dest   int
	action string
	args   []byte
}

func newLocality(rt *Runtime, id int, hosted bool) *Locality {
	l := &Locality{
		id:         id,
		rt:         rt,
		hosted:     hosted,
		registry:   counters.NewRegistry(),
		conts:      make(map[agas.GID]*pendingCont),
		components: newComponentTable(),
	}
	l.cache = agas.NewCache(rt.agas, id)
	// The root GID is allocated for hosted and stub localities alike: it
	// is each locality's FIRST allocation, so every process in a cluster
	// computes the same deterministic MakeGID(id, 1) for every peer —
	// the address parcels travel to without a shared directory.
	l.rootGID = rt.agas.MustAllocate(id)
	if !hosted {
		// A stub locality routes (rootGID above) but runs nothing: no
		// port (its process owns the fabric handler), no scheduler, no
		// counters to aggregate.
		return l
	}
	// The scheduler exists before the port so the port's Wake hook can be
	// fixed at construction (the fabric may deliver from the moment
	// NewPort installs its handler); the scheduler gets the port as its
	// background-work source before any worker starts.
	l.sched = newScheduler(schedConfig{
		locality:     id,
		workers:      rt.cfg.WorkersPerLocality,
		fallbackPark: rt.cfg.fallbackPark,
		taskOverhead: rt.cfg.TaskOverhead,
		registry:     l.registry,
		runParcel:    l.runParcel,
	}, nil)
	l.port = parcel.NewPort(parcel.Config{
		Locality: id,
		Fabric:   rt.fabric,
		Resolve:  l.cache.Resolve,
		Deliver:  l.deliverParcel,
		Registry: l.registry,
		Trace:    rt.cfg.Trace,
		Wake:     l.sched.maybeWake,
	})
	l.sched.bg = l.port
	l.ctxs = make([]Context, rt.cfg.Localities)
	for src := range l.ctxs {
		l.ctxs[src] = Context{Runtime: rt, Locality: id, Source: src}
	}
	l.actionErrors = counters.NewRaw(counters.Path{
		Object: "runtime", Instance: fmt.Sprintf("locality#%d", id), Name: "count/action-errors",
	})
	l.registry.MustRegister(l.actionErrors)
	l.forwarded = counters.NewRaw(counters.Path{
		Object: "parcels", Instance: fmt.Sprintf("locality#%d", id), Name: "count/forwarded",
	})
	l.registry.MustRegister(l.forwarded)
	l.contsPoisoned = counters.NewRaw(counters.Path{
		Object: "runtime", Instance: fmt.Sprintf("locality#%d", id), Name: "count/conts-poisoned",
	})
	l.registry.MustRegister(l.contsPoisoned)
	l.contsRetried = counters.NewRaw(counters.Path{
		Object: "runtime", Instance: fmt.Sprintf("locality#%d", id), Name: "count/conts-retried",
	})
	l.registry.MustRegister(l.contsRetried)
	rt.root.Attach(l.registry)
	return l
}

func (l *Locality) start() {
	if l.hosted {
		l.sched.start()
	}
}

func (l *Locality) stop() {
	if l.hosted {
		l.port.Close()
		l.sched.stop()
	}
}

// ID returns the locality id.
func (l *Locality) ID() int { return l.id }

// Registry returns the locality's counter registry.
func (l *Locality) Registry() *counters.Registry { return l.registry }

// Port returns the locality's parcel port.
func (l *Locality) Port() *parcel.Port { return l.port }

// SchedStats returns the locality's scheduler instrumentation snapshot
// (zero for a non-hosted stub).
func (l *Locality) SchedStats() SchedStats {
	if !l.hosted {
		return SchedStats{}
	}
	s := l.sched.stats()
	return SchedStats(s)
}

// SchedStats is the public snapshot of a locality scheduler's Section III
// counters.
type SchedStats schedStats

// Spawn schedules fn as a local lightweight task. Spawning on a
// non-hosted stub reports failure (there is no scheduler here).
func (l *Locality) Spawn(fn func()) bool { return l.hosted && l.sched.spawn(fn) }

// pendingContinuations returns the number of futures still awaiting
// result parcels.
func (l *Locality) pendingContinuations() int {
	l.contMu.Lock()
	defer l.contMu.Unlock()
	return len(l.conts)
}

// context returns the Context of an action run here for source src: the
// shared one built in newLocality, or a fresh one for a wire Source out
// of range.
func (l *Locality) context(src int) *Context {
	if src >= 0 && src < len(l.ctxs) {
		return &l.ctxs[src]
	}
	return &Context{Runtime: l.rt, Locality: l.id, Source: src}
}

// outParcel returns a pooled outbound parcel (parcel.Get) from this
// locality; the port recycles it once its message is encoded.
func (l *Locality) outParcel(dest agas.GID, destLoc int, action string, args []byte, cont agas.GID) *parcel.Parcel {
	p := parcel.Get()
	p.Dest = dest
	p.DestLocality = destLoc
	p.Action = action
	p.Args = args
	p.Continuation = cont
	p.Source = l.id
	return p
}

// Async invokes action on the destination locality and returns a future
// for the serialized result — the analog of hpx::async(act, other) in the
// paper's Listing 1. Invocations on the local locality run as local tasks
// without touching the parcel layer, as in HPX.
//
// args belongs to the caller, and Async reads it without copying. For a
// remote destination it is read until the parcel's message is encoded,
// which happens on a worker some time after Async returns; for the local
// locality, until the action returns. The caller must not write to args
// before then. A continuation retry after a crash (DeclareDown) sends
// args again, so a caller that wants that must leave it alone until the
// future resolves.
func (l *Locality) Async(dest int, action string, args []byte) (*lco.Future[[]byte], error) {
	prom := lco.NewPromise[[]byte]()
	if !l.hosted {
		return nil, fmt.Errorf("runtime: locality %d is not hosted in this process", l.id)
	}
	if dest < 0 || dest >= len(l.rt.locs) {
		return nil, fmt.Errorf("runtime: destination locality %d out of range", dest)
	}
	if l.rt.LocalityDead(dest) {
		return nil, fmt.Errorf("runtime: %w: locality %d", network.ErrLocalityDown, dest)
	}
	if dest == l.id {
		fn := l.rt.lookupAction(action).fn
		if fn == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAction, action)
		}
		if !l.sched.spawn(func() {
			res, err := fn(l.context(l.id), args)
			if err != nil {
				_ = prom.SetError(err)
				return
			}
			_ = prom.SetValue(res)
		}) {
			return nil, ErrStopped
		}
		return prom.Future(), nil
	}

	contGID := l.rt.agas.MustAllocate(l.id)
	l.contMu.Lock()
	l.conts[contGID] = &pendingCont{prom: prom, dest: dest, action: action, args: args}
	l.contMu.Unlock()

	if err := l.port.Put(l.outParcel(l.rt.locs[dest].rootGID, dest, action, args, contGID)); err != nil {
		l.dropContinuation(contGID)
		return nil, err
	}
	return prom.Future(), nil
}

// Apply invokes action on the destination locality with fire-and-forget
// semantics: no continuation parcel travels back.
//
// args belongs to the caller, and Apply reads it without copying: for a
// remote destination until the parcel's message is encoded, on a worker
// some time after Apply returns; for the local locality, until the action
// returns. The caller must not write to args before then. An action that
// has run has had its message encoded, so once it has, args is free.
func (l *Locality) Apply(dest int, action string, args []byte) error {
	if !l.hosted {
		return fmt.Errorf("runtime: locality %d is not hosted in this process", l.id)
	}
	if dest < 0 || dest >= len(l.rt.locs) {
		return fmt.Errorf("runtime: destination locality %d out of range", dest)
	}
	if l.rt.LocalityDead(dest) {
		return fmt.Errorf("runtime: %w: locality %d", network.ErrLocalityDown, dest)
	}
	if dest == l.id {
		fn := l.rt.lookupAction(action).fn
		if fn == nil {
			return fmt.Errorf("%w: %q", ErrUnknownAction, action)
		}
		if !l.sched.spawn(func() {
			if _, err := fn(l.context(l.id), args); err != nil {
				l.actionErrors.Inc()
			}
		}) {
			return ErrStopped
		}
		return nil
	}
	return l.port.Put(l.outParcel(l.rt.locs[dest].rootGID, dest, action, args, agas.Invalid))
}

func (l *Locality) dropContinuation(g agas.GID) {
	l.contMu.Lock()
	delete(l.conts, g)
	l.contMu.Unlock()
	l.rt.agas.Free(g)
}

// deliverParcel converts a received parcel into a task (the parcel
// subsystem's receive side: "the parcel is then converted into a HPX
// thread and placed in the scheduler queue for execution"). The task is
// the parcel itself with its resolved action, run by runParcel; a parcel
// whose task cannot be spawned is released on the spot. A direct action
// is the exception: it runs here, inline in the port's delivery loop, on
// the worker doing background work (see RegisterDirectAction).
func (l *Locality) deliverParcel(p *parcel.Parcel) {
	var fn ActionFunc
	if !hasPrefix(p.Action, setValuePrefix) && !hasPrefix(p.Action, componentActionPrefix) {
		a := l.rt.lookupAction(p.Action)
		if a.direct {
			l.runParcel(p, a.fn)
			return
		}
		fn = a.fn
	}
	if !l.sched.spawnParcel(p, fn) {
		p.Release()
	}
}

// hasPrefix reports whether an action name carries a system prefix and
// something after it.
func hasPrefix(action, prefix string) bool {
	return len(action) > len(prefix) && action[:len(prefix)] == prefix
}

// runParcel is the body of a received parcel's task, or of a direct
// action in the delivery loop: it dispatches the parcel by kind, then
// Releases it. fn is the parcel's action as deliverParcel resolved it,
// nil for a system parcel or an unknown action. Received parcels are
// borrowed: their Action/Args alias the pooled wire payload (see
// parcel/borrow.go), so action bodies must not retain args past their own
// return, and the paths that do retain the parcel (forwardParcel's
// migration machinery) Detach it first, turning the Release into a no-op.
func (l *Locality) runParcel(p *parcel.Parcel, fn ActionFunc) {
	switch {
	case fn != nil:
		l.executeAction(p, fn)
	case hasPrefix(p.Action, setValuePrefix):
		l.completeContinuation(p)
	case hasPrefix(p.Action, componentActionPrefix):
		l.executeComponentAction(p)
	default:
		l.executeAction(p, nil)
	}
	p.Release()
}

// executeAction runs a request parcel's action fn (nil: unknown) and, if
// a continuation is attached, sends the result back as a set-value parcel
// for the response action — which is coalesced whenever the request
// action is.
func (l *Locality) executeAction(p *parcel.Parcel, fn ActionFunc) {
	var res []byte
	var err error
	start := time.Now()
	if fn == nil {
		err = fmt.Errorf("%w: %q", ErrUnknownAction, p.Action)
	} else {
		res, err = fn(l.context(p.Source), p.Args)
	}
	if l.rt.cfg.Trace != nil {
		// The trace ring buffer retains the span name past the parcel's
		// Release, so a borrowed Action must be cloned out of the wire
		// buffer first. Owned parcels skip the copy.
		name := p.Action
		if p.Borrowed() {
			name = strings.Clone(p.Action)
		}
		l.rt.cfg.Trace.RecordSpan(trace.KindTask, name, l.id, start, int64(len(p.Args)))
	}
	if err != nil {
		l.actionErrors.Inc()
	}
	if !p.Continuation.Valid() {
		return
	}
	// DestLocality -1: resolved through AGAS, continuations live where
	// they were allocated.
	resp := l.outParcel(p.Continuation, -1, ResponseAction(p.Action), encodeResult(res, err), agas.Invalid)
	if perr := l.port.Put(resp); perr != nil {
		l.actionErrors.Inc()
	}
}

// completeContinuation fulfils the promise a result parcel addresses.
func (l *Locality) completeContinuation(p *parcel.Parcel) {
	l.contMu.Lock()
	pc, ok := l.conts[p.Dest]
	delete(l.conts, p.Dest)
	l.contMu.Unlock()
	if !ok {
		l.actionErrors.Inc()
		return
	}
	l.rt.agas.Free(p.Dest)
	res, err := decodeResult(p.Args)
	if err != nil {
		_ = pc.prom.SetError(err)
		return
	}
	_ = pc.prom.SetValue(res)
}

// Result parcels carry a status byte followed by either the result bytes
// or an error string.
const (
	resultOK  = 0
	resultErr = 1
)

func encodeResult(res []byte, err error) []byte {
	// The encoding is built in a pooled writer and copied out at exact
	// size: the copy must own its memory (it becomes the result parcel's
	// Args), but the writer's scratch buffer is recycled across the many
	// result parcels a run produces.
	w := serialization.GetWriter()
	defer serialization.PutWriter(w)
	if err != nil {
		w.U8(resultErr)
		w.String(err.Error())
	} else {
		w.U8(resultOK)
		w.BytesField(res)
	}
	return append(make([]byte, 0, w.Len()), w.Bytes()...)
}

func decodeResult(data []byte) ([]byte, error) {
	r := serialization.NewReader(data)
	switch status := r.U8(); status {
	case resultOK:
		res := r.BytesField()
		if r.Err() != nil {
			return nil, fmt.Errorf("runtime: corrupt result parcel: %w", r.Err())
		}
		return res, nil
	case resultErr:
		msg := r.String()
		if r.Err() != nil {
			return nil, fmt.Errorf("runtime: corrupt error parcel: %w", r.Err())
		}
		return nil, errors.New(msg)
	default:
		return nil, fmt.Errorf("runtime: corrupt result parcel: status %d", status)
	}
}
