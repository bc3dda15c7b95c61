package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
	"repro/internal/serialization"
)

// Component is a globally addressable object hosted at a locality — the
// analog of an HPX component. Every object in HPX is assigned a Global
// Identifier that is maintained throughout the object's lifetime even if
// it is moved between nodes; component actions execute against the object
// wherever it currently lives, and the parcel subsystem routes each
// invocation through AGAS.
//
// A component that should support migration between localities must also
// implement Migratable.
type Component interface{}

// Migratable components can be serialized for migration. Encode writes
// the object's state; the registered factory reconstructs it at the
// destination.
type Migratable interface {
	// TypeName identifies the component type; a factory must be
	// registered for it with RegisterComponentType.
	TypeName() string
	// EncodeState serializes the object's state for transfer.
	EncodeState(w *serialization.Writer)
}

// ComponentFactory reconstructs a migrated component from its serialized
// state.
type ComponentFactory func(r *serialization.Reader) (Component, error)

// ComponentActionFunc is the body of a component action: it executes
// against the target object on the locality currently hosting it.
type ComponentActionFunc func(ctx *Context, target Component, args []byte) ([]byte, error)

// Errors of the component layer.
var (
	ErrUnknownComponent       = errors.New("runtime: unknown component GID")
	ErrUnknownComponentAction = errors.New("runtime: unknown component action")
	ErrNotMigratable          = errors.New("runtime: component does not implement Migratable")
	ErrUnknownComponentType   = errors.New("runtime: no factory registered for component type")
)

// componentActionPrefix namespaces component actions in the parcel
// action field so the delivery path can dispatch them to the object
// table rather than the plain-action registry.
const componentActionPrefix = "runtime/component@"

// migrateAction is the internal action that installs a migrated object at
// its new home.
const migrateAction = "runtime/migrate"

// RegisterComponentAction binds a name to a component action body.
func (rt *Runtime) RegisterComponentAction(name string, fn ComponentActionFunc) error {
	if name == "" || fn == nil {
		return errors.New("runtime: component action needs a name and a body")
	}
	rt.actionsMu.Lock()
	defer rt.actionsMu.Unlock()
	if _, dup := rt.componentActions[name]; dup {
		return fmt.Errorf("runtime: component action %q already registered", name)
	}
	rt.componentActions[name] = fn
	return nil
}

// MustRegisterComponentAction registers a component action, panicking on
// error.
func (rt *Runtime) MustRegisterComponentAction(name string, fn ComponentActionFunc) {
	if err := rt.RegisterComponentAction(name, fn); err != nil {
		panic(err)
	}
}

// RegisterComponentType binds a component type name to its migration
// factory.
func (rt *Runtime) RegisterComponentType(typeName string, factory ComponentFactory) error {
	if typeName == "" || factory == nil {
		return errors.New("runtime: component type needs a name and a factory")
	}
	rt.actionsMu.Lock()
	defer rt.actionsMu.Unlock()
	if _, dup := rt.componentTypes[typeName]; dup {
		return fmt.Errorf("runtime: component type %q already registered", typeName)
	}
	rt.componentTypes[typeName] = factory
	return nil
}

func (rt *Runtime) lookupComponentAction(name string) ComponentActionFunc {
	rt.actionsMu.RLock()
	defer rt.actionsMu.RUnlock()
	return rt.componentActions[name]
}

func (rt *Runtime) lookupComponentType(typeName string) ComponentFactory {
	rt.actionsMu.RLock()
	defer rt.actionsMu.RUnlock()
	return rt.componentTypes[typeName]
}

// componentTable holds a locality's live objects.
type componentTable struct {
	mu      sync.RWMutex
	objects map[agas.GID]Component
}

func newComponentTable() *componentTable {
	return &componentTable{objects: make(map[agas.GID]Component)}
}

func (t *componentTable) get(g agas.GID) (Component, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.objects[g]
	return c, ok
}

func (t *componentTable) put(g agas.GID, c Component) {
	t.mu.Lock()
	t.objects[g] = c
	t.mu.Unlock()
}

func (t *componentTable) remove(g agas.GID) (Component, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.objects[g]
	delete(t.objects, g)
	return c, ok
}

func (t *componentTable) size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.objects)
}

// NewComponent registers obj as a globally addressable object hosted at
// this locality and returns its GID.
func (l *Locality) NewComponent(obj Component) (agas.GID, error) {
	g, err := l.rt.agas.Allocate(l.id)
	if err != nil {
		return agas.Invalid, err
	}
	l.components.put(g, obj)
	return g, nil
}

// Component returns the local object with the given GID, if this locality
// hosts it.
func (l *Locality) Component(g agas.GID) (Component, bool) {
	return l.components.get(g)
}

// FreeComponent removes a locally hosted object and its AGAS entry.
func (l *Locality) FreeComponent(g agas.GID) bool {
	if _, ok := l.components.remove(g); !ok {
		return false
	}
	l.rt.agas.Free(g)
	return true
}

// AsyncComponent invokes a component action on the object identified by
// gid, wherever it currently lives; the result arrives via the returned
// future. If the object has migrated and this locality's AGAS cache is
// stale, the parcel is forwarded from the stale destination to the
// object's current home transparently.
func (l *Locality) AsyncComponent(gid agas.GID, action string, args []byte) (*lco.Future[[]byte], error) {
	if rt := l.rt; rt.lookupComponentAction(action) == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownComponentAction, action)
	}
	prom := lco.NewPromise[[]byte]()
	contGID := l.rt.agas.MustAllocate(l.id)
	// Record where the object lives right now so a crash of that locality
	// poisons this continuation. Migration can move the object afterwards
	// — then the response simply arrives from elsewhere, and a poisoning
	// pass that misses a moved continuation is caught by the object's new
	// host staying alive.
	dest := -1
	if loc, rerr := l.cache.Resolve(gid); rerr == nil {
		dest = loc
	}
	l.contMu.Lock()
	l.conts[contGID] = &pendingCont{prom: prom, dest: dest, action: componentActionPrefix + action, args: args}
	l.contMu.Unlock()
	p := &parcel.Parcel{
		Dest:         gid,
		DestLocality: -1, // resolve through AGAS (may be stale; forwarding fixes it)
		Action:       componentActionPrefix + action,
		Args:         args,
		Continuation: contGID,
		Source:       l.id,
	}
	if err := l.port.Put(p); err != nil {
		l.dropContinuation(contGID)
		return nil, err
	}
	return prom.Future(), nil
}

// executeComponentAction dispatches a component-action parcel. If the
// target object is not hosted here (stale AGAS routing after migration),
// the parcel is re-resolved and forwarded.
func (l *Locality) executeComponentAction(p *parcel.Parcel) {
	name := p.Action[len(componentActionPrefix):]
	obj, ok := l.components.get(p.Dest)
	if !ok {
		l.forwardParcel(p)
		return
	}
	fn := l.rt.lookupComponentAction(name)
	var res []byte
	var err error
	if fn == nil {
		err = fmt.Errorf("%w: %q", ErrUnknownComponentAction, name)
	} else {
		res, err = fn(&Context{Runtime: l.rt, Locality: l.id, Source: p.Source}, obj, p.Args)
	}
	if err != nil {
		l.actionErrors.Inc()
	}
	if !p.Continuation.Valid() {
		return
	}
	resp := &parcel.Parcel{
		Dest:         p.Continuation,
		DestLocality: -1,
		Action:       ResponseAction(p.Action),
		Args:         encodeResult(res, err),
		Source:       l.id,
	}
	if perr := l.port.Put(resp); perr != nil {
		l.actionErrors.Inc()
	}
}

// maxMigrationRetries bounds local redelivery of a parcel whose target is
// mid-migration before the caller is failed.
const maxMigrationRetries = 200

// forwardParcel re-resolves a parcel whose target is not hosted here and
// sends it onward. If the authoritative directory still points here, the
// object is mid-migration (removed from the old home, not yet installed
// at the new one); the parcel is redelivered locally after a short delay,
// the analog of HPX queueing actions while an object migrates. Objects
// that were freed (or that never re-appear) fail the continuation so
// callers don't hang.
func (l *Locality) forwardParcel(p *parcel.Parcel) {
	// Forwarding retains the parcel beyond the delivering task's return —
	// a copy re-enters the outbound port, and the migration-retry path
	// parks p itself in an AfterFunc. Detach first: borrowed fields are
	// copied to owned memory, the wire buffer's reference is dropped, and
	// the delivery wrapper's Release becomes a no-op.
	p.Detach()
	loc, err := l.rt.agas.Resolve(p.Dest) // authoritative, not the cache
	if err == nil && loc != l.id {
		l.forwarded.Inc()
		if perr := l.port.Put(p.Forward(loc)); perr == nil {
			return
		}
	}
	if err == nil && loc == l.id && p.Retries < maxMigrationRetries {
		p.Retries++
		time.AfterFunc(200*time.Microsecond, func() {
			l.sched.spawn(func() { l.executeComponentAction(p) })
		})
		return
	}
	// Unresolvable or retries exhausted: fail the caller.
	l.actionErrors.Inc()
	if p.Continuation.Valid() {
		resp := &parcel.Parcel{
			Dest:         p.Continuation,
			DestLocality: -1,
			Action:       ResponseAction(p.Action),
			Args:         encodeResult(nil, fmt.Errorf("%w: %v", ErrUnknownComponent, p.Dest)),
			Source:       l.id,
		}
		_ = l.port.Put(resp)
	}
}

// Migrate moves a component to another locality: the object is serialized
// via its Migratable implementation, removed locally, installed at the
// destination, and AGAS is updated so subsequent invocations route there.
// Invocations in flight during the move are forwarded. The call blocks
// until the object is installed at its new home.
func (rt *Runtime) Migrate(gid agas.GID, to int) error {
	if to < 0 || to >= len(rt.locs) {
		return fmt.Errorf("runtime: migrate to out-of-range locality %d", to)
	}
	from, err := rt.agas.Resolve(gid)
	if err != nil {
		return err
	}
	if from == to {
		return nil
	}
	src := rt.locs[from]
	obj, ok := src.components.get(gid)
	if !ok {
		return fmt.Errorf("%w: %v not hosted at locality %d", ErrUnknownComponent, gid, from)
	}
	mig, ok := obj.(Migratable)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotMigratable, gid)
	}
	if rt.lookupComponentType(mig.TypeName()) == nil {
		return fmt.Errorf("%w: %q", ErrUnknownComponentType, mig.TypeName())
	}

	w := serialization.NewWriter(256)
	w.U64(uint64(gid))
	w.String(mig.TypeName())
	mig.EncodeState(w)

	// Remove locally first: from now on, parcels arriving at the old
	// home are forwarded (initially back here via the authoritative
	// directory, which still says `from` until Move below — so removal
	// and Move must happen before the state parcel is consumed; the
	// installation action performs the Move itself to close the window).
	src.components.remove(gid)

	// Install at the destination synchronously through the parcel layer.
	f, err := src.Async(to, migrateAction, w.Bytes())
	if err != nil {
		// Restore on failure.
		src.components.put(gid, obj)
		return err
	}
	if _, err := f.Get(); err != nil {
		src.components.put(gid, obj)
		return fmt.Errorf("runtime: migration of %v failed: %w", gid, err)
	}
	return nil
}

// handleMigrate is the built-in action body installing a migrated object.
func handleMigrate(ctx *Context, args []byte) ([]byte, error) {
	r := serialization.NewReader(args)
	gid := agas.GID(r.U64())
	typeName := r.String()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("runtime: corrupt migration parcel: %w", err)
	}
	factory := ctx.Runtime.lookupComponentType(typeName)
	if factory == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownComponentType, typeName)
	}
	obj, err := factory(r)
	if err != nil {
		return nil, fmt.Errorf("runtime: reconstructing %q: %w", typeName, err)
	}
	l := ctx.Runtime.locs[ctx.Locality]
	l.components.put(gid, obj)
	if err := ctx.Runtime.agas.Move(gid, ctx.Locality); err != nil {
		l.components.remove(gid)
		return nil, err
	}
	return nil, nil
}

// ComponentCount returns the number of objects hosted at this locality.
func (l *Locality) ComponentCount() int { return l.components.size() }

// ForwardedParcels returns how many stale-routed parcels this locality
// forwarded after migrations.
func (l *Locality) ForwardedParcels() int64 { return l.forwarded.Get() }
