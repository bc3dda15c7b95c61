// Package collectives implements distributed collective operations on top
// of the runtime's active messages: broadcast, reduce, all-reduce, gather,
// scatter, all-gather, all-to-all and a distributed barrier. HPX ships the
// corresponding primitives (hpx::lcos::broadcast, reduce, …); the FFT
// communication benchmark's transpose step is exactly the all-to-all.
//
// All collectives run over ordinary parcels, so they are coalesced,
// counted and measured like any other traffic. Payloads are raw byte
// slices; reduction combines them with a user function (typed wrappers
// live in the public facade).
//
// Operations come in selectable algorithm variants (per communicator):
// direct/flat fan-out, binomial-tree broadcast/reduce/scatter, and ring
// all-gather / rotation all-to-all that spread load across links — see
// algorithms.go. Every operation is surfaced under /collectives{...}
// counters (ops, bytes, fan-out messages, completion latency).
//
// Contributions carry a compact binary header (comm id + op kind +
// sequence, wire.go) instead of formatted string tags, so the hot path
// allocates only the parcel argument buffer. Operation instances are
// matched across localities by the header; collectives can be issued
// repeatedly (one per iteration, say) under fresh tags without
// cross-talk.
package collectives

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/lco"
	"repro/internal/network"
	"repro/internal/runtime"
)

// ReduceFunc combines two serialized values into one. It must be
// associative and commutative: reduction order is unspecified.
type ReduceFunc func(a, b []byte) ([]byte, error)

// Action is the internal action name carrying every contribution.
// Enabling coalescing on it batches collective traffic like any other
// fine-grained messages.
const Action = "collectives/contribute"

// Algorithm selects how a communicator's operations move data.
type Algorithm int

const (
	// AlgAuto picks the recommended variant per operation: binomial tree
	// for the rooted operations (broadcast, reduce, scatter), ring for
	// all-gather and all-to-all.
	AlgAuto Algorithm = iota
	// AlgDirect is the flat variant: the root (or every participant)
	// sends one message per peer in a single burst.
	AlgDirect
	// AlgTree uses a binomial tree for the rooted operations: O(log L)
	// fan-out per node instead of the root's O(L) loop.
	AlgTree
	// AlgRing uses the ring all-gather and the rotation all-to-all:
	// each step every locality exchanges with exactly one peer, so load
	// spreads across links and time instead of bursting.
	AlgRing
)

func (a Algorithm) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgDirect:
		return "direct"
	case AlgTree:
		return "tree"
	case AlgRing:
		return "ring"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves a variant name ("auto", "direct", "tree",
// "ring"), as used by amc-node's -fft-alg flag.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "", "auto":
		return AlgAuto, nil
	case "direct":
		return AlgDirect, nil
	case "tree":
		return AlgTree, nil
	case "ring":
		return AlgRing, nil
	}
	return 0, fmt.Errorf("collectives: unknown algorithm %q", s)
}

// Options configures a communicator.
type Options struct {
	// Algorithm selects the variant family (default AlgAuto).
	Algorithm Algorithm
	// Timeout bounds every blocking wait inside an operation; an
	// operation whose peers never contribute (a crashed process the
	// failure detector missed, say) fails with lco.ErrTimeout instead of
	// hanging forever. Default 30s.
	Timeout time.Duration
}

// ErrDuplicateComm reports that a communicator name is already in use on
// the runtime.
var ErrDuplicateComm = errors.New("collectives: communicator name in use")

// ErrClosed reports use of a closed communicator.
var ErrClosed = errors.New("collectives: communicator closed")

// opKey identifies one operation instance at one locality. All fields
// are numeric, so building a key allocates nothing (the old string tags
// cost one fmt.Sprintf per contribution).
type opKey struct {
	kind uint8
	root uint32
	aux  uint32
	dest uint32 // locality the instance lives at — a runtime hosting
	// several localities (in-process mode) shares one instance map, so
	// the receiver must be part of the identity
	seq uint64
}

// instance is one in-flight collective operation at one locality:
// slotted contributions plus a completion promise. Slots are idempotent
// (a duplicate contribution for a filled slot is dropped), so delivery
// is exactly-once at the collective level even if a transport duplicate
// slipped through.
type instance struct {
	mu       sync.Mutex
	parts    [][]byte
	filled   []bool
	count    int
	expected int
	done     *lco.Promise[[][]byte]
}

// deliver fills a slot and reports whether the instance completed.
func (inst *instance) deliver(slot int, body []byte) bool {
	inst.mu.Lock()
	inst.grow(slot + 1)
	if !inst.filled[slot] {
		inst.filled[slot] = true
		inst.parts[slot] = body
		inst.count++
	}
	ready := inst.expected > 0 && inst.count >= inst.expected
	parts := inst.parts
	inst.mu.Unlock()
	if ready {
		_ = inst.done.SetValue(parts)
	}
	return ready
}

// arm sets the instance's expectation and slot count (the waiter's
// side; contributions may already have raced ahead).
func (inst *instance) arm(expected, slots int) {
	inst.mu.Lock()
	inst.grow(slots)
	inst.expected = expected
	ready := inst.count >= expected
	parts := inst.parts
	inst.mu.Unlock()
	if ready {
		_ = inst.done.SetValue(parts)
	}
}

func (inst *instance) grow(n int) {
	for len(inst.parts) < n {
		inst.parts = append(inst.parts, nil)
		inst.filled = append(inst.filled, false)
	}
}

// commSet is the per-runtime collectives state, stored in the runtime's
// extension map (not in a package-level map keyed by *Runtime, which
// would leak one entry per runtime ever created — the state now dies
// with the runtime).
type commSet struct {
	mu     sync.Mutex
	byName map[string]*Comm
	byID   map[uint64]*Comm
}

const extensionKey = "collectives"

func setFor(rt *runtime.Runtime) (*commSet, bool) {
	created := false
	v := rt.Extension(extensionKey, func() any {
		created = true
		return &commSet{byName: map[string]*Comm{}, byID: map[uint64]*Comm{}}
	})
	return v.(*commSet), created
}

// handleContribution is the body of Action: it parses the binary header
// and delivers the payload (or poison) to the owning communicator.
func (s *commSet) handleContribution(ctx *runtime.Context, args []byte) ([]byte, error) {
	h, body, err := parseContribution(args)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	c := s.byID[h.comm]
	s.mu.Unlock()
	if c == nil {
		return nil, fmt.Errorf("collectives: unknown communicator id %#x", h.comm)
	}
	key := opKey{kind: h.kind, root: h.root, aux: h.aux, dest: uint32(ctx.Locality), seq: h.seq}
	if h.flags&flagError != 0 {
		c.poisonInstance(key, fmt.Errorf("collectives: remote failure at locality %d: %s", h.origin, string(body)))
		return nil, nil
	}
	// Parcel args are borrowed; the payload must be copied to outlive
	// the handler.
	var owned []byte
	if len(body) > 0 {
		owned = append([]byte(nil), body...)
	}
	c.deliverLocal(key, slotFor(h), owned)
	return nil, nil
}

// slotFor maps a contribution to its slot: fan-in kinds slot by origin
// locality, single-frame kinds use slot 0.
func slotFor(h header) int {
	switch h.kind {
	case kGather, kReduceTree, kAllGatherDirect, kAllToAllDirect:
		return int(h.origin)
	}
	return 0
}

// poisonAll fails every open instance of every communicator on the
// runtime — the death-subscriber path: once a participant is declared
// down, no collective spanning it can ever complete, so waiters are
// released with ErrLocalityDown instead of hanging (and orphaned
// instances are reclaimed).
func (s *commSet) poisonAll(err error) {
	s.mu.Lock()
	comms := make([]*Comm, 0, len(s.byName))
	for _, c := range s.byName {
		comms = append(comms, c)
	}
	s.mu.Unlock()
	for _, c := range comms {
		c.poison(err)
	}
}

// Comm is a collective communicator bound to a runtime: a named context
// in which every locality participates once per operation.
type Comm struct {
	rt      *runtime.Runtime
	set     *commSet
	name    string
	id      uint64
	alg     Algorithm
	timeout time.Duration

	mu     sync.Mutex
	closed bool
	insts  map[opKey]*instance

	stats map[int]*[opCount]opCounters // hosted locality -> per-op counters
}

// NewComm creates a communicator with the given name. The first
// communicator on a runtime installs the internal action and the death
// subscriber; names must be unique per runtime. Options, when given,
// select the algorithm variant family and the operation timeout.
func NewComm(rt *runtime.Runtime, name string, opts ...Options) (*Comm, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	set, created := setFor(rt)
	if created {
		rt.MustRegisterAction(Action, set.handleContribution)
		rt.SubscribePeer(func(ev runtime.PeerEvent) {
			if ev.Kind == runtime.PeerDown {
				set.poisonAll(fmt.Errorf("collectives: %w: locality %d", network.ErrLocalityDown, ev.Peer))
			}
		})
	}
	c := &Comm{
		rt: rt, set: set, name: name, id: fnv64a(name),
		alg: o.Algorithm, timeout: o.Timeout,
		insts: map[opKey]*instance{},
		stats: map[int]*[opCount]opCounters{},
	}
	set.mu.Lock()
	if _, dup := set.byName[name]; dup {
		set.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateComm, name)
	}
	if other, collide := set.byID[c.id]; collide {
		set.mu.Unlock()
		return nil, fmt.Errorf("collectives: name %q collides with %q under the comm-id hash", name, other.name)
	}
	set.byName[name] = c
	set.byID[c.id] = c
	set.mu.Unlock()
	c.registerCounters()
	return c, nil
}

// Name returns the communicator name.
func (c *Comm) Name() string { return c.name }

// Algorithm returns the variant family the communicator was created
// with.
func (c *Comm) Algorithm() Algorithm { return c.alg }

// Localities returns the number of participants.
func (c *Comm) Localities() int { return c.rt.Localities() }

// Close unregisters the communicator from its runtime, fails every
// in-flight operation with ErrClosed, drops all instances (including
// orphans left by failed peers) and removes its counters. Further
// operations fail with ErrClosed. Idempotent.
func (c *Comm) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.set.mu.Lock()
	delete(c.set.byName, c.name)
	delete(c.set.byID, c.id)
	c.set.mu.Unlock()
	c.poison(ErrClosed)
	c.unregisterCounters()
}

// poison fails every open instance and drops them all: released waiters
// see err, and orphaned instances (contributions whose local operation
// never ran or already gave up) are reclaimed rather than accumulating.
func (c *Comm) poison(err error) {
	c.mu.Lock()
	insts := c.insts
	c.insts = map[opKey]*instance{}
	c.mu.Unlock()
	for _, inst := range insts {
		_ = inst.done.SetError(err)
	}
}

// instance returns (creating if needed) the keyed instance.
func (c *Comm) instance(key opKey) *instance {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	inst := c.insts[key]
	if inst == nil {
		inst = &instance{done: lco.NewPromise[[][]byte]()}
		c.insts[key] = inst
	}
	return inst
}

// deliverLocal adds a contribution to the keyed instance, creating it if
// the contribution raced ahead of the local operation call.
func (c *Comm) deliverLocal(key opKey, slot int, body []byte) {
	if inst := c.instance(key); inst != nil {
		inst.deliver(slot, body)
	}
}

// poisonInstance fails the keyed instance (error-frame delivery).
func (c *Comm) poisonInstance(key opKey, err error) {
	if inst := c.instance(key); inst != nil {
		_ = inst.done.SetError(err)
	}
}

// armed returns the keyed instance armed with an expectation, or an
// error on a closed communicator.
func (c *Comm) armed(key opKey, expected, slots int) (*instance, error) {
	inst := c.instance(key)
	if inst == nil {
		return nil, ErrClosed
	}
	inst.arm(expected, slots)
	return inst, nil
}

// drop removes a finished instance.
func (c *Comm) drop(key opKey) {
	c.mu.Lock()
	delete(c.insts, key)
	c.mu.Unlock()
}

// await blocks on an armed instance with the communicator timeout and
// always drops the instance — completed, failed or expired, nothing
// stays in the map.
func (c *Comm) await(inst *instance, key opKey) ([][]byte, error) {
	parts, err := inst.done.Future().GetWithTimeout(c.timeout)
	c.drop(key)
	if err != nil {
		if errors.Is(err, lco.ErrTimeout) {
			err = fmt.Errorf("collectives: operation timed out after %s (lost participant?): %w", c.timeout, err)
		}
		return nil, err
	}
	return parts, nil
}

// aliveCheck fails fast when any participant is already declared down:
// a collective spans every locality, so it cannot complete.
func (c *Comm) aliveCheck() error {
	for i := 0; i < c.rt.Localities(); i++ {
		if c.rt.LocalityDead(i) {
			return fmt.Errorf("collectives: %w: locality %d", network.ErrLocalityDown, i)
		}
	}
	return nil
}

// send transmits one contribution (or delivers locally when from == to).
func (c *Comm) send(m *opMeter, from, to int, h header, body []byte) error {
	h.comm = c.id
	h.origin = uint32(from)
	if from == to {
		c.deliverLocal(opKey{kind: h.kind, root: h.root, aux: h.aux, dest: uint32(to), seq: h.seq}, slotForLocal(h, from), body)
		return nil
	}
	buf := make([]byte, 0, contributionSize(body))
	buf = appendContribution(buf, h, body)
	m.sent(len(body))
	return c.rt.Locality(from).Apply(to, Action, buf)
}

// slotForLocal mirrors slotFor for loopback deliveries.
func slotForLocal(h header, origin int) int {
	switch h.kind {
	case kGather, kReduceTree, kAllGatherDirect, kAllToAllDirect:
		return origin
	}
	return 0
}

// sendError best-effort delivers a poison frame so the peer's instance
// fails fast instead of waiting out the timeout. Errors are ignored:
// the frame is an optimization, the timeout and the death subscriber
// are the backstop.
func (c *Comm) sendError(from, to int, h header, msg string) {
	h.flags |= flagError
	h.comm = c.id
	h.origin = uint32(from)
	if from == to {
		c.poisonInstance(opKey{kind: h.kind, root: h.root, aux: h.aux, dest: uint32(to), seq: h.seq},
			fmt.Errorf("collectives: remote failure at locality %d: %s", from, msg))
		return
	}
	buf := make([]byte, 0, contributionSize(nil)+len(msg))
	buf = appendContribution(buf, h, []byte(msg))
	_ = c.rt.Locality(from).Apply(to, Action, buf)
}

// checkRoot validates a rooted operation's arguments.
func (c *Comm) checkRoot(root int) error {
	if root < 0 || root >= c.rt.Localities() {
		return fmt.Errorf("collectives: root %d out of range", root)
	}
	return c.aliveCheck()
}

// opSeq salts the inner operations of composites so an AllReduce and a
// plain Reduce under the same user tag cannot cross-talk.
const (
	saltAllReduce = 0x9e3779b97f4a7c15
	saltBarrier   = 0xc2b2ae3d27d4eb4f
)

// Gather collects every locality's payload at the root. Each locality
// calls Gather once with the same tag and root; the root's call returns
// all payloads indexed by locality, other localities return nil.
func (c *Comm) Gather(locality, root int, tag string, payload []byte) ([][]byte, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	m := c.meter(locality, opGather)
	defer m.done()
	return c.gather(locality, root, fnv64a(tag), payload, m)
}

// Reduce combines every locality's payload at the root with fn. The
// root's call returns the reduction; other localities return nil. With
// the tree variant fn also runs on intermediate localities (partial
// reductions), which is why it must be associative and commutative.
func (c *Comm) Reduce(locality, root int, tag string, payload []byte, fn ReduceFunc) ([]byte, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	m := c.meter(locality, opReduce)
	defer m.done()
	return c.reduce(locality, root, fnv64a(tag), payload, fn, m)
}

// Broadcast distributes the root's payload to every locality: the root
// calls with its payload, every locality (including the root) receives
// it as the return value. Non-root callers pass nil.
func (c *Comm) Broadcast(locality, root int, tag string, payload []byte) ([]byte, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	m := c.meter(locality, opBroadcast)
	defer m.done()
	return c.broadcast(locality, root, fnv64a(tag), payload, m)
}

// Scatter distributes one payload per locality from the root: the root
// calls with L parts (indexed by destination locality), every locality
// (including the root) receives its own part as the return value.
// Non-root callers pass nil.
func (c *Comm) Scatter(locality, root int, tag string, parts [][]byte) ([]byte, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	if locality == root && len(parts) != c.rt.Localities() {
		return nil, fmt.Errorf("collectives: scatter needs %d parts, got %d", c.rt.Localities(), len(parts))
	}
	m := c.meter(locality, opScatter)
	defer m.done()
	return c.scatter(locality, root, fnv64a(tag), parts, m)
}

// AllGather collects every locality's payload at every locality: each
// call returns all L payloads indexed by locality.
func (c *Comm) AllGather(locality int, tag string, payload []byte) ([][]byte, error) {
	if err := c.aliveCheck(); err != nil {
		return nil, err
	}
	m := c.meter(locality, opAllGather)
	defer m.done()
	return c.allGather(locality, fnv64a(tag), payload, m)
}

// AllToAll performs the full exchange: locality l provides parts[d] for
// every destination d and receives a slice indexed by source — out[s]
// is what locality s addressed to l. This is the distributed-transpose
// primitive (the FFT benchmark's communication step).
func (c *Comm) AllToAll(locality int, tag string, parts [][]byte) ([][]byte, error) {
	if err := c.aliveCheck(); err != nil {
		return nil, err
	}
	if len(parts) != c.rt.Localities() {
		return nil, fmt.Errorf("collectives: alltoall needs %d parts, got %d", c.rt.Localities(), len(parts))
	}
	m := c.meter(locality, opAllToAll)
	defer m.done()
	return c.allToAll(locality, fnv64a(tag), parts, m)
}

// AllReduce reduces at root 0 and broadcasts the result; every locality
// receives the reduction.
func (c *Comm) AllReduce(locality int, tag string, payload []byte, fn ReduceFunc) ([]byte, error) {
	if err := c.aliveCheck(); err != nil {
		return nil, err
	}
	m := c.meter(locality, opAllReduce)
	defer m.done()
	seq := fnv64a(tag) ^ saltAllReduce
	red, err := c.reduce(locality, 0, seq, payload, fn, m)
	if err != nil {
		return nil, err
	}
	return c.broadcast(locality, 0, seq, red, m)
}

// Barrier blocks until every locality has entered the tagged barrier.
func (c *Comm) Barrier(locality int, tag string) error {
	if err := c.aliveCheck(); err != nil {
		return err
	}
	m := c.meter(locality, opBarrier)
	defer m.done()
	seq := fnv64a(tag) ^ saltBarrier
	nop := func(a, b []byte) ([]byte, error) { return nil, nil }
	red, err := c.reduce(locality, 0, seq, nil, nop, m)
	if err != nil {
		return err
	}
	_, err = c.broadcast(locality, 0, seq, red, m)
	return err
}
