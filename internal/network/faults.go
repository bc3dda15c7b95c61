package network

import (
	"math/rand"
	"sync"
	"time"
)

// LinkFaults configures fault injection for one direction of one link
// (or, as a FaultPlan default, for every link without an override). All
// rates are probabilities in [0, 1]; they are evaluated in the order
// partition, burst loss, drop, duplicate, delay, reorder, and at most one
// fault fires per message.
type LinkFaults struct {
	// Partition drops every message on the link (a one-way partition:
	// the reverse direction is configured independently).
	Partition bool
	// DropRate is the per-message probability of silent loss.
	DropRate float64
	// DuplicateRate is the per-message probability of delivering twice.
	DuplicateRate float64
	// DelayRate is the per-message probability of adding Delay extra
	// delivery latency.
	DelayRate float64
	// Delay is the extra latency applied by DelayRate faults
	// (default 500µs).
	Delay time.Duration
	// ReorderRate is the per-message probability of holding the message
	// back until the next message on the link overtakes it.
	ReorderRate float64
	// BurstEvery and BurstLen inject correlated loss: of every BurstEvery
	// consecutive messages on the link, the first BurstLen are dropped.
	// Zero disables bursts.
	BurstEvery int
	BurstLen   int
}

// DefaultFaultDelay is the extra latency of a delay fault when
// LinkFaults.Delay is zero.
const DefaultFaultDelay = 500 * time.Microsecond

// FaultPlan is a composable, deterministic fault model: a default
// LinkFaults applied to every link plus per-link overrides, driven by a
// seeded PRNG so chaos runs are reproducible. Compile it into a fabric
// with Hook:
//
//	plan := network.NewFaultPlan(1)
//	plan.SetDefault(network.LinkFaults{DropRate: 0.05, ReorderRate: 0.05})
//	plan.SetLink(0, 1, network.LinkFaults{Partition: true})
//	fabric.SetFaultHook(plan.Hook())
//
// FaultPlan is safe for concurrent use, including reconfiguration while
// the fabric is sending.
type FaultPlan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	def   LinkFaults
	links map[linkKey]*linkFaultState

	// crashed marks localities that have crash-stopped: every message to
	// or from them is silently dropped on the wire, modeling a process
	// that died without closing its connections.
	crashed map[int]bool

	// events are time-scheduled link reconfigurations (SetLinkAt /
	// ClearLinkAt and the partition/heal helpers built on them), sorted
	// by due time and applied lazily inside decide. clock anchors the
	// elapsed-time axis: StartClock sets it explicitly, otherwise the
	// first decide after events exist starts it.
	events []faultEvent
	clock  time.Time

	injected uint64 // messages that received a non-deliver fault
}

// faultEvent is one scheduled link reconfiguration.
type faultEvent struct {
	at     time.Duration // elapsed time since the plan's clock started
	src    int
	dst    int
	clear  bool // true: remove the override; false: install faults
	faults LinkFaults
}

// linkFaultState is the per-link mutable state: the override (if any) and
// the message counter driving burst loss.
type linkFaultState struct {
	faults LinkFaults
	count  int
}

// NewFaultPlan creates an empty plan (all messages deliver) with a
// deterministic PRNG seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		rng:     rand.New(rand.NewSource(seed)),
		links:   make(map[linkKey]*linkFaultState),
		crashed: make(map[int]bool),
	}
}

// SetDefault installs the fault configuration for links without an
// override. Burst-loss counters of default-configured links restart.
func (p *FaultPlan) SetDefault(f LinkFaults) {
	p.mu.Lock()
	p.def = f
	p.mu.Unlock()
}

// SetLink installs a per-link override for messages from src to dst.
func (p *FaultPlan) SetLink(src, dst int, f LinkFaults) {
	p.mu.Lock()
	p.links[linkKey{src, dst}] = &linkFaultState{faults: f}
	p.mu.Unlock()
}

// ClearLink removes the per-link override, reverting src->dst to the
// default configuration.
func (p *FaultPlan) ClearLink(src, dst int) {
	p.mu.Lock()
	delete(p.links, linkKey{src, dst})
	p.mu.Unlock()
}

// PartitionPair partitions both directions between a and b immediately:
// the symmetric two-way cut a real network split produces, without
// hand-writing each one-way override.
func (p *FaultPlan) PartitionPair(a, b int) {
	p.SetLink(a, b, LinkFaults{Partition: true})
	p.SetLink(b, a, LinkFaults{Partition: true})
}

// HealPair removes both directions of a PartitionPair cut immediately,
// reverting the links to the default configuration.
func (p *FaultPlan) HealPair(a, b int) {
	p.ClearLink(a, b)
	p.ClearLink(b, a)
}

// StartClock anchors the plan's elapsed-time axis for scheduled events
// (SetLinkAt etc.) at the given instant. Calling it is optional — the
// first fault decision after events exist starts the clock implicitly —
// but tests and multi-process runs call it explicitly so "at 300ms"
// means 300ms from a known point rather than from first traffic.
func (p *FaultPlan) StartClock(now time.Time) {
	p.mu.Lock()
	p.clock = now
	p.mu.Unlock()
}

// SetLinkAt schedules SetLink(src, dst, f) to take effect once the
// plan's clock has run for at. Events apply lazily, on the first fault
// decision at or after their due time, so precision is bounded by
// traffic cadence — fine for partitions, meaningless for sub-tick
// schedules.
func (p *FaultPlan) SetLinkAt(src, dst int, at time.Duration, f LinkFaults) {
	p.scheduleEvent(faultEvent{at: at, src: src, dst: dst, faults: f})
}

// ClearLinkAt schedules ClearLink(src, dst) at elapsed time at.
func (p *FaultPlan) ClearLinkAt(src, dst int, at time.Duration) {
	p.scheduleEvent(faultEvent{at: at, src: src, dst: dst, clear: true})
}

// PartitionPairAt schedules a symmetric two-way partition between a and
// b at elapsed time at.
func (p *FaultPlan) PartitionPairAt(a, b int, at time.Duration) {
	p.SetLinkAt(a, b, at, LinkFaults{Partition: true})
	p.SetLinkAt(b, a, at, LinkFaults{Partition: true})
}

// HealPairAt schedules the heal of a symmetric partition between a and
// b at elapsed time at.
func (p *FaultPlan) HealPairAt(a, b int, at time.Duration) {
	p.ClearLinkAt(a, b, at)
	p.ClearLinkAt(b, a, at)
}

func (p *FaultPlan) scheduleEvent(e faultEvent) {
	p.mu.Lock()
	// Insertion sort keeps events due-ordered; schedules are small.
	i := len(p.events)
	for i > 0 && p.events[i-1].at > e.at {
		i--
	}
	p.events = append(p.events, faultEvent{})
	copy(p.events[i+1:], p.events[i:])
	p.events[i] = e
	p.mu.Unlock()
}

// applyDueLocked applies every scheduled event whose due time has
// passed. Called with p.mu held from decide.
func (p *FaultPlan) applyDueLocked(now time.Time) {
	if len(p.events) == 0 {
		return
	}
	if p.clock.IsZero() {
		p.clock = now
	}
	elapsed := now.Sub(p.clock)
	n := 0
	for n < len(p.events) && p.events[n].at <= elapsed {
		e := p.events[n]
		if e.clear {
			delete(p.links, linkKey{e.src, e.dst})
		} else {
			p.links[linkKey{e.src, e.dst}] = &linkFaultState{faults: e.faults}
		}
		n++
	}
	p.events = p.events[n:]
}

// Crash marks a locality as crash-stopped, effective immediately: every
// subsequent message to or from it is silently dropped at the wire, on
// both directions of every link, modeling a process death. Crash-stop is
// permanent — there is no ClearCrash, matching the crash-stop (no
// recovery) failure model the health subsystem assumes.
func (p *FaultPlan) Crash(locality int) {
	p.mu.Lock()
	p.crashed[locality] = true
	p.mu.Unlock()
}

// Injected returns how many messages received a non-deliver fault.
func (p *FaultPlan) Injected() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// Hook compiles the plan into a FaultHook for Fabric.SetFaultHook.
func (p *FaultPlan) Hook() FaultHook {
	return p.decide
}

func (p *FaultPlan) decide(src, dst int, payload []byte) Fault {
	p.mu.Lock()
	defer p.mu.Unlock()

	p.applyDueLocked(time.Now())

	// Crash-stop is evaluated before every other fault class: a dead
	// locality neither sends nor receives.
	if p.crashed[src] || p.crashed[dst] {
		p.injected++
		return Fault{Action: FaultDrop}
	}

	f := p.def
	var st *linkFaultState
	if override, ok := p.links[linkKey{src, dst}]; ok {
		f = override.faults
		st = override
	}

	if f.Partition {
		p.injected++
		return Fault{Action: FaultDrop}
	}
	if f.BurstEvery > 0 && f.BurstLen > 0 {
		if st == nil {
			// Burst state for a default-configured link still needs a
			// per-link counter, lazily materialized as an override that
			// mirrors the default.
			st = &linkFaultState{faults: f}
			p.links[linkKey{src, dst}] = st
		}
		pos := st.count % f.BurstEvery
		st.count++
		if pos < f.BurstLen {
			p.injected++
			return Fault{Action: FaultDrop}
		}
	}

	r := p.rng.Float64()
	switch {
	case r < f.DropRate:
		p.injected++
		return Fault{Action: FaultDrop}
	case r < f.DropRate+f.DuplicateRate:
		p.injected++
		return Fault{Action: FaultDuplicate}
	case r < f.DropRate+f.DuplicateRate+f.DelayRate:
		p.injected++
		d := f.Delay
		if d <= 0 {
			d = DefaultFaultDelay
		}
		return Fault{Action: FaultDelay, Delay: d}
	case r < f.DropRate+f.DuplicateRate+f.DelayRate+f.ReorderRate:
		p.injected++
		return Fault{Action: FaultReorder}
	}
	return Fault{Action: FaultDeliver}
}
