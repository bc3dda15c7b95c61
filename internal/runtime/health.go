package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/health"
	"repro/internal/network"
	"repro/internal/trace"
)

// heartbeatAction is the internal action carrying explicit heartbeat
// beacons on idle links. Liveness itself is piggybacked: the monitor's
// receive hook counts every wire message as a heartbeat, so this action
// only has to exist (and validate its payload) — busy links never send it.
const heartbeatAction = "runtime/heartbeat"

func handleHeartbeat(ctx *Context, args []byte) ([]byte, error) {
	if _, err := health.DecodeHeartbeat(args); err != nil {
		return nil, err
	}
	return nil, nil
}

// startHealth wires a per-locality failure-detection monitor into every
// hosted port: received traffic feeds the phi-accrual detector, idle
// links get explicit heartbeats, and a suspicion crossing the threshold
// convicts the peer (a down transition). Called from New when
// cfg.Health.Enabled, or later through StartHealth (cluster mode defers
// it until peer addresses are known, so early heartbeats don't burn the
// reliability layer's retry budget against unreachable peers).
func (rt *Runtime) startHealth() {
	rt.monitors = make([]*health.Monitor, len(rt.locs))
	for i, l := range rt.locs {
		if !l.hosted {
			continue
		}
		i, l := i, l
		m := health.NewMonitor(health.MonitorConfig{
			Config:   rt.cfg.Health,
			Locality: i,
			Peers:    len(rt.locs),
			SendHeartbeat: func(peer int) error {
				return rt.sendHeartbeat(i, peer)
			},
			LastSend:  l.port.LastSend,
			OnDown:    func(peer int) { rt.convict(i, peer) },
			OnSuspect: func(peer int) { rt.suspicion(PeerSuspect, i, peer) },
			OnAlive:   func(peer int) { rt.suspicion(PeerAlive, i, peer) },
			Registry:  l.registry,
			Trace:     rt.cfg.Trace,
		})
		rt.monitors[i] = m
		l.port.SetOnMessage(m.Heartbeat)
	}
	for _, m := range rt.monitors {
		if m != nil {
			m.Start()
		}
	}
}

// StartHealth enables failure detection after construction with the
// given configuration. The cluster bootstrap calls it once the join
// protocol has installed every peer's address; it is a no-op if monitors
// are already running (Config.Health.Enabled at New) or the runtime has
// stopped.
func (rt *Runtime) StartHealth(cfg health.Config) {
	rt.stopMu.Lock()
	defer rt.stopMu.Unlock()
	if rt.stopped || rt.monitors != nil {
		return
	}
	cfg.Enabled = true
	rt.cfg.Health = cfg
	rt.startHealth()
}

func (rt *Runtime) sendHeartbeat(from, to int) error {
	hb := health.Heartbeat{Seq: rt.monitors[from].NextSeq(to), Sent: time.Now()}
	return rt.locs[from].Apply(to, heartbeatAction, health.EncodeHeartbeat(nil, hb))
}

// Monitor returns locality i's failure-detection monitor, or nil when
// health monitoring is disabled.
func (rt *Runtime) Monitor(i int) *health.Monitor {
	if rt.monitors == nil || i < 0 || i >= len(rt.monitors) {
		return nil
	}
	return rt.monitors[i]
}

// SetRetryable marks an action as safe to re-issue on another locality
// when its destination dies before the result returns. Opt-in: retry
// implies at-least-once execution (the action may have run on the dead
// locality with only the response lost), so only idempotent actions — or
// actions whose duplicate execution the application tolerates — should be
// marked.
func (rt *Runtime) SetRetryable(action string, retryable bool) {
	rt.retryMu.Lock()
	if rt.retryable == nil {
		rt.retryable = make(map[string]bool)
	}
	if retryable {
		rt.retryable[action] = true
	} else {
		delete(rt.retryable, action)
	}
	rt.retryMu.Unlock()
}

func (rt *Runtime) isRetryable(action string) bool {
	rt.retryMu.Lock()
	defer rt.retryMu.Unlock()
	return rt.retryable[action]
}

// PeerEventKind is what a PeerEvent reports.
type PeerEventKind uint8

const (
	// PeerSuspect and PeerAlive: the observer's detector crossed its soft
	// threshold for the peer, or dropped back below it. Both may flap.
	PeerSuspect PeerEventKind = iota
	PeerAlive
	// PeerVerdict: the observer's detector convicted the peer. It opens
	// the down transition, before any layer fails the peer, so the peer
	// can still be sent one last message.
	PeerVerdict
	// PeerDown and PeerUp close a transition: every layer has failed, or
	// reopened, the peer.
	PeerDown
	PeerUp
)

// PeerEvent is one event of a peer's lifecycle. Observer is the locality
// whose detector raised it, or -1 for a DeclareDown or DeclareUp.
type PeerEvent struct {
	Kind     PeerEventKind
	Observer int
	Peer     int
}

// SubscribePeer registers fn for every peer event, run synchronously on
// the goroutine that raised it: the observer's monitor for suspect and
// alive, the transition for the rest. Per peer, transitions' events
// arrive in transition order, and each event reaches the subscribers in
// registration order. fn may start a transition of any peer but the
// event's own, which would wait for the transition fn runs in.
func (rt *Runtime) SubscribePeer(fn func(PeerEvent)) {
	if fn == nil {
		return
	}
	rt.subsMu.Lock()
	rt.subs = append(rt.subs[:len(rt.subs):len(rt.subs)], fn)
	rt.subsMu.Unlock()
}

func (rt *Runtime) publish(ev PeerEvent) {
	rt.subsMu.Lock()
	subs := rt.subs
	rt.subsMu.Unlock()
	for _, fn := range subs {
		fn(ev)
	}
}

// A locality's lifecycle word. peerDown is set for the whole of a down
// transition and cleared only after an up transition has reopened every
// layer, so routing refuses the peer while any layer may have it failed.
// peerCrashed marks a locality whose own detector is silenced: a corpse's
// verdicts must not poison the living.
const (
	peerDown uint32 = 1 << iota
	peerCrashed
)

// peerLife is one locality's lifecycle word, written only under mu.
type peerLife struct {
	mu    sync.Mutex
	state atomic.Uint32
}

// lifeStep is one layer's part of a transition: down fails the peer in
// that layer, up reopens it. Either may be nil.
type lifeStep struct{ down, up func(peer int) }

// peerTransport is implemented by transports (the reliable fabric) that
// fail and reopen every link touching a peer at once.
type peerTransport interface {
	FailPeer(peer int)
	ReopenPeer(peer int)
}

// lifeSteps builds the transition table in down order; up walks it
// backwards.
func (rt *Runtime) lifeSteps() []lifeStep {
	steps := []lifeStep{
		// The peer's own detector: silenced by a flag flip, so two
		// monitors convicting each other cannot deadlock.
		{down: rt.silence, up: rt.unsilence},
		{down: rt.agas.MarkDown, up: rt.agas.ClearDown},
	}
	if t, ok := rt.fabric.(peerTransport); ok {
		steps = append(steps, lifeStep{down: t.FailPeer, up: t.ReopenPeer})
	}
	return append(steps,
		lifeStep{
			down: func(peer int) {
				for _, l := range rt.others(peer) {
					l.port.FailDest(peer)
					l.failConts(peer)
				}
			},
			up: func(peer int) {
				for _, l := range rt.others(peer) {
					l.port.ReopenDest(peer)
				}
			},
		},
		// Every other detector restarts the peer's grace period, so it is
		// not reconvicted on stale silence.
		lifeStep{up: func(peer int) {
			for _, l := range rt.others(peer) {
				if m := rt.Monitor(l.id); m != nil {
					m.Revive(peer)
				}
			}
		}},
	)
}

// others returns the hosted localities other than peer.
func (rt *Runtime) others(peer int) []*Locality {
	var ls []*Locality
	for _, l := range rt.locs {
		if l.id != peer && l.hosted {
			ls = append(ls, l)
		}
	}
	return ls
}

func (rt *Runtime) silence(peer int) {
	if m := rt.Monitor(peer); m != nil {
		m.Silence()
	}
}

// unsilence resumes the peer's detector with fresh state toward every
// live locality: its windows are full of partition-length silences.
func (rt *Runtime) unsilence(peer int) {
	if m := rt.Monitor(peer); m != nil {
		for i := range rt.locs {
			if i != peer && !rt.LocalityDead(i) {
				m.Revive(i)
			}
		}
		m.Unsilence()
	}
}

// LocalityDead reports whether the locality has been declared down.
func (rt *Runtime) LocalityDead(i int) bool { return rt.is(i, peerDown) }

// LocalityCrashed reports whether the locality has crashed
// (CrashLocality) or been declared down: either way it must execute
// nothing more until an up transition revives it.
func (rt *Runtime) LocalityCrashed(i int) bool { return rt.is(i, peerCrashed) }

// is reports whether locality i's lifecycle word has bit set.
func (rt *Runtime) is(i int, bit uint32) bool {
	return i >= 0 && i < len(rt.lives) && rt.lives[i].state.Load()&bit != 0
}

func (rt *Runtime) suspicion(kind PeerEventKind, observer, peer int) {
	if !rt.is(observer, peerCrashed) {
		rt.publish(PeerEvent{Kind: kind, Observer: observer, Peer: peer})
	}
}

// transition runs one edge of peer's lifecycle under its lock, so the
// edge's whole fan-out and its events finish before the next starts.
func (rt *Runtime) transition(peer int, edge func(p *peerLife)) {
	if peer < 0 || peer >= len(rt.lives) {
		return
	}
	p := &rt.lives[peer]
	p.mu.Lock()
	defer p.mu.Unlock()
	edge(p)
}

// CrashLocality is the crash injector's runtime-side hook: it silences
// the locality's own failure detector the instant its wire dies, so a
// corpse cannot declare the survivors down (in a real deployment the
// dead process's detector dies with it; in-process it must be told).
// It does NOT mark the locality dead for routing — survivors still have
// to detect the crash through phi accrual, which is what the detection-
// latency metric measures. A rejoin (DeclareUp) resumes the detector.
func (rt *Runtime) CrashLocality(i int) {
	rt.transition(i, func(p *peerLife) {
		if st := p.state.Load(); st&peerCrashed == 0 {
			p.state.Store(st | peerCrashed)
			rt.silence(i)
		}
	})
}

// DeclareDown declares a locality crash-stopped and degrades gracefully
// by walking the transition table (lifeSteps) forward: AGAS resolutions
// to it and sends to it fail with network.ErrLocalityDown, ports flush
// and fast-fail parcels for it, and continuations pending on it are
// poisoned (or, for retryable actions, re-routed to a survivor).
// Idempotent; normally invoked by the failure detector, but applications
// and tests may call it directly.
func (rt *Runtime) DeclareDown(peer int) { rt.convict(-1, peer) }

// convict is the down edge. A detector's conviction (observer >= 0) is
// dropped if the observer has crashed, and otherwise publishes its
// verdict first: a membership layer needs one last chance to send a
// wrongly convicted (e.g. one-way partitioned) peer its obituary, which
// that peer refutes to rejoin.
func (rt *Runtime) convict(observer, peer int) {
	if rt.is(observer, peerCrashed) {
		return
	}
	rt.transition(peer, func(p *peerLife) {
		if p.state.Load()&peerDown != 0 {
			return
		}
		if observer >= 0 {
			rt.publish(PeerEvent{Kind: PeerVerdict, Observer: observer, Peer: peer})
		}
		p.state.Store(peerDown | peerCrashed)
		rt.cfg.Trace.Record(trace.Event{
			Kind: trace.KindLinkDown, Name: "locality-down",
			Start: time.Now(), Locality: peer,
		})
		for _, s := range rt.steps {
			if s.down != nil {
				s.down(peer)
			}
		}
		rt.publish(PeerEvent{Kind: PeerDown, Observer: observer, Peer: peer})
	})
}

// DeclareUp reverses DeclareDown for a peer whose partition has healed
// by walking the transition table backwards, reopening every layer —
// the reliable transport under a fresh session epoch, and every
// detector with a fresh grace period — before routing accepts the peer.
// Parcels and continuations failed while it was down stay failed:
// un-degradation restores the road, not the traffic that crashed on it.
// Idempotent; normally invoked by the membership layer's rejoin protocol.
func (rt *Runtime) DeclareUp(peer int) {
	rt.transition(peer, func(p *peerLife) {
		if p.state.Load()&peerDown == 0 {
			return
		}
		rt.cfg.Trace.Record(trace.Event{
			Kind: trace.KindLinkDown, Name: "locality-up",
			Start: time.Now(), Locality: peer,
		})
		for i := len(rt.steps) - 1; i >= 0; i-- {
			if up := rt.steps[i].up; up != nil {
				up(peer)
			}
		}
		p.state.Store(0)
		rt.publish(PeerEvent{Kind: PeerUp, Observer: -1, Peer: peer})
	})
}

// failConts resolves every pending continuation whose destination is the
// dead peer: retryable actions are re-issued to a surviving locality
// under the same continuation GID; the rest are poisoned with
// network.ErrLocalityDown so their futures fail instead of hanging.
func (l *Locality) failConts(peer int) {
	l.contMu.Lock()
	var gids []agas.GID
	var pcs []*pendingCont
	for g, pc := range l.conts {
		if pc.dest == peer {
			gids = append(gids, g)
			pcs = append(pcs, pc)
		}
	}
	l.contMu.Unlock()

	for i, g := range gids {
		pc := pcs[i]
		if l.rt.isRetryable(pc.action) {
			if newDest, ok := l.rt.pickSurvivor(peer, l.id); ok && l.retryCont(g, pc, newDest) {
				continue
			}
		}
		l.contMu.Lock()
		_, still := l.conts[g]
		delete(l.conts, g)
		l.contMu.Unlock()
		if still {
			l.rt.agas.Free(g)
			l.contsPoisoned.Inc()
			_ = pc.prom.SetError(fmt.Errorf("runtime: continuation %v: %w: locality %d",
				g, network.ErrLocalityDown, peer))
		}
	}
}

// retryCont re-routes one pending continuation to newDest, reporting
// success. The continuation GID is reused, so the (suppressed-duplicate)
// response from the dead locality and the retry's response race benignly:
// whichever arrives first fulfils the promise, the other finds the table
// entry gone.
func (l *Locality) retryCont(g agas.GID, pc *pendingCont, newDest int) bool {
	l.contMu.Lock()
	if _, still := l.conts[g]; !still {
		l.contMu.Unlock()
		return true // already completed; nothing to retry
	}
	pc.dest = newDest
	l.contMu.Unlock()
	if err := l.port.Put(l.outParcel(l.rt.locs[newDest].rootGID, newDest, pc.action, pc.args, g)); err != nil {
		return false
	}
	l.contsRetried.Inc()
	return true
}

// pickSurvivor returns a locality that is neither dead nor the excluded
// peer, preferring the caller's own locality (a local retry cannot be
// interrupted by another remote death).
func (rt *Runtime) pickSurvivor(dead, self int) (int, bool) {
	if self != dead && !rt.LocalityDead(self) {
		return self, true
	}
	for i := range rt.locs {
		if i != dead && i != self && !rt.LocalityDead(i) {
			return i, true
		}
	}
	return -1, false
}
