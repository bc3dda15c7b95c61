package runtime

import (
	"fmt"
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
// triggers DeclareDown. Called from New when cfg.Health.Enabled, or later
// through StartHealth (cluster mode defers it until peer addresses are
// known, so early heartbeats don't burn the reliability layer's retry
// budget against unreachable peers).
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
			LastSend: l.port.LastSend,
			OnDown: func(peer int) {
				// A crashed locality's monitor sees every survivor go
				// silent (its links are dead in both directions); its
				// verdicts must not poison the living.
				if rt.silenced[i].Load() {
					return
				}
				// Verdict subscribers run first: DeclareDown blocks all
				// further sends to the peer, and a membership layer needs
				// one last chance to tell a wrongly-convicted (e.g.
				// one-way-partitioned) peer it has been condemned.
				rt.notifyVerdict(i, peer)
				rt.DeclareDown(peer)
			},
			OnSuspect: func(peer int) { rt.notifySuspicion(i, peer, true) },
			OnAlive:   func(peer int) { rt.notifySuspicion(i, peer, false) },
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

// SubscribeSuspicion registers fn to be invoked (from a monitor
// goroutine) whenever a hosted locality's detector crosses the suspicion
// threshold for a peer (suspected=true) or backs off below it
// (suspected=false). Suspicion is softer than death: it precedes OnDown
// and may flap — the SWIM-style membership layer gossips it so peers can
// refute before the confirmed-down verdict. Subscriptions cannot be
// removed.
func (rt *Runtime) SubscribeSuspicion(fn func(observer, peer int, suspected bool)) {
	if fn == nil {
		return
	}
	rt.deathMu.Lock()
	rt.suspSubs = append(rt.suspSubs, fn)
	rt.deathMu.Unlock()
}

// SubscribeVerdict registers fn to be invoked (from the monitor
// goroutine) after a hosted locality's detector crosses the hard
// PhiThreshold for a peer but *before* the runtime declares the peer
// down. While death subscribers see a fait accompli — the peer is
// already unroutable — verdict subscribers can still send to it, which
// the membership layer uses for a final obituary.
func (rt *Runtime) SubscribeVerdict(fn func(observer, peer int)) {
	if fn == nil {
		return
	}
	rt.deathMu.Lock()
	rt.verdictSubs = append(rt.verdictSubs, fn)
	rt.deathMu.Unlock()
}

func (rt *Runtime) notifyVerdict(observer, peer int) {
	rt.deathMu.Lock()
	subs := append([]func(int, int){}, rt.verdictSubs...)
	rt.deathMu.Unlock()
	for _, fn := range subs {
		fn(observer, peer)
	}
}

func (rt *Runtime) notifySuspicion(observer, peer int, suspected bool) {
	if rt.silenced[observer].Load() {
		return
	}
	rt.deathMu.Lock()
	subs := append([]func(int, int, bool){}, rt.suspSubs...)
	rt.deathMu.Unlock()
	for _, fn := range subs {
		fn(observer, peer, suspected)
	}
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

// SubscribeDeath registers fn to be invoked (synchronously, from the
// goroutine that declares the death) whenever a locality is declared
// down. Applications use it to re-plan work owned by the dead locality.
func (rt *Runtime) SubscribeDeath(fn func(peer int)) {
	if fn == nil {
		return
	}
	rt.deathMu.Lock()
	rt.deathSubs = append(rt.deathSubs, fn)
	rt.deathMu.Unlock()
}

// LocalityDead reports whether the locality has been declared down.
func (rt *Runtime) LocalityDead(i int) bool {
	return i >= 0 && i < len(rt.silenced) && rt.dead[i].Load()
}

// CrashLocality is the crash injector's runtime-side hook: it silences
// the locality's own failure detector the instant its wire dies, so a
// corpse cannot declare the survivors down (in a real deployment the
// dead process's detector dies with it; in-process it must be told).
// It does NOT mark the locality dead for routing — survivors still have
// to detect the crash through phi accrual, which is what the detection-
// latency metric measures. The monitor is silenced, not stopped: a
// rejoin (DeclareUp) can resume it, and silencing is a non-blocking
// flag flip so two monitors convicting each other cannot deadlock.
func (rt *Runtime) CrashLocality(i int) {
	if i < 0 || i >= len(rt.silenced) || rt.silenced[i].Swap(true) {
		return
	}
	if m := rt.Monitor(i); m != nil {
		m.Silence()
	}
}

// peerFailer is implemented by transports (the reliable fabric) that can
// fail all links touching a peer at once.
type peerFailer interface{ FailPeer(peer int) }

// DeclareDown declares a locality crash-stopped and degrades gracefully:
// AGAS resolutions to it fail with network.ErrLocalityDown, the reliable
// transport (if present) fails its links fast, every port flushes and
// fast-fails parcels targeting it, pending continuations on it are
// poisoned (or, for retryable actions, re-routed to a survivor), and
// death subscribers are notified. Idempotent; normally invoked by the
// failure detector's OnDown, but applications and tests may call it
// directly.
func (rt *Runtime) DeclareDown(peer int) {
	if peer < 0 || peer >= len(rt.locs) || rt.dead[peer].Swap(true) {
		return
	}
	rt.cfg.Trace.Record(trace.Event{
		Kind: trace.KindLinkDown, Name: "locality-down",
		Start: time.Now(), Locality: peer,
	})
	// The dead locality's own detector is silenced first (see
	// CrashLocality); asynchronously, because two monitors declaring each
	// other down would otherwise deadlock stopping one another.
	rt.CrashLocality(peer)
	rt.agas.MarkDown(peer)
	if pf, ok := rt.fabric.(peerFailer); ok {
		pf.FailPeer(peer)
	}
	for i, l := range rt.locs {
		if i == peer || !l.hosted {
			continue
		}
		l.port.FailDest(peer)
		l.failConts(peer)
	}
	rt.deathMu.Lock()
	subs := append([]func(int){}, rt.deathSubs...)
	rt.deathMu.Unlock()
	for _, fn := range subs {
		fn(peer)
	}
}

// peerReopener is implemented by transports (the reliable fabric) that
// can reopen all links touching a previously-failed peer.
type peerReopener interface{ ReopenPeer(peer int) }

// SubscribeUp registers fn to be invoked (synchronously, from the
// goroutine that declares the rejoin) whenever a previously-down
// locality is declared up again. The up edge mirrors SubscribeDeath:
// applications that re-planned work away from the dead locality can
// start scheduling onto it again.
func (rt *Runtime) SubscribeUp(fn func(peer int)) {
	if fn == nil {
		return
	}
	rt.deathMu.Lock()
	rt.upSubs = append(rt.upSubs, fn)
	rt.deathMu.Unlock()
}

// DeclareUp reverses DeclareDown for a peer whose partition has healed:
// AGAS resolutions to it succeed again, the reliable transport reopens
// its links under a fresh session epoch (stale pre-partition frames are
// dropped, not resequenced), ports accept parcels for it again, every
// hosted monitor's detector state for it is reset (fresh grace period,
// so it is not insta-reconvicted on stale silence), and up subscribers
// are notified. Parcels and continuations failed while the peer was
// down stay failed — un-degradation restores the road, not the traffic
// that crashed on it. Idempotent; a no-op for peers not currently down.
// Normally invoked by the membership layer's rejoin protocol.
func (rt *Runtime) DeclareUp(peer int) {
	if peer < 0 || peer >= len(rt.locs) || !rt.dead[peer].Swap(false) {
		return
	}
	rt.cfg.Trace.Record(trace.Event{
		Kind: trace.KindLinkDown, Name: "locality-up",
		Start: time.Now(), Locality: peer,
	})
	// Un-degrade bottom-up: transport first, so by the time routing
	// (AGAS, ports) accepts traffic for the peer the links can carry it.
	if pr, ok := rt.fabric.(peerReopener); ok {
		pr.ReopenPeer(peer)
	}
	rt.agas.ClearDown(peer)
	for i, l := range rt.locs {
		if i == peer || !l.hosted {
			continue
		}
		l.port.ReopenDest(peer)
		if m := rt.Monitor(i); m != nil {
			m.Revive(peer)
		}
	}
	// The revived locality's own monitor resumes sweeping with fresh
	// detector state toward every live peer: its pre-partition windows
	// are full of partition-length silences that would insta-convict.
	rt.silenced[peer].Store(false)
	if m := rt.Monitor(peer); m != nil {
		for i := range rt.locs {
			if i != peer && !rt.dead[i].Load() {
				m.Revive(i)
			}
		}
		m.Unsilence()
	}
	rt.deathMu.Lock()
	subs := append([]func(int){}, rt.upSubs...)
	rt.deathMu.Unlock()
	for _, fn := range subs {
		fn(peer)
	}
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
		if i != dead && i != self && !rt.dead[i].Load() {
			return i, true
		}
	}
	return -1, false
}
