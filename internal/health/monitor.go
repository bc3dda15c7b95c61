package health

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counters"
	"repro/internal/trace"
)

// MonitorConfig wires one locality's Monitor into its runtime.
type MonitorConfig struct {
	// Config tunes the underlying detector and the monitor cadence.
	Config
	// Locality is the observing locality's id.
	Locality int
	// Peers is the total number of localities; every id except Locality
	// is watched.
	Peers int
	// SendHeartbeat transmits one explicit heartbeat to peer. The
	// monitor calls it only for links with no outbound traffic for a
	// heartbeat interval; errors are ignored (a failed heartbeat is
	// itself evidence the detector will accrue).
	SendHeartbeat func(peer int) error
	// LastSend reports when this locality last transmitted anything to
	// peer (zero time for never): the piggyback signal that suppresses
	// explicit heartbeats on busy links.
	LastSend func(peer int) time.Time
	// OnDown is invoked exactly once per peer, from the monitor
	// goroutine, when the peer's phi crosses the threshold.
	OnDown func(peer int)
	// OnSuspect is invoked (from the monitor goroutine) when a peer's
	// phi crosses the softer threshold, Config.PhiThreshold/2, and OnAlive
	// when it drops back below — the edge-triggered pair the gossip
	// membership layer turns into suspect/refute traffic. Unlike OnDown
	// these can fire repeatedly as suspicion flaps; nil disables.
	OnSuspect func(peer int)
	OnAlive   func(peer int)
	// Registry optionally receives the health counters
	// (/health{locality#i}/...); nil disables registration.
	Registry *counters.Registry
	// Trace optionally records suspicion events; nil disables.
	Trace *trace.Buffer
}

// Monitor is one locality's failure-detection service: it feeds the
// phi-accrual detector from received traffic, keeps idle links alive
// with explicit heartbeats, and declares peers down when their suspicion
// level crosses the threshold.
type Monitor struct {
	cfg      MonitorConfig
	det      *Detector
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	suspected  []atomic.Bool
	suspectHot []atomic.Bool // between soft-threshold crossings (soft suspicion)
	hbSeq      []atomic.Uint64
	holdUntil  []atomic.Int64 // per-peer conviction hold (unix ns), 0 = none

	// silenced pauses the sweep without stopping the goroutine: the
	// runtime sets it when this monitor's own locality is declared dead
	// (a dead observer must not convict anyone) and clears it on rejoin.
	silenced atomic.Bool

	// localHealth is the Lifeguard LHM score S in [0, maxLocalHealth]:
	// evidence that *this* node is the slow one. Effective thresholds
	// are the configured ones times (1 + S).
	localHealth atomic.Int64
	lastCredit  time.Time // sweep-goroutine only: last passive LHM decay

	// Counters: cumulative suspicions, heartbeats exchanged, and the
	// per-peer suspicion level (live phi, in milli-phi, and its peak).
	suspicions *counters.Raw
	hbSent     *counters.Raw
	hbRecv     *counters.Raw
	phiPeak    []*counters.Raw
}

// NewMonitor creates (but does not start) a monitor.
func NewMonitor(cfg MonitorConfig) *Monitor {
	cfg.Config = cfg.Config.WithDefaults()
	m := &Monitor{
		cfg:        cfg,
		det:        NewDetector(cfg.Config),
		stop:       make(chan struct{}),
		suspected:  make([]atomic.Bool, cfg.Peers),
		suspectHot: make([]atomic.Bool, cfg.Peers),
		hbSeq:      make([]atomic.Uint64, cfg.Peers),
		holdUntil:  make([]atomic.Int64, cfg.Peers),
		phiPeak:    make([]*counters.Raw, cfg.Peers),
	}
	inst := fmt.Sprintf("locality#%d", cfg.Locality)
	mk := func(name string) *counters.Raw {
		return counters.NewRaw(counters.Path{Object: "health", Instance: inst, Name: name})
	}
	m.suspicions = mk("count/suspicions")
	m.hbSent = mk("count/heartbeats-sent")
	m.hbRecv = mk("count/heartbeats-received")
	for p := 0; p < cfg.Peers; p++ {
		m.phiPeak[p] = mk(fmt.Sprintf("phi-peak/peer#%d", p))
	}
	if cfg.Registry != nil {
		for _, c := range []*counters.Raw{m.suspicions, m.hbSent, m.hbRecv} {
			cfg.Registry.MustRegister(c)
		}
		cfg.Registry.MustRegister(counters.NewDerived(counters.Path{
			Object: "health", Instance: inst, Name: "local-health",
		}, func() float64 { return float64(m.localHealth.Load()) }))
		for p := 0; p < cfg.Peers; p++ {
			if p == cfg.Locality {
				continue
			}
			cfg.Registry.MustRegister(m.phiPeak[p])
			p := p
			cfg.Registry.MustRegister(counters.NewDerived(counters.Path{
				Object: "health", Instance: inst, Name: fmt.Sprintf("phi/peer#%d", p),
			}, func() float64 { return m.Phi(p) }))
		}
	}
	return m
}

// Start begins watching every peer and launches the monitor goroutine.
func (m *Monitor) Start() {
	now := time.Now()
	for p := 0; p < m.cfg.Peers; p++ {
		if p != m.cfg.Locality {
			m.det.Watch(p, now)
		}
	}
	m.wg.Add(1)
	go m.run()
}

// Stop terminates the monitor goroutine. It is idempotent and safe to
// call concurrently (the runtime's death propagation and Shutdown can
// race to silence the same monitor).
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// Silence pauses the monitor's sweep without stopping its goroutine:
// no heartbeats are sent and no suspicions accrue until Unsilence. The
// runtime silences a monitor when its locality is declared dead — a
// partitioned node's monitor must not keep convicting the peers it can
// no longer hear — and unsilences it on rejoin.
func (m *Monitor) Silence() { m.silenced.Store(true) }

// Unsilence resumes a silenced monitor's sweep.
func (m *Monitor) Unsilence() { m.silenced.Store(false) }

// DeferConviction holds back the terminal OnDown verdict for peer until
// at least the given time, without suppressing soft suspicion. The
// membership layer calls this while an indirect-probe round is in
// flight: a relayed ack is better evidence than local silence, so the
// verdict waits for it. Later deadlines win; an earlier call never
// shortens an existing hold.
func (m *Monitor) DeferConviction(peer int, until time.Time) {
	if peer < 0 || peer >= m.cfg.Peers {
		return
	}
	ns := until.UnixNano()
	for {
		cur := m.holdUntil[peer].Load()
		if cur >= ns || m.holdUntil[peer].CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Revive clears peer's conviction and suspicion state and resets its
// detector history, restarting the grace period: the rejoin path calls
// it when a previously-down peer re-enters the membership, so the
// monitor can convict the same peer again if it fails a second time.
func (m *Monitor) Revive(peer int) {
	if peer < 0 || peer >= m.cfg.Peers {
		return
	}
	m.holdUntil[peer].Store(0)
	m.suspectHot[peer].Store(false)
	m.suspected[peer].Store(false)
	m.det.Reset(peer, time.Now())
}

// Penalize bumps the Lifeguard local-health score: the caller observed
// evidence that this node, not its peers, is the slow party (a probe
// round that produced no acks, a suspicion a peer had to refute).
// Saturates at maxLocalHealth.
func (m *Monitor) Penalize() {
	for {
		cur := m.localHealth.Load()
		if cur >= maxLocalHealth || m.localHealth.CompareAndSwap(cur, cur+1) {
			return
		}
	}
}

// Credit decays the local-health score by one: evidence of normal
// operation (a probe ack arrived, a quiet sweep). Floors at zero.
func (m *Monitor) Credit() {
	for {
		cur := m.localHealth.Load()
		if cur <= 0 || m.localHealth.CompareAndSwap(cur, cur-1) {
			return
		}
	}
}

// Heartbeat records a liveness observation of peer: the parcel port
// calls it for every received wire message (piggybacked heartbeats), and
// the runtime's heartbeat action for explicit beacons.
func (m *Monitor) Heartbeat(peer int) {
	if peer < 0 || peer >= m.cfg.Peers || peer == m.cfg.Locality {
		return
	}
	m.hbRecv.Inc()
	m.det.Heartbeat(peer, time.Now())
}

// Phi returns peer's current suspicion level.
func (m *Monitor) Phi(peer int) float64 { return m.det.Phi(peer, time.Now()) }

// Suspected reports whether this monitor has declared peer down.
func (m *Monitor) Suspected(peer int) bool {
	return peer >= 0 && peer < m.cfg.Peers && m.suspected[peer].Load()
}

// Suspicions returns how many peers this monitor has declared down.
func (m *Monitor) Suspicions() int64 { return m.suspicions.Get() }

// NextSeq returns the next heartbeat sequence number for peer.
func (m *Monitor) NextSeq(peer int) uint64 {
	if peer < 0 || peer >= m.cfg.Peers {
		return 0
	}
	return m.hbSeq[peer].Add(1)
}

func (m *Monitor) run() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-ticker.C:
			m.sweep(now)
		}
	}
}

// sweep is one monitor tick: keep idle links warm, re-evaluate phi, and
// fire OnDown for newly suspected peers.
func (m *Monitor) sweep(now time.Time) {
	if m.silenced.Load() {
		return
	}
	// Lifeguard: stretch both thresholds by (1 + S) while the local
	// node itself looks unhealthy, so a stalled observer suspects more
	// slowly instead of convicting reachable peers.
	mult := 1 + float64(m.localHealth.Load())
	effSuspect := m.cfg.PhiThreshold / 2 * mult
	effDown := m.cfg.PhiThreshold * mult
	anyHot := false
	for p := 0; p < m.cfg.Peers; p++ {
		if p == m.cfg.Locality || m.suspected[p].Load() {
			continue
		}
		// Idle-link heartbeat: only links that carried no outbound
		// traffic for an interval pay for an explicit beacon — the
		// peer's detector counts every frame we send as a heartbeat.
		if m.cfg.SendHeartbeat != nil {
			idleSince := time.Time{}
			if m.cfg.LastSend != nil {
				idleSince = m.cfg.LastSend(p)
			}
			if now.Sub(idleSince) >= m.cfg.HeartbeatInterval {
				if m.cfg.SendHeartbeat(p) == nil {
					m.hbSent.Inc()
				}
			}
		}
		phi := m.det.Phi(p, now)
		m.phiPeak[p].SetMax(int64(phi * 1000))
		// Soft suspicion: edge-triggered crossings of the lower threshold,
		// reported before (and independently of) the terminal
		// OnDown verdict so a membership layer can gossip and refute.
		if phi >= effSuspect {
			anyHot = true
			if m.suspectHot[p].CompareAndSwap(false, true) && m.cfg.OnSuspect != nil {
				m.cfg.OnSuspect(p)
			}
		} else if m.suspectHot[p].CompareAndSwap(true, false) {
			// A suspicion that resolved itself is weak evidence we were
			// the slow party: decay toward convicting readily again only
			// after quiet sweeps (below), but credit the recovery now.
			m.Credit()
			if m.cfg.OnAlive != nil {
				m.cfg.OnAlive(p)
			}
		}
		if phi >= effDown && now.UnixNano() >= m.holdUntil[p].Load() &&
			m.suspected[p].CompareAndSwap(false, true) {
			m.suspicions.Inc()
			m.cfg.Trace.Record(trace.Event{
				Kind: trace.KindLinkDown, Name: "suspect",
				Locality: m.cfg.Locality, Start: now, Arg: int64(p),
			})
			if m.cfg.OnDown != nil {
				m.cfg.OnDown(p)
			}
		}
	}
	// Passive LHM decay: a stretch of sweeps with nothing suspect means
	// the local node is keeping up again.
	if !anyHot {
		if m.lastCredit.IsZero() {
			m.lastCredit = now
		} else if now.Sub(m.lastCredit) >= 4*m.cfg.HeartbeatInterval {
			m.Credit()
			m.lastCredit = now
		}
	} else {
		m.lastCredit = now
	}
}
