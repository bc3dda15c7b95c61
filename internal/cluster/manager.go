package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/counters"
	"repro/internal/network"
	"repro/internal/runtime"
)

// Action names registered by the Service. Join carries a joiner's
// one-entry table to a seed; Gossip carries a full membership table and
// doubles as the join reply. The three ping actions implement SWIM's
// indirect probe: before escalating a suspicion to conviction, the
// origin asks probeFanout relays (PingReq) to ping the suspect on its
// behalf; the suspect acks back through the relay (Ping → PingAck), so
// a broken origin↔suspect link is routed around instead of convicting a
// reachable node.
const (
	ActionJoin    = "cluster/join"
	ActionGossip  = "cluster/gossip"
	ActionPingReq = "cluster/ping-req"
	ActionPing    = "cluster/ping"
	ActionPingAck = "cluster/ping-ack"
)

// AddrBook receives peer addresses learned from membership gossip;
// network.TCPFabric implements it (a no-op for the localities it hosts
// itself). nil disables address installation.
type AddrBook interface {
	SetPeerAddr(id int, addr string) error
}

// Options configures the cluster membership service.
type Options struct {
	// GossipInterval is the period between gossip rounds (default 25ms).
	// Gossip frames double as phi-accrual heartbeat traffic, so this
	// should not exceed the health monitor's HeartbeatInterval by much.
	// One indirect-probe round is bounded by 4×GossipInterval; an
	// unanswered round penalizes local health (Lifeguard LHM) and may
	// retry.
	GossipInterval time.Duration
	// AdvertiseAddr is the address gossiped as this process's hosted
	// localities' dial address (empty for in-process fabrics).
	AdvertiseAddr string
	// Seed seeds target selection, making in-process tests deterministic
	// (default 1).
	Seed int64
	// AddrBook receives addresses carried by membership entries; nil
	// disables installation (in-process fabrics need none).
	AddrBook AddrBook
	// JoinEpoch is this process-lifetime's epoch (see Member.Epoch). 0
	// for in-process clusters; amc-node derives it from wall-clock so a
	// restart joins at a strictly higher epoch than the crashed life.
	JoinEpoch uint64
}

func (o Options) withDefaults() Options {
	if o.GossipInterval <= 0 {
		o.GossipInterval = 25 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

const (
	// fanout is how many random live peers each gossip round targets.
	fanout = 3
	// probeFanout is how many relays each indirect-probe round asks.
	probeFanout = 2
	// rejoinProbeEvery is the gossip-tick period of resurrection probes
	// sent to confirmed-down members.
	rejoinProbeEvery = 4
)

// maxProbeRounds caps indirect-probe retries per suspicion episode: past
// this, the detector's verdict stands unassisted (the suspect really is
// unreachable from everywhere we can ask).
const maxProbeRounds = 3

// rebirthRefuteRounds is how many gossip ticks a reborn member
// broadcasts its refuted table over raw probe frames. Probe frames
// bypass the reliability layer's down-peer gates in both directions,
// which matters because after a heal every survivor still has the
// reborn node crash-stopped — ordinary gossip from it would be refused
// until DeclareUp runs, a chicken-and-egg the probe channel breaks.
const rebirthRefuteRounds = 10

// Service runs SWIM-style membership for every hosted locality of a
// runtime: it registers the join/gossip actions, bridges the phi-accrual
// detector's suspicion edges into gossiped suspect/refute traffic, and
// turns confirmed-down verdicts — local or gossiped — into the runtime's
// crash-stop degradation (DeclareDown).
type Service struct {
	rt     *runtime.Runtime
	opts   Options
	mgrs   []*Manager // indexed by locality; nil for non-hosted
	prober Prober     // nil when the fabric has no out-of-band probe channel
}

// Prober is the out-of-band probe channel the reliable fabric exposes:
// raw frames that bypass sequencing, ACKs, and — critically — the
// crash-stop down-peer gates, so membership tables can reach and leave
// a confirmed-down node after a partition heals. reliable.Fabric
// implements it; plain fabrics don't, which disables rejoin traffic.
type Prober interface {
	SendProbe(src, dst int, payload []byte) error
	SetProbeHandler(dst int, h func(src int, payload []byte))
}

// NewService creates the membership service and registers its actions.
// Call Start to begin gossiping (after the join barrier in cluster mode).
func NewService(rt *runtime.Runtime, opts Options) *Service {
	s := &Service{rt: rt, opts: opts.withDefaults(), mgrs: make([]*Manager, rt.Localities())}
	s.prober, _ = rt.Fabric().(Prober)
	for i := 0; i < rt.Localities(); i++ {
		if rt.Hosted(i) {
			s.mgrs[i] = newManager(s, i)
			if s.prober != nil {
				self := i
				s.prober.SetProbeHandler(self, func(src int, payload []byte) {
					s.handleProbeFrame(self, payload)
				})
			}
		}
	}
	rt.MustRegisterAction(ActionJoin, s.handleJoin)
	rt.MustRegisterAction(ActionGossip, s.handleGossip)
	rt.MustRegisterAction(ActionPingReq, s.handlePingReq)
	rt.MustRegisterAction(ActionPing, s.handlePing)
	rt.MustRegisterAction(ActionPingAck, s.handlePingAck)
	rt.SubscribePeer(s.onPeer)
	return s
}

// handleProbeFrame processes a raw probe frame (a membership table sent
// outside the reliability machinery: resurrection probes to Down
// members and rebirth refute broadcasts). It owns the pooled payload.
func (s *Service) handleProbeFrame(self int, payload []byte) {
	ms, err := DecodeMembership(payload)
	network.PutPayload(payload)
	if err != nil {
		return
	}
	if m := s.Manager(self); m != nil {
		m.Merge(ms)
	}
}

// Manager returns locality i's membership manager (nil for non-hosted).
func (s *Service) Manager(i int) *Manager {
	if i < 0 || i >= len(s.mgrs) {
		return nil
	}
	return s.mgrs[i]
}

// Start launches every hosted manager's gossip loop.
func (s *Service) Start() {
	for _, m := range s.mgrs {
		if m != nil {
			m.start()
		}
	}
}

// Stop terminates the gossip loops. Idempotent.
func (s *Service) Stop() {
	for _, m := range s.mgrs {
		if m != nil {
			m.stopLoop()
		}
	}
}

func (s *Service) handleGossip(ctx *runtime.Context, args []byte) ([]byte, error) {
	ms, err := DecodeMembership(args)
	if err != nil {
		return nil, err
	}
	if m := s.Manager(ctx.Locality); m != nil {
		m.Merge(ms)
	}
	return nil, nil
}

// handleJoin merges the joiner's self entry (installing its address) and
// replies with the full local table, so one round trip teaches the
// joiner every member the seed knows — including itself.
func (s *Service) handleJoin(ctx *runtime.Context, args []byte) ([]byte, error) {
	ms, err := DecodeMembership(args)
	if err != nil {
		return nil, err
	}
	m := s.Manager(ctx.Locality)
	if m == nil {
		return nil, fmt.Errorf("cluster: join targeted non-hosted locality %d", ctx.Locality)
	}
	m.Merge(ms)
	reply := EncodeMembership(nil, m.Members())
	_ = s.rt.Locality(ctx.Locality).Apply(ctx.Source, ActionGossip, reply)
	return nil, nil
}

// handlePingReq runs at a relay: forward the origin's probe to the
// suspect as a direct ping. The message is re-encoded rather than
// forwarded as the borrowed args slice, which the runtime may recycle.
func (s *Service) handlePingReq(ctx *runtime.Context, args []byte) ([]byte, error) {
	pm, err := DecodeProbe(args)
	if err != nil {
		return nil, err
	}
	_ = s.rt.Locality(ctx.Locality).Apply(pm.Target, ActionPing, EncodeProbe(nil, pm))
	return nil, nil
}

// handlePing runs at the suspect: ack back through the relay that
// delivered the ping (ctx.Source), not directly to the origin — the
// direct path is exactly the link under suspicion.
func (s *Service) handlePing(ctx *runtime.Context, args []byte) ([]byte, error) {
	pm, err := DecodeProbe(args)
	if err != nil {
		return nil, err
	}
	_ = s.rt.Locality(ctx.Locality).Apply(ctx.Source, ActionPingAck, EncodeProbe(nil, pm))
	return nil, nil
}

// handlePingAck runs at a relay (forward to the origin) or at the
// origin (indirect evidence the suspect lives: feed the detector).
func (s *Service) handlePingAck(ctx *runtime.Context, args []byte) ([]byte, error) {
	pm, err := DecodeProbe(args)
	if err != nil {
		return nil, err
	}
	if pm.Origin != ctx.Locality {
		_ = s.rt.Locality(ctx.Locality).Apply(pm.Origin, ActionPingAck, EncodeProbe(nil, pm))
		return nil, nil
	}
	if m := s.Manager(ctx.Locality); m != nil {
		m.probeAcked(pm.Nonce)
	}
	return nil, nil
}

// onPeer bridges the runtime's peer events into membership. Suspicion
// and its retraction become gossiped suspect/refute traffic. A verdict
// arrives while the peer is still routable, so the observer sends it one
// obituary carrying its Down entry: a wrongly-convicted node (one-way
// partition: mute but still hearing) learns of its conviction and
// refutes it. A down, declared on this process, is recorded and
// rebroadcast so every survivor degrades too.
func (s *Service) onPeer(ev runtime.PeerEvent) {
	if ev.Kind == runtime.PeerDown {
		for _, m := range s.mgrs {
			if m != nil {
				m.markDown(ev.Peer)
			}
		}
		return
	}
	m := s.Manager(ev.Observer)
	if m == nil {
		return
	}
	switch ev.Kind {
	case runtime.PeerSuspect:
		m.suspect(ev.Peer)
	case runtime.PeerAlive:
		m.unsuspect(ev.Peer)
	case runtime.PeerVerdict:
		m.sendObituary(ev.Peer)
	}
}

// Seed is one bootstrap contact: a locality id and its dial address.
type Seed struct {
	ID   int
	Addr string
}

// ParseSeed parses the "id@host:port" form used by command-line flags.
func ParseSeed(s string) (Seed, error) {
	id, addr, ok := strings.Cut(s, "@")
	if !ok {
		return Seed{}, fmt.Errorf("cluster: seed %q: want id@addr", s)
	}
	n, err := strconv.Atoi(id)
	if err != nil || n < 0 {
		return Seed{}, fmt.Errorf("cluster: seed %q: bad locality id", s)
	}
	if addr == "" {
		return Seed{}, fmt.Errorf("cluster: seed %q: empty address", s)
	}
	return Seed{ID: n, Addr: addr}, nil
}

// ErrJoinTimeout reports that the bootstrap barrier was not reached.
var ErrJoinTimeout = errors.New("cluster: join timed out")

// Join bootstraps locality self into the cluster: seed addresses are
// installed, the join request (a one-entry table carrying self's
// advertise address) is re-sent to every seed until the member table
// reaches size, and the call returns once it does. Safe to call before
// Start; the join replies arrive through the gossip action regardless.
func (s *Service) Join(self int, seeds []Seed, size int, timeout time.Duration) error {
	m := s.Manager(self)
	if m == nil {
		return fmt.Errorf("cluster: locality %d is not hosted", self)
	}
	for _, sd := range seeds {
		if sd.ID == self {
			continue
		}
		if s.opts.AddrBook != nil {
			if err := s.opts.AddrBook.SetPeerAddr(sd.ID, sd.Addr); err != nil {
				return fmt.Errorf("cluster: installing seed %d@%s: %w", sd.ID, sd.Addr, err)
			}
		}
	}
	deadline := time.Now().Add(timeout)
	loc := s.rt.Locality(self)
	for {
		req := EncodeMembership(nil, []Member{m.selfEntry()})
		for _, sd := range seeds {
			if sd.ID != self {
				_ = loc.Apply(sd.ID, ActionJoin, req)
			}
		}
		if m.AwaitSize(size, 100*time.Millisecond) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: locality %d has %d/%d members after %v",
				ErrJoinTimeout, self, len(m.Members()), size, timeout)
		}
	}
}

// Manager is one hosted locality's view of the membership table and the
// gossip loop that disseminates it.
type Manager struct {
	svc  *Service
	self int

	mu      sync.Mutex
	members map[int]Member
	selfInc uint64
	epoch   uint64
	rng     *rand.Rand
	// obituaryInc is the incarnation of the newest obituary about this
	// lifetime that has been heard (0: none; incarnations start at 1).
	obituaryInc uint64

	// Indirect-probe state: pending maps an in-flight probe round's
	// nonce to its target and deadline; probeRounds counts rounds spent
	// on the current suspicion episode (reset when the suspect acks or
	// suspicion clears); tick numbers gossip rounds for the resurrection
	// cadence; refuteRounds counts down the rebirth broadcast.
	pending      map[uint64]pendingProbe
	probeRounds  map[int]int
	nonceCtr     uint64
	tick         uint64
	refuteRounds int

	stop     chan struct{}
	stopOnce sync.Once
	started  bool
	wg       sync.WaitGroup

	gossipSent *counters.Raw
	gossipRecv *counters.Raw
	refutes    *counters.Raw
	downSeen   *counters.Raw
	probesSent *counters.Raw
	probeAcks  *counters.Raw
	probeFails *counters.Raw
	rebirths   *counters.Raw
	upSeen     *counters.Raw
}

// pendingProbe is one in-flight indirect-probe round.
type pendingProbe struct {
	target  int
	expires time.Time
}

func newManager(s *Service, self int) *Manager {
	m := &Manager{
		svc:         s,
		self:        self,
		members:     make(map[int]Member),
		selfInc:     1,
		epoch:       s.opts.JoinEpoch,
		pending:     make(map[uint64]pendingProbe),
		probeRounds: make(map[int]int),
		rng:         rand.New(rand.NewSource(s.opts.Seed + int64(self))),
		stop:        make(chan struct{}),
	}
	m.members[self] = Member{ID: self, Incarnation: 1, Epoch: m.epoch, State: StateAlive, Addr: s.opts.AdvertiseAddr}
	inst := fmt.Sprintf("locality#%d", self)
	mk := func(name string) *counters.Raw {
		return counters.NewRaw(counters.Path{Object: "cluster", Instance: inst, Name: name})
	}
	m.gossipSent = mk("count/gossip-sent")
	m.gossipRecv = mk("count/gossip-received")
	m.refutes = mk("count/refutations")
	m.downSeen = mk("count/members-down")
	m.probesSent = mk("count/probes-sent")
	m.probeAcks = mk("count/probe-acks")
	m.probeFails = mk("count/probe-failures")
	m.rebirths = mk("count/rebirths")
	m.upSeen = mk("count/members-up")
	if reg := s.rt.Locality(self).Registry(); reg != nil {
		for _, c := range []*counters.Raw{
			m.gossipSent, m.gossipRecv, m.refutes, m.downSeen,
			m.probesSent, m.probeAcks, m.probeFails, m.rebirths, m.upSeen,
		} {
			reg.MustRegister(c)
		}
	}
	return m
}

func (m *Manager) start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	m.wg.Add(1)
	go m.run()
}

func (m *Manager) stopLoop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

func (m *Manager) run() {
	defer m.wg.Done()
	t := time.NewTicker(m.svc.opts.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.maintain()
			m.gossipNow()
		}
	}
}

// Members returns a sorted snapshot of the membership table.
func (m *Manager) Members() []Member {
	m.mu.Lock()
	ms := make([]Member, 0, len(m.members))
	for _, e := range m.members {
		ms = append(ms, e)
	}
	m.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return ms
}

// Lookup returns the entry for a member id.
func (m *Manager) Lookup(id int) (Member, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.members[id]
	return e, ok
}

// AwaitSize polls until the table holds at least size members (any
// state) or the wait times out, reporting success.
func (m *Manager) AwaitSize(size int, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		m.mu.Lock()
		n := len(m.members)
		m.mu.Unlock()
		if n >= size {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (m *Manager) selfEntry() Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.members[m.self]
}

// Merge folds a received membership table into the local one under the
// (Epoch, Incarnation, State) order, installing learned addresses,
// refuting rumors about self, degrading (DeclareDown) for newly
// confirmed-down members, and un-degrading (DeclareUp) for members that
// supersede Down with a live entry. Exposed for tests and the join path;
// the gossip action calls it for every received table.
func (m *Manager) Merge(ms []Member) {
	m.gossipRecv.Inc()
	var newlyDown, newlyUp []int
	changed := false

	m.mu.Lock()
	for _, e := range ms {
		if e.ID < 0 || e.ID >= m.svc.rt.Localities() {
			continue // hostile or misconfigured peer; ignore the entry
		}
		if e.ID == m.self {
			if m.hearAboutSelf(e) {
				changed = true
			}
			continue
		}
		cur, known := m.members[e.ID]
		if known && !supersedes(e, cur) {
			continue
		}
		// A less specific rumor must not erase a known dial address.
		if e.Addr == "" && known && cur.Addr != "" {
			e.Addr = cur.Addr
		}
		// Install the address before the member becomes routable, so the
		// first send finds it dialable.
		if e.Addr != "" && m.svc.opts.AddrBook != nil && (!known || cur.Addr != e.Addr) {
			_ = m.svc.opts.AddrBook.SetPeerAddr(e.ID, e.Addr)
		}
		m.members[e.ID] = e
		changed = true
		if e.State == StateDown && (!known || cur.State != StateDown) {
			m.downSeen.Inc()
			newlyDown = append(newlyDown, e.ID)
		}
		if known && cur.State == StateDown && e.State != StateDown {
			m.upSeen.Inc()
			m.probeRounds[e.ID] = 0
			newlyUp = append(newlyUp, e.ID)
		}
	}
	m.mu.Unlock()

	// A down transition publishes PeerDown synchronously to this
	// service's own markDown, which takes the lock, so transitions are
	// started without it. Up before down: a table can carry both kinds of
	// news, and restoring a healed member never depends on degrading
	// another.
	for _, id := range newlyUp {
		m.svc.rt.DeclareUp(id)
	}
	// Before the route closes, send the convicted peer one best-effort
	// obituary: down members are excluded from gossip targets, so a
	// wrongly-convicted node (e.g. one-way partition) learns of its
	// conviction from this or, later, from a resurrection probe.
	if len(newlyDown) > 0 {
		obituary := EncodeMembership(nil, m.Members())
		loc := m.svc.rt.Locality(m.self)
		for _, id := range newlyDown {
			_ = loc.Apply(id, ActionGossip, obituary)
			m.svc.rt.DeclareDown(id)
		}
	}
	if changed {
		m.gossipNow()
	}
}

// hearAboutSelf applies one rumor about this node itself, with m.mu
// held, and reports whether the self entry changed. A rumor about
// another lifetime is inert: an older epoch is already superseded by our
// very existence, and a newer one is impossible (nobody mints our epochs
// but us). At our own epoch, a Suspect or Down rumor at or above our
// incarnation is refuted by outbidding it.
//
// A Down rumor there is an obituary for this very lifetime — a
// partition, not a crash, since we are running. The first obituary at
// an incarnation counts one rebirth, even when this life has already
// outbid it (a one-way partition lets a suspicion in and the refutation
// not out, so the conviction arrives stale); its repeats count nothing.
// Every obituary, stale or not, restarts the probe-frame broadcast: its
// sender evidently has not heard the refutation and still has us
// crash-stopped, beyond the reach of ordinary gossip.
func (m *Manager) hearAboutSelf(e Member) bool {
	if e.Epoch != m.epoch || e.State == StateAlive {
		return false
	}
	if e.State == StateDown {
		m.refuteRounds = rebirthRefuteRounds
		if e.Incarnation > m.obituaryInc {
			m.obituaryInc = e.Incarnation
			m.rebirths.Inc()
		}
	}
	if e.Incarnation < m.selfInc {
		return false
	}
	m.selfInc = e.Incarnation + 1
	self := m.members[m.self]
	self.Incarnation = m.selfInc
	self.State = StateAlive
	m.members[m.self] = self
	m.refutes.Inc()
	return true
}

// suspect records the local detector's soft verdict and gossips it so
// the suspected member can refute.
func (m *Manager) suspect(peer int) {
	m.mu.Lock()
	e, ok := m.members[peer]
	if !ok || e.State != StateAlive {
		m.mu.Unlock()
		return
	}
	e.State = StateSuspect
	m.members[peer] = e
	m.probeRounds[peer] = 0
	m.mu.Unlock()
	// Before the phi verdict can harden, try to reach the suspect through
	// relays: a healthy indirect path refutes the suspicion without the
	// suspect ever hearing about it.
	m.beginProbe(peer)
	m.gossipNow()
}

// unsuspect clears local suspicion when phi drops back: fresh direct
// evidence outranks our own stale rumor, but only at the incarnation we
// suspected (a refutation with a higher incarnation stands on its own).
func (m *Manager) unsuspect(peer int) {
	m.mu.Lock()
	if e, ok := m.members[peer]; ok && e.State == StateSuspect {
		e.State = StateAlive
		m.members[peer] = e
	}
	m.probeRounds[peer] = 0
	m.mu.Unlock()
}

// markDown records a confirmed-down verdict (from the local detector's
// hard threshold or a merged rumor) and rebroadcasts it once.
func (m *Manager) markDown(peer int) {
	m.mu.Lock()
	e, ok := m.members[peer]
	if peer == m.self || (ok && e.State == StateDown) {
		m.mu.Unlock()
		return
	}
	if !ok {
		e = Member{ID: peer}
	}
	e.State = StateDown
	m.members[peer] = e
	m.downSeen.Inc()
	m.mu.Unlock()
	m.gossipNow()
}

// sendObituary sends peer a copy of the table with peer's own entry
// forced to Down — without mutating the table (markDown does that,
// consistently, once the down transition publishes PeerDown).
func (m *Manager) sendObituary(peer int) {
	m.mu.Lock()
	ms := make([]Member, 0, len(m.members))
	for id, e := range m.members {
		if id == peer {
			e.State = StateDown
		}
		ms = append(ms, e)
	}
	if _, known := m.members[peer]; !known {
		ms = append(ms, Member{ID: peer, State: StateDown})
	}
	m.mu.Unlock()
	loc := m.svc.rt.Locality(m.self)
	if loc.Apply(peer, ActionGossip, EncodeMembership(nil, ms)) != nil {
		return
	}
	// Push the obituary onto the wire before the down transition fails
	// the port, which would otherwise fast-fail it while it still sits in
	// the outbound queue.
	port := loc.Port()
	for i := 0; i < 64 && port.PendingOutbound() > 0; i++ {
		port.DoBackgroundWork(64)
	}
}

// gossipNow sends the full table to fanout random not-down members.
// Gossip frames are also the heartbeat traffic the phi detector feeds
// on, so a healthy cluster needs no separate beacons between members.
func (m *Manager) gossipNow() {
	m.mu.Lock()
	targets := make([]int, 0, len(m.members))
	for id, e := range m.members {
		if id != m.self && e.State != StateDown {
			targets = append(targets, id)
		}
	}
	m.rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	if len(targets) > fanout {
		targets = targets[:fanout]
	}
	ms := make([]Member, 0, len(m.members))
	for _, e := range m.members {
		ms = append(ms, e)
	}
	m.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	payload := EncodeMembership(nil, ms)
	loc := m.svc.rt.Locality(m.self)
	for _, dst := range targets {
		if loc.Apply(dst, ActionGossip, payload) == nil {
			m.gossipSent.Inc()
		}
	}
}

// beginProbe starts one indirect-probe round for a suspect: ask up to
// probeFanout alive relays to ping it, and hold the local detector's
// hard verdict until the round has had its chance (Lifeguard's "ask
// before you convict"). No-ops once the episode's round budget is
// spent or when no relay exists (two-node clusters degenerate to plain
// phi-accrual, as classic SWIM does).
func (m *Manager) beginProbe(target int) {
	s := m.svc
	m.mu.Lock()
	if m.probeRounds[target] >= maxProbeRounds {
		m.mu.Unlock()
		return
	}
	var relays []int
	for id, e := range m.members {
		if id != m.self && id != target && e.State == StateAlive {
			relays = append(relays, id)
		}
	}
	if len(relays) == 0 {
		m.mu.Unlock()
		return
	}
	m.probeRounds[target]++
	m.rng.Shuffle(len(relays), func(i, j int) { relays[i], relays[j] = relays[j], relays[i] })
	if len(relays) > probeFanout {
		relays = relays[:probeFanout]
	}
	timeout := 4 * s.opts.GossipInterval
	m.nonceCtr++
	nonce := m.nonceCtr
	m.pending[nonce] = pendingProbe{target: target, expires: time.Now().Add(timeout)}
	m.mu.Unlock()

	if mon := s.rt.Monitor(m.self); mon != nil {
		mon.DeferConviction(target, time.Now().Add(timeout+s.opts.GossipInterval))
	}
	payload := EncodeProbe(nil, ProbeMsg{Origin: m.self, Target: target, Nonce: nonce})
	loc := s.rt.Locality(m.self)
	for _, r := range relays {
		if loc.Apply(r, ActionPingReq, payload) == nil {
			m.probesSent.Inc()
		}
	}
}

// probeAcked resolves an indirect-probe round: the suspect answered
// through a relay, so it lives and the broken path is ours. Feed the
// ack to the phi detector as a heartbeat (clearing suspicion the normal
// way) and credit local health — the suspicion was this node's problem,
// not the suspect's.
func (m *Manager) probeAcked(nonce uint64) {
	m.mu.Lock()
	p, ok := m.pending[nonce]
	if ok {
		delete(m.pending, nonce)
		m.probeRounds[p.target] = 0
	}
	m.mu.Unlock()
	if !ok {
		return // late or duplicate ack for a round already resolved
	}
	m.probeAcks.Inc()
	if mon := m.svc.rt.Monitor(m.self); mon != nil {
		mon.Heartbeat(p.target)
		mon.Credit()
	}
}

// maintain runs once per gossip tick, before gossipNow: expire
// unanswered probe rounds (penalizing local health per Lifeguard — an
// unanswered indirect probe usually indicts the asker's own
// connectivity), and drive the two rejoin traffic sources that must
// flow over raw probe frames because ordinary sends are gated off:
// rebirth refute broadcasts and resurrection probes to Down members.
func (m *Manager) maintain() {
	s := m.svc
	now := time.Now()
	var expired []pendingProbe
	var probeTargets []int
	var table []Member

	m.mu.Lock()
	m.tick++
	for nonce, p := range m.pending {
		if now.After(p.expires) {
			delete(m.pending, nonce)
			expired = append(expired, p)
		}
	}
	if s.prober != nil {
		if m.refuteRounds > 0 {
			// Rebirth broadcast: push the refuted table to every member —
			// the survivors still have this node crash-stopped, so only
			// probe frames get through.
			m.refuteRounds--
			for id := range m.members {
				if id != m.self {
					probeTargets = append(probeTargets, id)
				}
			}
		} else if m.tick%rejoinProbeEvery == 0 {
			// Resurrection probe: poke one random Down member with our
			// table. A partition-healed node learns its own obituary from
			// it and rebirths; a truly dead node stays silent.
			var down []int
			for id, e := range m.members {
				if id != m.self && e.State == StateDown {
					down = append(down, id)
				}
			}
			if len(down) > 0 {
				probeTargets = append(probeTargets, down[m.rng.Intn(len(down))])
			}
		}
		if len(probeTargets) > 0 {
			table = make([]Member, 0, len(m.members))
			for _, e := range m.members {
				table = append(table, e)
			}
		}
	}
	m.mu.Unlock()

	mon := s.rt.Monitor(m.self)
	for _, p := range expired {
		m.probeFails.Inc()
		if mon != nil {
			mon.Penalize()
		}
		if e, ok := m.Lookup(p.target); ok && e.State == StateSuspect {
			m.beginProbe(p.target) // another round, if the budget allows
		}
	}
	if len(probeTargets) > 0 {
		payload := EncodeMembership(nil, table)
		for _, id := range probeTargets {
			_ = s.prober.SendProbe(m.self, id, payload)
		}
	}
}
