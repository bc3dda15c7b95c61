package health

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fast returns a config with short horizons for tests.
func fast() Config {
	return Config{
		HeartbeatInterval: 5 * time.Millisecond,
		Tick:              time.Millisecond,
		Window:            32,
		PhiThreshold:      8,
		Grace:             10 * time.Millisecond,
	}
}

func TestDetectorSteadyHeartbeatsStayBelowThreshold(t *testing.T) {
	cfg := fast()
	d := NewDetector(cfg)
	base := time.Now()
	d.Watch(1, base)
	// Feed a long steady stream with mild jitter, sampling phi right
	// before each arrival (the worst moment): it must never cross the
	// threshold.
	now := base
	for i := 0; i < 400; i++ {
		dt := cfg.HeartbeatInterval
		if i%3 == 0 {
			dt += cfg.HeartbeatInterval / 4
		}
		now = now.Add(dt)
		if phi := d.Phi(1, now); phi >= cfg.PhiThreshold {
			t.Fatalf("phi=%.2f crossed threshold %.1f at beat %d under steady heartbeats", phi, cfg.PhiThreshold, i)
		}
		d.Heartbeat(1, now)
	}
	if phi := d.Phi(1, now); phi != 0 {
		t.Fatalf("phi=%.2f immediately after a heartbeat, want 0", phi)
	}
}

func TestDetectorSilenceAccruesSuspicion(t *testing.T) {
	cfg := fast()
	d := NewDetector(cfg)
	base := time.Now()
	d.Watch(1, base)
	now := base
	for i := 0; i < 50; i++ {
		now = now.Add(cfg.HeartbeatInterval)
		d.Heartbeat(1, now)
	}
	// Phi must rise monotonically with silence and cross the threshold
	// within a handful of missed intervals.
	prev := -1.0
	crossed := time.Duration(0)
	for k := 1; k <= 200; k++ {
		at := now.Add(time.Duration(k) * cfg.HeartbeatInterval / 4)
		phi := d.Phi(1, at)
		if phi < prev {
			t.Fatalf("phi decreased with silence: %.3f -> %.3f", prev, phi)
		}
		prev = phi
		if crossed == 0 && phi >= cfg.PhiThreshold {
			crossed = at.Sub(now)
		}
	}
	if crossed == 0 {
		t.Fatalf("phi never crossed threshold %.1f after 50 intervals of silence (final %.2f)", cfg.PhiThreshold, prev)
	}
	if crossed > 20*cfg.HeartbeatInterval {
		t.Errorf("detection took %v (> 20 heartbeat intervals)", crossed)
	}
	if !d.Suspect(1, now.Add(crossed)) {
		t.Error("Suspect=false at the crossing point")
	}
}

func TestDetectorGracePeriodAndUnwatchedPeers(t *testing.T) {
	cfg := fast()
	d := NewDetector(cfg)
	base := time.Now()
	d.Watch(1, base)
	if phi := d.Phi(1, base.Add(cfg.Grace/2)); phi != 0 {
		t.Errorf("phi=%.2f inside the grace period, want 0", phi)
	}
	if phi := d.Phi(1, base.Add(time.Hour)); phi < cfg.PhiThreshold {
		t.Errorf("phi=%.2f after an hour of total silence, want >= threshold: a peer that never spoke must still be detected", phi)
	}
	if phi := d.Phi(99, base.Add(time.Hour)); phi != 0 {
		t.Errorf("unwatched peer reported phi=%.2f, want 0", phi)
	}
}

func TestDetectorWindowSlides(t *testing.T) {
	cfg := fast()
	cfg.Window = 8
	d := NewDetector(cfg)
	now := time.Now()
	d.Watch(1, now)
	for i := 0; i < 100; i++ {
		now = now.Add(cfg.HeartbeatInterval)
		d.Heartbeat(1, now)
	}
	if got := d.Samples(1); got != cfg.Window {
		t.Fatalf("window holds %d samples, want %d", got, cfg.Window)
	}
}

func TestDetectorConcurrentUse(t *testing.T) {
	d := NewDetector(fast())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				d.Heartbeat(peer%4, time.Now())
				_ = d.Phi(peer%4, time.Now())
			}
		}(g)
	}
	wg.Wait()
}

func TestHeartbeatRoundTrip(t *testing.T) {
	sent := time.Unix(0, 1_700_000_000_123_456_789)
	enc := EncodeHeartbeat(nil, Heartbeat{Seq: 42, Sent: sent})
	if len(enc) != HeartbeatSize {
		t.Fatalf("encoded %d bytes, want %d", len(enc), HeartbeatSize)
	}
	hb, err := DecodeHeartbeat(enc)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Seq != 42 || !hb.Sent.Equal(sent) {
		t.Fatalf("round trip mismatch: %+v", hb)
	}
}

func TestDecodeHeartbeatHostileInputs(t *testing.T) {
	valid := EncodeHeartbeat(nil, Heartbeat{Seq: 1, Sent: time.Now()})
	cases := map[string][]byte{
		"empty":       {},
		"short":       valid[:HeartbeatSize-1],
		"long":        append(append([]byte{}, valid...), 0),
		"bad magic":   append([]byte{0x00}, valid[1:]...),
		"bad version": append([]byte{heartbeatMagic, 0xFF}, valid[2:]...),
	}
	for name, data := range cases {
		if _, err := DecodeHeartbeat(data); !errors.Is(err, ErrBadHeartbeat) {
			t.Errorf("%s: err=%v, want ErrBadHeartbeat", name, err)
		}
	}
}

func TestMonitorDetectsSilentPeerAndSparesLivePeers(t *testing.T) {
	cfg := fast()
	var downs sync.Map
	var hbTo [3]atomic.Int64
	m := NewMonitor(MonitorConfig{
		Config:   cfg,
		Locality: 0,
		Peers:    3,
		SendHeartbeat: func(peer int) error {
			hbTo[peer].Add(1)
			return nil
		},
		OnDown: func(peer int) { downs.Store(peer, time.Now()) },
	})
	m.Start()
	defer m.Stop()

	// Peer 1 stays alive (heartbeats fed in), peer 2 is silent.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(cfg.HeartbeatInterval)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				m.Heartbeat(1)
			}
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := downs.Load(2); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if _, ok := downs.Load(2); !ok {
		t.Fatalf("silent peer 2 never declared down (phi=%.2f)", m.Phi(2))
	}
	if _, ok := downs.Load(1); ok {
		t.Error("live peer 1 falsely declared down")
	}
	if !m.Suspected(2) || m.Suspected(1) {
		t.Errorf("Suspected: peer2=%v peer1=%v, want true/false", m.Suspected(2), m.Suspected(1))
	}
	if m.Suspicions() != 1 {
		t.Errorf("suspicions counter = %d, want 1", m.Suspicions())
	}
	if hbTo[2].Load() == 0 {
		t.Error("no explicit heartbeats were sent to the idle link")
	}
}

// TestMonitorSuspectsAtHalfThresholdBeforeDown sweeps a monitor by hand,
// with no wall clock, over a peer that never speaks: OnSuspect fires at
// the first sweep whose phi reaches PhiThreshold/2, and OnDown at a later
// one, the first to reach PhiThreshold.
func TestMonitorSuspectsAtHalfThresholdBeforeDown(t *testing.T) {
	cfg := fast()
	cfg.Grace = time.Millisecond // phi starts near 0, not past the soft threshold
	type event struct {
		kind      string
		prev, phi float64 // phi at the sweep before and at this one
	}
	var events []event
	var prev, phi float64
	record := func(kind string) func(int) {
		return func(int) { events = append(events, event{kind, prev, phi}) }
	}
	m := NewMonitor(MonitorConfig{
		Config: cfg, Locality: 0, Peers: 2,
		OnSuspect: record("suspect"),
		OnDown:    record("down"),
	})
	base := time.Now()
	m.det.Watch(1, base)
	for at := base; len(events) < 2 && at.Before(base.Add(time.Second)); at = at.Add(100 * time.Microsecond) {
		prev, phi = phi, m.det.Phi(1, at)
		m.sweep(at)
	}
	if len(events) != 2 || events[0].kind != "suspect" || events[1].kind != "down" {
		t.Fatalf("events = %+v, want suspect then down", events)
	}
	soft, hard := cfg.PhiThreshold/2, cfg.PhiThreshold
	if s := events[0]; s.prev >= soft || s.phi < soft || s.phi >= hard {
		t.Errorf("OnSuspect at phi %.2f (previous sweep %.2f), want the first sweep at or past %.1f and below %.1f", s.phi, s.prev, soft, hard)
	}
	if d := events[1]; d.prev >= hard || d.phi < hard {
		t.Errorf("OnDown at phi %.2f (previous sweep %.2f), want the first sweep at or past %.1f", d.phi, d.prev, hard)
	}
}

func TestMonitorOnDownFiresOnce(t *testing.T) {
	cfg := fast()
	var fired atomic.Int64
	m := NewMonitor(MonitorConfig{
		Config:   cfg,
		Locality: 0,
		Peers:    2,
		OnDown:   func(peer int) { fired.Add(1) },
	})
	m.Start()
	defer m.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Give the monitor several more ticks to (incorrectly) fire again.
	time.Sleep(20 * cfg.Tick)
	if got := fired.Load(); got != 1 {
		t.Fatalf("OnDown fired %d times, want exactly once", got)
	}
}

func TestMonitorDeferConvictionHoldsVerdict(t *testing.T) {
	cfg := fast()
	var fired atomic.Int64
	m := NewMonitor(MonitorConfig{
		Config:   cfg,
		Locality: 0,
		Peers:    2,
		OnDown:   func(peer int) { fired.Add(1) },
	})
	// Hold the verdict well past the point phi would convict.
	hold := 300 * time.Millisecond
	m.DeferConviction(1, time.Now().Add(hold))
	// An earlier deadline must not shorten the hold.
	m.DeferConviction(1, time.Now().Add(10*time.Millisecond))
	start := time.Now()
	m.Start()
	defer m.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fired.Load() == 0 {
		t.Fatal("OnDown never fired after the hold expired")
	}
	if waited := time.Since(start); waited < hold-10*time.Millisecond {
		t.Fatalf("conviction after %v, want the %v hold respected", waited, hold)
	}
}

func TestMonitorReviveAllowsReconviction(t *testing.T) {
	cfg := fast()
	var fired atomic.Int64
	m := NewMonitor(MonitorConfig{
		Config:   cfg,
		Locality: 0,
		Peers:    2,
		OnDown:   func(peer int) { fired.Add(1) },
	})
	m.Start()
	defer m.Stop()
	await := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for fired.Load() < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if fired.Load() < n {
			t.Fatalf("OnDown fired %d times, want %d", fired.Load(), n)
		}
	}
	await(1)
	if !m.Suspected(1) {
		t.Fatal("peer 1 not suspected after conviction")
	}
	m.Revive(1)
	if m.Suspected(1) {
		t.Fatal("Revive left peer 1 suspected")
	}
	// Grace restarted: the peer must not be insta-reconvicted.
	time.Sleep(2 * cfg.Tick)
	if fired.Load() != 1 {
		t.Fatalf("reconvicted within the fresh grace period (fired=%d)", fired.Load())
	}
	await(2) // silence accrues again and reconvicts
}

func TestMonitorSilencePausesSweep(t *testing.T) {
	cfg := fast()
	var fired atomic.Int64
	m := NewMonitor(MonitorConfig{
		Config:   cfg,
		Locality: 0,
		Peers:    2,
		OnDown:   func(peer int) { fired.Add(1) },
	})
	m.Silence()
	m.Start()
	defer m.Stop()
	time.Sleep(cfg.Grace + 20*cfg.HeartbeatInterval)
	if fired.Load() != 0 {
		t.Fatalf("silenced monitor convicted %d peers", fired.Load())
	}
	if !m.Silenced() {
		t.Fatal("Silenced() = false after Silence()")
	}
	m.Unsilence()
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fired.Load() == 0 {
		t.Fatal("unsilenced monitor never convicted the silent peer")
	}
}

func TestMonitorLocalHealthClampAndStretch(t *testing.T) {
	cfg := fast()
	m := NewMonitor(MonitorConfig{Config: cfg, Locality: 0, Peers: 2})
	for i := 0; i < 10; i++ {
		m.Penalize()
	}
	if got := m.LocalHealth(); got != 2 {
		t.Fatalf("LocalHealth = %d after saturating penalties, want 2", got)
	}
	for i := 0; i < 10; i++ {
		m.Credit()
	}
	if got := m.LocalHealth(); got != 0 {
		t.Fatalf("LocalHealth = %d after credits, want 0", got)
	}
}
