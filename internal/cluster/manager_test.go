package cluster

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/runtime"
)

func fastModel() network.CostModel {
	return network.CostModel{
		SendOverhead: 2 * time.Microsecond,
		RecvOverhead: 2 * time.Microsecond,
		Latency:      5 * time.Microsecond,
	}
}

// newClusterRig builds an in-process runtime (all localities hosted over
// a SimFabric) with a membership service, health disabled: membership
// mechanics are tested without the detector in the loop.
func newClusterRig(t *testing.T, n int) (*runtime.Runtime, *Service) {
	t.Helper()
	fab := network.NewSimFabric(n, fastModel())
	rt := runtime.New(runtime.Config{
		Localities:         n,
		WorkersPerLocality: 2,
		Fabric:             fab,
	})
	svc := NewService(rt, Options{GossipInterval: 2 * time.Millisecond})
	t.Cleanup(func() {
		svc.Stop()
		rt.Shutdown()
		fab.Close()
	})
	return rt, svc
}

// joinAll joins each listed locality concurrently (the way separate
// node processes bootstrap) and waits for all of them.
func joinAll(t *testing.T, svc *Service, ids []int, size int) {
	t.Helper()
	errs := make(chan error, len(ids))
	for _, self := range ids {
		self := self
		go func() { errs <- svc.Join(self, []Seed{{ID: 0}}, size, 5*time.Second) }()
	}
	for range ids {
		if err := <-errs; err != nil {
			t.Fatalf("join: %v", err)
		}
	}
}

func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestJoinConvergesMembership(t *testing.T) {
	_, svc := newClusterRig(t, 3)
	svc.Start()
	// Localities 1 and 2 know only seed 0; gossip must teach everyone
	// everyone. Joins run concurrently, as separate processes would:
	// each blocks until the table reaches full size.
	joinAll(t, svc, []int{1, 2}, 3)
	for i := 0; i < 3; i++ {
		mgr := svc.Manager(i)
		waitFor(t, 5*time.Second, "full membership", func() bool { return len(mgr.Members()) == 3 })
		for _, m := range mgr.Members() {
			if m.State != StateAlive {
				t.Fatalf("locality %d sees %d as %v, want alive", i, m.ID, m.State)
			}
		}
	}
}

func TestJoinTimeout(t *testing.T) {
	_, svc := newClusterRig(t, 3)
	// No gossip running and seed never reaches size 3: Join must fail
	// with ErrJoinTimeout, not hang.
	err := svc.Join(1, nil, 3, 50*time.Millisecond)
	if err == nil {
		t.Fatal("join with no seeds must time out")
	}
}

func TestMergeRefutesSuspicionAboutSelf(t *testing.T) {
	_, svc := newClusterRig(t, 3)
	m := svc.Manager(1)
	m.Merge([]Member{{ID: 1, Incarnation: 5, State: StateSuspect}})
	e, _ := m.Lookup(1)
	if e.State != StateAlive || e.Incarnation != 6 {
		t.Fatalf("self entry after refutation: %+v, want alive inc 6", e)
	}
	// A stale rumor (lower incarnation) must be ignored.
	m.Merge([]Member{{ID: 1, Incarnation: 2, State: StateSuspect}})
	if e, _ := m.Lookup(1); e.Incarnation != 6 || e.State != StateAlive {
		t.Fatalf("stale rumor changed self entry: %+v", e)
	}
}

// TestMergeRebirthsOnceOnRepeatedObituary: an obituary about this very
// lifetime is refuted once, as one rebirth. Its repeats — what a
// survivor's resurrection probes deliver while a one-way partition keeps
// the refutation from reaching it — are stale: this life has already
// outbid them, so they neither raise the incarnation nor count again.
func TestMergeRebirthsOnceOnRepeatedObituary(t *testing.T) {
	_, svc := newClusterRig(t, 3)
	m := svc.Manager(2)
	for i := 0; i < 5; i++ {
		m.Merge([]Member{{ID: 2, Incarnation: 1, State: StateDown}})
	}
	if e, _ := m.Lookup(2); e.State != StateAlive || e.Incarnation != 2 {
		t.Fatalf("self entry after five obituaries: %+v, want alive inc 2", e)
	}
	if got := m.rebirths.Get(); got != 1 {
		t.Fatalf("rebirths = %d after one obituary merged five times, want 1", got)
	}
}

func TestMergeIncarnationPrecedence(t *testing.T) {
	_, svc := newClusterRig(t, 4)
	m := svc.Manager(0)
	m.Merge([]Member{{ID: 1, Incarnation: 3, State: StateSuspect, Addr: "h:1"}})
	// The member refutes with a higher incarnation: alive wins.
	m.Merge([]Member{{ID: 1, Incarnation: 4, State: StateAlive}})
	e, _ := m.Lookup(1)
	if e.State != StateAlive || e.Incarnation != 4 {
		t.Fatalf("refutation did not apply: %+v", e)
	}
	if e.Addr != "h:1" {
		t.Fatalf("address-less refutation erased known addr: %+v", e)
	}
	// An equal-incarnation suspect rumor re-applies (suspect > alive)...
	m.Merge([]Member{{ID: 1, Incarnation: 4, State: StateSuspect}})
	if e, _ := m.Lookup(1); e.State != StateSuspect {
		t.Fatalf("equal-incarnation suspect ignored: %+v", e)
	}
	// ...but an equal-incarnation alive rumor cannot clear suspicion.
	m.Merge([]Member{{ID: 1, Incarnation: 4, State: StateAlive}})
	if e, _ := m.Lookup(1); e.State != StateSuspect {
		t.Fatalf("equal-incarnation alive cleared suspicion: %+v", e)
	}
}

func TestMergeIgnoresOutOfRangeIDs(t *testing.T) {
	_, svc := newClusterRig(t, 3)
	m := svc.Manager(0)
	m.Merge([]Member{{ID: 99, Incarnation: 1}, {ID: -1, Incarnation: 1}})
	if len(m.Members()) != 1 {
		t.Fatalf("hostile ids entered the table: %+v", m.Members())
	}
}

// TestGossipedDownTriggersDegradation is the pure gossip→degradation
// path: a Down rumor merged at one locality must DeclareDown there (AGAS
// resolution fails, ports fast-fail) and propagate to every other
// locality's table by rebroadcast.
func TestGossipedDownTriggersDegradation(t *testing.T) {
	rt, svc := newClusterRig(t, 3)
	svc.Start()
	joinAll(t, svc, []int{1, 2}, 3)
	e, _ := svc.Manager(0).Lookup(2)
	svc.Manager(0).Merge([]Member{{ID: 2, Incarnation: e.Incarnation, State: StateDown}})
	if !rt.LocalityDead(2) {
		t.Fatal("merged down rumor must DeclareDown immediately")
	}
	waitFor(t, 5*time.Second, "down rumor to reach locality 1", func() bool {
		e, ok := svc.Manager(1).Lookup(2)
		return ok && e.State == StateDown
	})
}

// TestLocalDeclareDownRebroadcasts covers the reverse direction: the
// runtime (e.g. the phi detector's hard verdict) declares a peer down
// and the membership layer must gossip the verdict out.
func TestLocalDeclareDownRebroadcasts(t *testing.T) {
	rt, svc := newClusterRig(t, 3)
	svc.Start()
	joinAll(t, svc, []int{1, 2}, 3)
	rt.DeclareDown(2)
	for _, i := range []int{0, 1} {
		i := i
		waitFor(t, 5*time.Second, "down verdict in table", func() bool {
			e, ok := svc.Manager(i).Lookup(2)
			return ok && e.State == StateDown
		})
	}
}

func TestParseSeed(t *testing.T) {
	s, err := ParseSeed("2@127.0.0.1:9002")
	if err != nil || s.ID != 2 || s.Addr != "127.0.0.1:9002" {
		t.Fatalf("got %+v, %v", s, err)
	}
	for _, bad := range []string{"", "2", "@addr", "x@addr", "-1@addr", "2@"} {
		if _, err := ParseSeed(bad); err == nil {
			t.Errorf("ParseSeed(%q) must fail", bad)
		}
	}
}
