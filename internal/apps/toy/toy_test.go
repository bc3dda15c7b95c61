package toy

import (
	"testing"
	"time"

	"repro/internal/coalescing"
	"repro/internal/network"
)

// quickModel keeps unit-test runs fast while retaining nonzero costs.
func quickModel() network.CostModel {
	return network.CostModel{
		SendOverhead: 3 * time.Microsecond,
		RecvOverhead: 2 * time.Microsecond,
		Latency:      5 * time.Microsecond,
	}
}

func quickConfig() Config {
	return Config{
		ParcelsPerPhase: 300,
		Phases:          2,
		Params:          coalescing.Params{NParcels: 8, Interval: 2 * time.Millisecond},
		CostModel:       quickModel(),
	}
}

func TestRunCompletesAllPhases(t *testing.T) {
	res, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseResults) != 2 {
		t.Fatalf("phases = %d", len(res.PhaseResults))
	}
	for i, p := range res.PhaseResults {
		if p.Wall <= 0 {
			t.Errorf("phase %d wall = %v", i, p.Wall)
		}
		// Each phase executes at least ParcelsPerPhase remote tasks.
		if p.Tasks < 300 {
			t.Errorf("phase %d tasks = %d", i, p.Tasks)
		}
		if oh := p.NetworkOverhead(); oh <= 0 || oh > 1 {
			t.Errorf("phase %d overhead = %v", i, oh)
		}
	}
	if res.Total <= 0 {
		t.Error("total not recorded")
	}
	// 300 parcels per phase × 2 phases, requests + responses.
	if res.ParcelsSent != 2*2*300 {
		t.Errorf("parcels sent = %d, want 1200", res.ParcelsSent)
	}
	if res.MessagesSent >= res.ParcelsSent {
		t.Errorf("coalescing ineffective: %d messages for %d parcels", res.MessagesSent, res.ParcelsSent)
	}
}

func TestCoalescingReducesMessagesMonotonically(t *testing.T) {
	cfg := quickConfig()
	cfg.Phases = 1
	cfg.Params = coalescing.Params{NParcels: 1, Interval: 2 * time.Millisecond}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Params = coalescing.Params{NParcels: 16, Interval: 2 * time.Millisecond}
	r16, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r16.MessagesSent >= r1.MessagesSent {
		t.Errorf("nparcels=16 sent %d messages, nparcels=1 sent %d", r16.MessagesSent, r1.MessagesSent)
	}
	if r1.ParcelsSent != r16.ParcelsSent {
		t.Errorf("parcel counts differ: %d vs %d", r1.ParcelsSent, r16.ParcelsSent)
	}
}

func TestScheduleChangesParamsPerPhase(t *testing.T) {
	cfg := quickConfig()
	cfg.Phases = 3
	cfg.ParcelsPerPhase = 200
	cfg.Schedule = []coalescing.Params{
		{NParcels: 32, Interval: 2 * time.Millisecond},
		{NParcels: 1, Interval: 2 * time.Millisecond},
		{NParcels: 32, Interval: 2 * time.Millisecond},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseResults) != 3 {
		t.Fatalf("phases = %d", len(res.PhaseResults))
	}
	for i, want := range []int{32, 1, 32} {
		if got := res.PhaseResults[i].Params.NParcels; got != want {
			t.Errorf("phase %d ran NParcels %d, scheduled %d", i, got, want)
		}
	}
	// The uncoalesced middle phase must show higher overhead than the
	// heavily coalesced phase after it — Fig. 9's signal. Phase 0 runs
	// the same parameters and sends as many messages, but it is not the
	// reference: it also pays the run's cold start inside its timed
	// background work — the first send each way creates the fabric link
	// and starts its delivery goroutine (≈ 0.35 ms apiece) — so its
	// background work reads 0.8–4.7 ms where phase 2's reads 0.2–1 ms.
	if res.PhaseResults[1].NetworkOverhead() <= res.PhaseResults[2].NetworkOverhead() {
		t.Errorf("phase overheads: uncoalesced %v, coalesced (warm) %v",
			res.PhaseResults[1].NetworkOverhead(), res.PhaseResults[2].NetworkOverhead())
	}
}

func TestBidirectional(t *testing.T) {
	cfg := quickConfig()
	cfg.Phases = 1
	cfg.Bidirectional = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both localities send: twice the parcels of the unidirectional run.
	if res.ParcelsSent != 2*2*300 {
		t.Errorf("parcels sent = %d, want 1200", res.ParcelsSent)
	}
}

func TestResultAverages(t *testing.T) {
	res, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgPhaseWall() <= 0 {
		t.Error("AvgPhaseWall = 0")
	}
	if oh := res.AvgNetworkOverhead(); oh <= 0 || oh > 1 {
		t.Errorf("AvgNetworkOverhead = %v", oh)
	}
	var empty Result
	if empty.AvgPhaseWall() != 0 || empty.AvgNetworkOverhead() != 0 {
		t.Error("empty result averages should be 0")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Localities != 2 || c.Phases != 4 || c.ParcelsPerPhase != 20000 {
		t.Errorf("defaults = %+v", c)
	}
	if c.Params.NParcels != 1 {
		t.Errorf("default params = %+v", c.Params)
	}
}
