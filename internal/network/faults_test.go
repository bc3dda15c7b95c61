package network

import (
	"testing"
	"time"
)

// TestFaultPlanScheduledPartition drives the elapsed-time axis with an
// explicit StartClock anchored in the past, so event application is
// fully deterministic: events due "30 minutes in" have already elapsed,
// events due "2 hours in" have not.
func TestFaultPlanScheduledPartition(t *testing.T) {
	p := NewFaultPlan(1)
	p.PartitionPairAt(0, 1, 30*time.Minute)
	p.HealPairAt(0, 1, 2*time.Hour)
	p.StartClock(time.Now().Add(-time.Hour)) // 1h elapsed: cut due, heal not

	if got := p.decide(0, 1, nil); got.Action != FaultDrop {
		t.Fatalf("0->1 after due partition: %v, want FaultDrop", got.Action)
	}
	if got := p.decide(1, 0, nil); got.Action != FaultDrop {
		t.Fatalf("1->0 after due partition: %v, want FaultDrop (symmetric)", got.Action)
	}
	if got := p.decide(0, 2, nil); got.Action != FaultDeliver {
		t.Fatalf("0->2 uninvolved link: %v, want FaultDeliver", got.Action)
	}

	// Rewind the anchor past the heal: both directions deliver again.
	p.StartClock(time.Now().Add(-3 * time.Hour))
	if got := p.decide(0, 1, nil); got.Action != FaultDeliver {
		t.Fatalf("0->1 after heal: %v, want FaultDeliver", got.Action)
	}
	if got := p.decide(1, 0, nil); got.Action != FaultDeliver {
		t.Fatalf("1->0 after heal: %v, want FaultDeliver", got.Action)
	}
}

// TestFaultPlanEventOrdering: events scheduled out of order apply in due
// order — a heal scheduled before a later re-partition must not undo it.
func TestFaultPlanEventOrdering(t *testing.T) {
	p := NewFaultPlan(1)
	// Scheduled out of order on purpose.
	p.ClearLinkAt(0, 1, 20*time.Minute)
	p.SetLinkAt(0, 1, 10*time.Minute, LinkFaults{Partition: true})
	p.SetLinkAt(0, 1, 30*time.Minute, LinkFaults{Partition: true})
	p.StartClock(time.Now().Add(-25 * time.Minute)) // cut+heal due, re-cut not

	if got := p.decide(0, 1, nil); got.Action != FaultDeliver {
		t.Fatalf("after cut+heal: %v, want FaultDeliver", got.Action)
	}
	p.StartClock(time.Now().Add(-45 * time.Minute)) // re-cut now due
	if got := p.decide(0, 1, nil); got.Action != FaultDrop {
		t.Fatalf("after re-cut: %v, want FaultDrop", got.Action)
	}
}

// TestFaultPlanPartitionPairImmediate covers the non-scheduled helpers.
func TestFaultPlanPartitionPairImmediate(t *testing.T) {
	p := NewFaultPlan(1)
	p.PartitionPair(2, 0)
	for _, d := range [][2]int{{2, 0}, {0, 2}} {
		if got := p.decide(d[0], d[1], nil); got.Action != FaultDrop {
			t.Fatalf("%d->%d: %v, want FaultDrop", d[0], d[1], got.Action)
		}
	}
	p.HealPair(2, 0)
	for _, d := range [][2]int{{2, 0}, {0, 2}} {
		if got := p.decide(d[0], d[1], nil); got.Action != FaultDeliver {
			t.Fatalf("%d->%d after HealPair: %v, want FaultDeliver", d[0], d[1], got.Action)
		}
	}
}
