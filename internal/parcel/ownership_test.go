package parcel_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/timer"
)

const ownAction = "test/own"

// cutFabric refuses every send, as a transport whose wire is gone does.
type cutFabric struct{ *network.SimFabric }

func (cutFabric) Send(int, int, []byte) error { return errors.New("wire cut") }

// ownershipPorts builds ports 0 and 1 on fab; received parcels are
// released at once.
func ownershipPorts(t *testing.T, fab network.Fabric) [2]*parcel.Port {
	t.Helper()
	var ports [2]*parcel.Port
	for i := range ports {
		ports[i] = parcel.NewPort(parcel.Config{
			Locality: i,
			Fabric:   fab,
			Resolve:  func(g agas.GID) (int, error) { return g.AllocLocality(), nil },
			Deliver:  func(p *parcel.Parcel) { p.Release() },
		})
	}
	t.Cleanup(func() {
		for _, p := range ports {
			p.Close()
		}
		_ = fab.Close()
	})
	return ports
}

// getParcels returns n parcels from parcel.Get addressed to locality 1.
func getParcels(n int) []*parcel.Parcel {
	ps := make([]*parcel.Parcel, n)
	for i := range ps {
		p := parcel.Get()
		p.Dest = agas.MakeGID(1, uint64(i+1))
		p.DestLocality = 1
		p.Action = ownAction
		p.Args = []byte{byte(i)}
		ps[i] = p
	}
	return ps
}

// drain runs port's background work until it has nothing left.
func drain(port *parcel.Port) {
	for port.DoBackgroundWork(64) > 0 {
	}
}

// TestGetParcelRecycledOnceOnEveryPath follows parcels from Get through
// every way a port can be done with one: sent, refused by the fabric,
// discarded for a destination failed by FailDest, and flushed by a
// coalescer when the port closes. Under SetBorrowDebug a recycle poisons
// the parcel, and a second one panics, so a parcel that reads poisoned
// and a path that did not panic mean exactly one recycle.
func TestGetParcelRecycledOnceOnEveryPath(t *testing.T) {
	defer parcel.SetBorrowDebug(parcel.SetBorrowDebug(true))
	for _, tc := range []struct {
		name string
		fab  func() network.Fabric
		// send hands ps to ports[0] and runs its background work; it
		// returns the port counter that must have counted every parcel.
		send func(t *testing.T, ports [2]*parcel.Port, ps []*parcel.Parcel) int64
	}{
		{"sent", sim, func(t *testing.T, ports [2]*parcel.Port, ps []*parcel.Parcel) int64 {
			putAll(t, ports[0], ps)
			drain(ports[0])
			return ports[0].Stats().ParcelsSent
		}},
		{"send error", func() network.Fabric { return cutFabric{network.NewSimFabric(2, network.CostModel{})} },
			func(t *testing.T, ports [2]*parcel.Port, ps []*parcel.Parcel) int64 {
				putAll(t, ports[0], ps)
				drain(ports[0])
				return ports[0].Stats().SendErrors
			}},
		{"FailDest discard", sim, func(t *testing.T, ports [2]*parcel.Port, ps []*parcel.Parcel) int64 {
			putAll(t, ports[0], ps)
			ports[0].FailDest(1)
			drain(ports[0])
			return ports[0].Stats().LinkDown
		}},
		{"coalescer flush at Close", sim, func(t *testing.T, ports [2]*parcel.Port, ps []*parcel.Parcel) int64 {
			svc := timer.NewService(timer.ServiceOptions{})
			defer svc.Stop()
			ports[0].SetMessageHandler(ownAction, coalescing.New(ports[0],
				coalescing.Params{NParcels: 64, Interval: time.Hour},
				coalescing.Options{Action: ownAction, TimerService: svc}))
			putAll(t, ports[0], ps)
			drain(ports[0])
			for i, p := range ps {
				if parcel.Recycled(p) {
					t.Fatalf("parcel %d recycled while its coalescer still held it", i)
				}
			}
			ports[0].Close()
			drain(ports[0])
			return ports[0].Stats().ParcelsSent
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ports := ownershipPorts(t, tc.fab())
			ps := getParcels(4)
			if n := tc.send(t, ports, ps); n != int64(len(ps)) {
				t.Fatalf("the path counted %d parcels, want %d", n, len(ps))
			}
			for i, p := range ps {
				if !parcel.Recycled(p) {
					t.Errorf("parcel %d not recycled: %v", i, p)
				}
			}
		})
	}
}

func sim() network.Fabric { return network.NewSimFabric(2, network.CostModel{}) }

func putAll(t *testing.T, port *parcel.Port, ps []*parcel.Parcel) {
	t.Helper()
	for _, p := range ps {
		if err := port.Put(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiteralParcelKeepsItsFields: a parcel that did not come from Get is
// the caller's, before and after its message is sent, so it can be sent
// again as it is.
func TestLiteralParcelKeepsItsFields(t *testing.T) {
	ports := ownershipPorts(t, sim())
	p := &parcel.Parcel{
		Dest: agas.MakeGID(1, 9), DestLocality: 1, Action: ownAction,
		Args: []byte("kept"), Continuation: agas.MakeGID(0, 3), Source: 0, Retries: 2,
	}
	want := *p
	for round := 0; round < 2; round++ {
		if err := ports[0].Put(p); err != nil {
			t.Fatal(err)
		}
		drain(ports[0])
		if !reflect.DeepEqual(*p, want) {
			t.Fatalf("round %d: literal parcel %+v after its send, want %+v", round, *p, want)
		}
	}
	if got := ports[0].Stats().ParcelsSent; got != 2 {
		t.Fatalf("sent %d parcels, want 2", got)
	}
}

// TestRecycledParcelPoisonedAndWithheld: under SetBorrowDebug a recycled
// outbound parcel reads poison, Get never hands it out again, and a
// second recycle panics, as a released rx parcel's second Release does.
func TestRecycledParcelPoisonedAndWithheld(t *testing.T) {
	defer parcel.SetBorrowDebug(parcel.SetBorrowDebug(true))
	ports := ownershipPorts(t, sim())
	p := getParcels(1)[0]
	if err := ports[0].Put(p); err != nil {
		t.Fatal(err)
	}
	drain(ports[0])
	if !parcel.Recycled(p) || p.Dest.Valid() || p.Args != nil || p.Borrowed() {
		t.Fatalf("recycled parcel reads %+v, want poison", p)
	}
	for i := 0; i < 1000; i++ {
		if parcel.Get() == p {
			t.Fatalf("Get %d handed out the recycled parcel", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second recycle did not panic")
		}
	}()
	parcel.Recycle(p)
}
