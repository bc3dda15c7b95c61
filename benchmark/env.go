package main

import (
	"fmt"
	"time"

	"repro/internal/coalescing"
	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/reliable"
	"repro/internal/runtime"
)

// Every workload runs two localities of one worker each inside the child
// process: with the generator that is three busy goroutines at most on
// the two cores this harness was sized for, and the generator sleeps
// whenever its window is full.
const (
	localities = 2
	workers    = 1
)

// spec fixes one workload's inputs and stack.
type spec struct {
	name string
	// stream workloads
	argsBytes int
	window    int // parcels in flight at most
	dropRate  float64
	coalesce  coalescing.Params
	// stack
	tcp      bool // reliable.New(TCPFabric); false: bare SimFabric, 5 µs wire
	reliable bool
}

var streamCoalescing = coalescing.Params{NParcels: 16, Interval: 200 * time.Microsecond}

var specs = map[string]spec{
	"stream_small": {name: "stream_small", argsBytes: 16, window: 1024, coalesce: streamCoalescing, tcp: true, reliable: true},
	"stream_large": {name: "stream_large", argsBytes: 4096, window: 256, coalesce: streamCoalescing, tcp: true, reliable: true},
	"stream_lossy": {name: "stream_lossy", argsBytes: 16, window: 1024, dropRate: 0.01, coalesce: streamCoalescing, tcp: true, reliable: true},
	"pingpong":     {name: "pingpong", argsBytes: 64},
	"taskgraph":    {name: "taskgraph", coalesce: coalescing.Params{NParcels: 1, Interval: time.Millisecond}, tcp: true, reliable: true},
}

// env is one built stack: fabric, optional reliable layer and taps, and
// the runtime on top.
type env struct {
	spec spec
	rt   *runtime.Runtime
	top  network.Fabric   // what the runtime sends on
	wire network.Fabric   // the socket or simulated wire at the bottom
	rel  *reliable.Fabric // nil when the workload bypasses reliable
	rec  *recorder        // nil in the untraced pass
}

// buildEnv constructs the workload's stack. With rec set, taps bracket
// the reliable layer (or wrap the bare wire) and record into rec.
func buildEnv(sp spec, seed int64, rec *recorder) (*env, error) {
	e := &env{spec: sp, rec: rec}
	var wire network.Fabric
	if sp.tcp {
		tf, err := network.NewTCPFabric(localities)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", sp.name, err)
		}
		if sp.dropRate > 0 {
			plan := network.NewFaultPlan(seed)
			plan.SetDefault(network.LinkFaults{DropRate: sp.dropRate})
			tf.SetFaultHook(plan.Hook())
		}
		wire = tf
	} else {
		wire = network.NewSimFabric(localities, network.CostModel{Latency: 5 * time.Microsecond})
	}
	e.wire = wire

	var lower, upper *tap
	below := wire
	if rec != nil {
		lower = newTap(wire, rec, spanNetworkSend, spanNetworkHandler)
		below = lower
	}
	e.top = below
	if sp.reliable {
		e.rel = reliable.New(below, reliable.Config{Seed: seed})
		e.top = e.rel
		if rec != nil {
			upper = newTap(e.rel, rec, spanReliableSend, spanPortHandler)
			bracket(upper, lower)
			e.top = upper
		}
	}
	e.rt = runtime.New(runtime.Config{
		Localities:         localities,
		WorkersPerLocality: workers,
		Fabric:             e.top,
	})
	return e, nil
}

// close shuts the runtime down and closes the fabric under it.
func (e *env) close() {
	e.rt.Shutdown()
	_ = e.top.Close() // reliable closes the fabric it wraps
}

// portTotals sums the port counters of both localities.
func (e *env) portTotals() parcel.Stats {
	var t parcel.Stats
	for i := 0; i < e.rt.Localities(); i++ {
		s := e.rt.Locality(i).Port().Stats()
		t.ParcelsSent += s.ParcelsSent
		t.ParcelsReceived += s.ParcelsReceived
		t.MessagesSent += s.MessagesSent
		t.MessagesReceived += s.MessagesReceived
		t.BytesSent += s.BytesSent
		t.BytesReceived += s.BytesReceived
		t.SendErrors += s.SendErrors
		t.DecodeErrors += s.DecodeErrors
		t.RxDropped += s.RxDropped
		t.LinkDown += s.LinkDown
	}
	return t
}
