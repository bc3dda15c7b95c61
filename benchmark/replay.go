package main

import (
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/agas"
	"repro/internal/coalescing"
	"repro/internal/lco"
	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/reliable"
	"repro/internal/runtime"
	"repro/internal/timer"
)

// The layer replay drives each layer's public functions in isolation,
// with inputs shaped like the ones the workload just produced (same
// action name, same argument size, same parcels per message). Its
// figures are what a layer costs when nothing else competes for the core
// and its data is warm, so they are lower bounds on the layer's share of
// the end-to-end time; what they leave unexplained is
// trace.unattributed_share.

// replayShape is what the replay needs to know about the workload.
type replayShape struct {
	action    string
	argsBytes int
	bundle    int // parcels per wire message, as measured
	coalesce  coalescing.Params
	coalesced bool
	reliable  bool
	seed      int64
}

// replayCosts are the replayed costs, in ns unless named otherwise.
type replayCosts struct {
	spawnWakeUsP50 float64
	spawnExecNs    float64
	putNsP50       float64
	encodeNs       float64 // per parcel
	decodeNs       float64 // per parcel
	portSendNs     float64 // per message
	relAllocs      float64 // per message
	futureGetNs    float64
	tcpRTTUsP50    float64
}

func replayParcels(sh replayShape) []*parcel.Parcel {
	gen := newGenerator(sh.seed, sh.bundle, sh.argsBytes)
	ps := make([]*parcel.Parcel, sh.bundle)
	for i := range ps {
		ps[i] = &parcel.Parcel{
			Dest:         agas.MakeGID(1, 1),
			DestLocality: 1,
			Action:       sh.action,
			Args:         gen.next(uint64(i), false),
			Source:       0,
		}
	}
	return ps
}

func replay(sh replayShape) replayCosts {
	var c replayCosts
	c.spawnWakeUsP50, c.spawnExecNs = replayScheduler()
	if sh.coalesced {
		c.putNsP50 = replayCoalescerPut(sh)
	}
	c.encodeNs, c.decodeNs = replayCodec(sh)
	c.portSendNs = replayPortSend(sh)
	if sh.reliable {
		c.relAllocs = replayReliable(sh)
	}
	c.futureGetNs = replayFuture()
	c.tcpRTTUsP50 = replayTCPEcho()
	return c
}

// replayScheduler measures the production scheduler alone: how long an
// idle (parked) worker takes to start a spawned task, and what an empty
// task costs when the queue never runs dry.
func replayScheduler() (wakeUsP50, execNs float64) {
	sb := runtime.NewSchedBench(runtime.SchedBenchConfig{Workers: workers})
	defer sb.Stop()

	const wakes = 200
	var lat []float64
	started := make(chan time.Time, 1)
	for i := 0; i < wakes; i++ {
		time.Sleep(1500 * time.Microsecond) // long enough for the worker to park
		t0 := time.Now()
		sb.Spawn(func() { started <- time.Now() })
		lat = append(lat, float64((<-started).Sub(t0))/float64(time.Microsecond))
	}

	const burst = 200_000
	var wg sync.WaitGroup
	wg.Add(burst)
	t0 := time.Now()
	for i := 0; i < burst; i++ {
		sb.Spawn(wg.Done)
	}
	wg.Wait()
	return percentile(lat, 50), float64(time.Since(t0)) / burst
}

// sinkEnqueuer stands in for the parcel port under a coalescer: it takes
// what it is handed and recycles the batch, as the port does after
// transmission.
type sinkEnqueuer struct{}

func (sinkEnqueuer) EnqueueMessage(_ int, ps []*parcel.Parcel) { parcel.PutBatch(ps) }
func (sinkEnqueuer) EnqueueParcel(int, *parcel.Parcel)         {}

// replayCoalescerPut times Coalescer.Put in runs of one full queue
// (NParcels Puts, the last of which flushes), and returns the median
// run's cost per Put. Reading the clock around every single Put would
// cost as much as the Put.
func replayCoalescerPut(sh replayShape) float64 {
	svc := timer.NewService(timer.ServiceOptions{})
	defer svc.Stop()
	co := coalescing.New(sinkEnqueuer{}, sh.coalesce, coalescing.Options{Locality: 0, Action: sh.action, TimerService: svc})
	defer co.Close()

	run := max(sh.coalesce.NParcels, 1)
	ps := replayParcels(replayShape{action: sh.action, argsBytes: sh.argsBytes, bundle: run, seed: sh.seed})
	const runs = 4000
	perPut := make([]float64, 0, runs)
	for r := 0; r < runs; r++ {
		t0 := time.Now()
		for _, p := range ps {
			co.Put(p)
		}
		perPut = append(perPut, float64(time.Since(t0))/float64(run))
	}
	co.Flush()
	return percentile(perPut, 50)
}

// replayCodec times the bundle codec at the workload's bundle shape:
// AppendBundle into a pooled buffer, and DecodeBundleBorrowed followed
// by ReleaseBundle. Both figures are per parcel.
func replayCodec(sh replayShape) (encodeNs, decodeNs float64) {
	ps := replayParcels(sh)
	wire := parcel.EncodeBundle(ps)
	rounds := max(200_000/sh.bundle, 2000)
	if sh.argsBytes >= 1024 {
		rounds = max(20_000/sh.bundle, 500)
	}

	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		buf := network.GetPayload(len(wire))
		buf = parcel.AppendBundle(buf[:0], ps)
		network.PutPayload(buf)
	}
	encodeNs = float64(time.Since(t0)) / float64(rounds*sh.bundle)

	// The borrowing decoder takes ownership of the payload and recycles
	// it on release, so each decode needs its own copy; the copies are
	// made outside the timed region.
	const batch = 64
	copies := make([][]byte, batch)
	var spent time.Duration
	for done := 0; done < rounds; done += batch {
		for i := range copies {
			copies[i] = network.GetPayload(len(wire))
			copy(copies[i], wire)
		}
		t0 := time.Now()
		for _, b := range copies {
			got, err := parcel.DecodeBundleBorrowed(b)
			if err != nil {
				network.PutPayload(b)
				continue
			}
			parcel.ReleaseBundle(got)
		}
		spent += time.Since(t0)
	}
	n := (rounds + batch - 1) / batch * batch
	decodeNs = float64(spent) / float64(n*sh.bundle)
	return encodeNs, decodeNs
}

// replayPortSend times the port's transmit path on a null fabric: one
// message of the workload's bundle shape enqueued, then one unit of
// background work (encode, Send, counters). Per message.
func replayPortSend(sh replayShape) float64 {
	fab := &nullFabric{n: localities}
	port := parcel.NewPort(parcel.Config{
		Locality: 0,
		Fabric:   fab,
		Resolve:  func(agas.GID) (int, error) { return 1, nil },
		Deliver:  func(p *parcel.Parcel) { p.Release() },
	})
	defer port.Close()
	ps := replayParcels(sh)
	rounds := max(100_000/sh.bundle, 2000)
	if sh.argsBytes >= 1024 {
		rounds = max(10_000/sh.bundle, 500)
	}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if sh.bundle == 1 {
			_ = port.Put(ps[0]) // a closed port is the only error; this one is open
		} else {
			batch := append(parcel.GetBatch(), ps...)
			port.EnqueueMessage(1, batch)
		}
		port.DoBackgroundWork(1)
	}
	return float64(time.Since(t0)) / float64(rounds)
}

// replayReliable runs messages of the workload's wire size through
// reliable.Fabric on a loopback transport (Send delivers to the peer's
// handler on the caller's goroutine) and returns heap allocations per
// message. Everything the layer does per message is in the figure:
// framing, the retransmission window, delivery copy, the standalone ACKs
// its scanner sends for the one-way stream.
func replayReliable(sh replayShape) float64 {
	rel := reliable.New(newLoopFabric(localities), reliable.Config{Seed: sh.seed})
	defer rel.Close()
	for l := 0; l < localities; l++ {
		rel.SetHandler(l, func(_ int, p []byte) { network.PutPayload(p) })
	}
	wire := len(parcel.EncodeBundle(replayParcels(sh)))
	rounds := 50_000
	if wire >= 16<<10 {
		rounds = 5_000
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			// The window must not outgrow the ACK cadence: pace on
			// the unacknowledged backlog, as the port's background
			// loop is paced by the socket.
			for rel.Pending() > 4096 {
				time.Sleep(100 * time.Microsecond)
			}
			_ = rel.Send(0, 1, network.GetPayload(wire)) // errors only after Close
		}
	}
	send(2000) // warm pools and maps
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	send(rounds)
	goruntime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(rounds)
}

// replayFuture times a local promise: create, set, get.
func replayFuture() float64 {
	const rounds = 200_000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		p := lco.NewPromise[[]byte]()
		_ = p.SetValue(nil) // a fresh promise cannot already be set
		if _, err := p.Future().Get(); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0)) / rounds
}

// replayTCPEcho measures a bare TCPFabric round trip (64-byte frame
// there, 64-byte frame back, no runtime above it). Informational: on
// the sizing machine it is bimodal, which is why pingpong's headline
// runs on the simulated wire.
func replayTCPEcho() float64 {
	fab, err := network.NewTCPFabric(localities)
	if err != nil {
		return 0
	}
	defer fab.Close()
	back := make(chan struct{}, 1)
	fab.SetHandler(1, func(_ int, p []byte) {
		network.PutPayload(p)
		_ = fab.Send(1, 0, network.GetPayload(64)) // a failed echo shows as a timeout below
	})
	fab.SetHandler(0, func(_ int, p []byte) {
		network.PutPayload(p)
		back <- struct{}{}
	})
	const rounds = 500
	var rtt []float64
	for i := 0; i < rounds+20; i++ {
		t0 := time.Now()
		if err := fab.Send(0, 1, network.GetPayload(64)); err != nil {
			return 0
		}
		select {
		case <-back:
		case <-time.After(2 * time.Second):
			return 0
		}
		if i >= 20 { // the first rounds dial and warm the connection
			rtt = append(rtt, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return percentile(rtt, 50)
}
