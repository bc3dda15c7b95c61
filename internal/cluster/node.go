package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/apps/fft"
	"repro/internal/coalescing"
	"repro/internal/collectives"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/reliable"
	"repro/internal/runtime"
	"repro/internal/taskbench"
)

// Node exit codes. CodeCrashDetected distinguishes a clean fail-fast on
// a detected peer crash (or on being condemned) from an ordinary error,
// so drivers and CI can assert the failure path specifically.
const (
	CodeOK            = 0
	CodeError         = 1
	CodeCrashDetected = 3
)

// BenchSpec is the Task Bench workload one node run executes.
type BenchSpec struct {
	Pattern     string
	Width       int
	Steps       int
	Iterations  int
	OutputBytes int
	Recover     bool
	Timeout     time.Duration
}

// FFTSpec is the distributed-FFT workload (the -app fft alternative to
// the Task Bench workload): a 2-D FFT whose transpose steps are
// collective all-to-alls over the real-socket cluster.
type FFTSpec struct {
	// Rows and Cols set the grid (powers of two).
	Rows, Cols int
	// Alg selects the all-to-all algorithm variant: "direct", "ring" or
	// "auto".
	Alg string
	// Iterations repeats the transform with fresh tags.
	Iterations int
	// CoalesceParcels/CoalesceInterval, when CoalesceParcels > 0, enable
	// static coalescing for the collective contribution action.
	CoalesceParcels  int
	CoalesceInterval time.Duration
}

// NodeSpec configures one amc-node process: one hosted locality of an
// N-locality cluster over real sockets.
type NodeSpec struct {
	// ID is the hosted locality; N is the cluster size.
	ID, N int
	// Bind is the listen address (e.g. "127.0.0.1:9000", ":0" for an
	// ephemeral port); Advertise overrides the address gossiped to peers
	// (defaults to the bound address).
	Bind, Advertise string
	// Seeds are the bootstrap contacts. Node 0 conventionally runs with
	// none and is everyone else's seed.
	Seeds []Seed
	// AddrFile, when set, receives the bound address once listening —
	// how a driver using ephemeral ports learns where each node landed.
	AddrFile string
	// ResultFile receives the aggregated benchmark JSON (node 0 only;
	// empty writes it to stdout).
	ResultFile string

	Workers           int
	GossipInterval    time.Duration
	HeartbeatInterval time.Duration
	PhiThreshold      float64
	JoinTimeout       time.Duration

	// App selects the workload: "bench" (Task Bench, the default) or
	// "fft" (distributed 2-D FFT over collectives).
	App string

	Bench BenchSpec
	FFT   FFTSpec

	// CrashAfter, when positive, hard-kills the process (os.Exit, no
	// shutdown, sockets die mid-conversation) that long after the bench
	// starts: the deterministic crash CI and the chaos driver inject.
	CrashAfter time.Duration

	// Rejoin enables the partition-tolerance protocol: epoch-tagged
	// membership, resurrection probes, and DeclareUp un-degradation.
	Rejoin bool
	// NoIndirectProbes disables SWIM ping-req probing (the baseline arm
	// of the false-conviction comparison).
	NoIndirectProbes bool
	// Partition, when Partition.For > 0 and Partition.Node >= 0, arms a
	// timed two-way partition on this node's own fabric. Every node of
	// the run is given the identical schedule, so the cuts agree
	// cluster-wide without coordination.
	Partition PartitionSpec
}

// PartitionSpec schedules a timed two-way network partition, applied
// identically by every node from its local fault plan. The partition
// window sits between the health warm-up and the benchmark: the cluster
// rides out the cut (suspicion, possibly conviction), heals, optionally
// waits for rejoin convergence, and only then measures throughput — so
// the benchmark numbers are the post-heal recovery, not the outage.
type PartitionSpec struct {
	// Node is the victim locality; -1 (the default) disables.
	Node int
	// After delays the cut from the moment the schedule is armed (just
	// after health warm-up); For bounds the outage. For <= 0 disables.
	After, For time.Duration
	// Mode is "pair" (cut Node↔0 only, leaving relay paths for indirect
	// probes) or "full" (isolate Node from every peer).
	Mode string
}

func (s NodeSpec) withDefaults() NodeSpec {
	if s.Workers <= 0 {
		s.Workers = 2
	}
	if s.GossipInterval <= 0 {
		s.GossipInterval = 25 * time.Millisecond
	}
	if s.HeartbeatInterval <= 0 {
		s.HeartbeatInterval = 25 * time.Millisecond
	}
	if s.PhiThreshold <= 0 {
		s.PhiThreshold = 8
	}
	if s.JoinTimeout <= 0 {
		s.JoinTimeout = 10 * time.Second
	}
	if s.Bench.Pattern == "" {
		s.Bench.Pattern = string(taskbench.Stencil1D)
	}
	if s.Bench.Width <= 0 {
		s.Bench.Width = 2 * s.N
	}
	if s.Bench.Steps <= 0 {
		s.Bench.Steps = 64
	}
	if s.Bench.OutputBytes <= 0 {
		s.Bench.OutputBytes = 64
	}
	if s.Bench.Timeout <= 0 {
		s.Bench.Timeout = 60 * time.Second
	}
	if s.App == "" {
		s.App = "bench"
	}
	if s.FFT.Rows <= 0 {
		s.FFT.Rows = 64
	}
	if s.FFT.Cols <= 0 {
		s.FFT.Cols = 64
	}
	if s.FFT.Alg == "" {
		s.FFT.Alg = "ring"
	}
	if s.FFT.Iterations <= 0 {
		s.FFT.Iterations = 2
	}
	if s.Partition.Mode == "" {
		s.Partition.Mode = "pair"
	}
	return s
}

// NodeResult is one node's benchmark outcome, reported to node 0.
type NodeResult struct {
	ID           int     `json:"id"`
	Tasks        int64   `json:"tasks"`
	WallNS       int64   `json:"wall_ns"`
	Messages     int64   `json:"messages"`
	Parcels      int64   `json:"parcels"`
	NetOverhead  float64 `json:"network_overhead"`
	TaskOverhead float64 `json:"task_overhead_us"`
	Verified     bool    `json:"verified,omitempty"` // fft: output bit-exact vs the sequential reference
	Err          string  `json:"error,omitempty"`

	// Partition-tolerance telemetry (zero unless the run armed a
	// partition or the detector fired).
	Suspicions      int64 `json:"suspicions,omitempty"`
	Convictions     int64 `json:"convictions,omitempty"` // down verdicts this node's table recorded
	ProbesSent      int64 `json:"probes_sent,omitempty"`
	ProbeAcks       int64 `json:"probe_acks,omitempty"`
	Rebirths        int64 `json:"rebirths,omitempty"`
	RejoinLatencyNS int64 `json:"rejoin_latency_ns,omitempty"` // heal → local table all-alive; -1: never converged
}

// ClusterResult is node 0's aggregate over the whole run.
type ClusterResult struct {
	Nodes       int          `json:"nodes"`
	App         string       `json:"app,omitempty"`
	FFTRows     int          `json:"fft_rows,omitempty"`
	FFTCols     int          `json:"fft_cols,omitempty"`
	Algorithm   string       `json:"algorithm,omitempty"`
	Verified    bool         `json:"verified,omitempty"` // fft: every node bit-exact
	Pattern     string       `json:"pattern"`
	Width       int          `json:"width"`
	Steps       int          `json:"steps"`
	Iterations  int          `json:"iterations"`
	OutputBytes int          `json:"output_bytes"`
	TotalTasks  int64        `json:"total_tasks"`
	TasksRun    int64        `json:"tasks_run"`
	MaxWallNS   int64        `json:"max_wall_ns"`
	Messages    int64        `json:"messages"`
	Parcels     int64        `json:"parcels"`
	Completed   bool         `json:"completed"`
	DownNodes   []int        `json:"down_nodes,omitempty"`
	PerNode     []NodeResult `json:"per_node"`

	// Partition-tolerance aggregate (present when the run armed a
	// partition).
	Rejoin             bool   `json:"rejoin,omitempty"`
	PartitionMode      string `json:"partition_mode,omitempty"`
	PartitionNode      int    `json:"partition_node,omitempty"`
	PartitionForNS     int64  `json:"partition_for_ns,omitempty"`
	Suspicions         int64  `json:"suspicions,omitempty"`
	Convictions        int64  `json:"convictions,omitempty"`
	ProbesSent         int64  `json:"probes_sent,omitempty"`
	ProbeAcks          int64  `json:"probe_acks,omitempty"`
	Rebirths           int64  `json:"rebirths,omitempty"`
	MaxRejoinLatencyNS int64  `json:"max_rejoin_latency_ns,omitempty"`
}

const (
	actionBenchResult = "cluster/bench-result"
	actionFinish      = "cluster/finish"
)

// node is the running state of one amc-node process.
type node struct {
	spec   NodeSpec
	fabric *network.TCPFabric
	rel    *reliable.Fabric
	rt     *runtime.Runtime
	svc    *Service
	bench  *taskbench.Bench
	logger *log.Logger

	resMu   sync.Mutex
	results map[int]NodeResult
	finish  chan struct{}
	finOnce sync.Once

	rejoinLatencyNS int64 // heal → local all-alive; 0: not measured, -1: timeout
}

// rideOutPartition arms the node's local copy of the cluster-wide
// partition schedule, sleeps through the outage window (suspicion,
// probing, and — in full mode — conviction all happen here), and after
// the heal waits for the membership table to converge back to all-alive,
// recording the rejoin latency. Every node runs the identical schedule
// from its own clock; the schedules agree to within the join-barrier
// skew, far below the outage durations being scheduled.
func (n *node) rideOutPartition(fabric *network.TCPFabric) {
	spec := n.spec
	p := spec.Partition
	plan := network.NewFaultPlan(1)
	switch p.Mode {
	case "full":
		for i := 0; i < spec.N; i++ {
			if i != p.Node {
				plan.PartitionPairAt(p.Node, i, p.After)
				plan.HealPairAt(p.Node, i, p.After+p.For)
			}
		}
	default: // "pair": cut the victim's link to node 0, leaving relays
		other := 0
		if p.Node == 0 {
			other = spec.N - 1
		}
		plan.PartitionPairAt(p.Node, other, p.After)
		plan.HealPairAt(p.Node, other, p.After+p.For)
	}
	plan.StartClock(time.Now())
	fabric.SetFaultHook(plan.Hook())
	n.logger.Printf("partition armed: mode=%s node=%d after=%v for=%v", p.Mode, p.Node, p.After, p.For)

	time.Sleep(p.After + p.For + 100*time.Millisecond)
	fabric.SetFaultHook(nil) // heal applied; drop the hook from the hot path

	if !spec.Rejoin {
		return
	}
	healed := time.Now()
	mgr := n.svc.Manager(spec.ID)
	deadline := healed.Add(20 * time.Second)
	for {
		alive := 0
		for _, m := range mgr.Members() {
			if m.State == StateAlive {
				alive++
			}
		}
		dead := false
		for i := 0; i < spec.N; i++ {
			if n.rt.LocalityDead(i) {
				dead = true
			}
		}
		if alive == spec.N && !dead {
			n.rejoinLatencyNS = int64(time.Since(healed))
			n.logger.Printf("rejoin converged %v after heal", time.Since(healed))
			return
		}
		if time.Now().After(deadline) {
			n.rejoinLatencyNS = -1
			n.logger.Printf("rejoin did not converge within %v of heal", 20*time.Second)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// RunNode executes one node's full lifecycle — listen, join, gossip,
// run the benchmark partition, report/aggregate — and returns a process
// exit code. It is the body of cmd/amc-node and of amc-bench -as-node.
func RunNode(spec NodeSpec) int {
	spec = spec.withDefaults()
	n := &node{
		spec:    spec,
		logger:  log.New(os.Stderr, fmt.Sprintf("amc-node[%d] ", spec.ID), log.Lmicroseconds),
		results: make(map[int]NodeResult),
		finish:  make(chan struct{}),
	}
	code, err := n.run()
	if err != nil {
		n.logger.Printf("error: %v", err)
	}
	return code
}

func (n *node) run() (int, error) {
	spec := n.spec
	if spec.ID < 0 || spec.ID >= spec.N || spec.N < 2 {
		return CodeError, fmt.Errorf("cluster: bad node identity %d/%d", spec.ID, spec.N)
	}
	fabric, err := network.NewPeerFabric(network.PeerConfig{
		Localities: spec.N,
		Self:       spec.ID,
		Bind:       spec.Bind,
		Advertise:  spec.Advertise,
	})
	if err != nil {
		return CodeError, err
	}
	n.fabric = fabric
	defer fabric.Close()
	advertise := spec.Advertise
	if advertise == "" {
		advertise = fabric.Addr()
	}
	n.logger.Printf("listening on %s (advertising %s)", fabric.Addr(), advertise)
	if spec.AddrFile != "" {
		if err := os.WriteFile(spec.AddrFile, []byte(advertise+"\n"), 0o644); err != nil {
			return CodeError, err
		}
	}

	// Generous retransmission budget: bootstrap and gossip ride the
	// reliable layer, and a link must not be condemned by the transport
	// before the phi detector has had a chance to vote.
	n.rel = reliable.New(fabric, reliable.Config{
		RTO:        5 * time.Millisecond,
		RTOMax:     200 * time.Millisecond,
		MaxRetries: 12,
	})
	defer n.rel.Close()

	n.rt = runtime.New(runtime.Config{
		Localities:         spec.N,
		WorkersPerLocality: spec.Workers,
		Fabric:             n.rel,
		Hosted:             []int{spec.ID},
	})
	defer n.rt.Shutdown()

	bench, err := taskbench.New(n.rt, taskbench.Options{Timeout: spec.Bench.Timeout, Recover: spec.Bench.Recover})
	if err != nil {
		return CodeError, err
	}
	n.bench = bench
	n.rt.MustRegisterAction(actionBenchResult, n.handleBenchResult)
	n.rt.MustRegisterAction(actionFinish, n.handleFinish)

	// The FFT communicator must exist before the join barrier: a
	// contribution arriving at a node that has not yet registered the
	// collectives action (or the communicator) is dropped permanently,
	// and nodes leave the barrier microseconds apart. Creating the comm
	// pre-join makes the barrier order registration before any
	// collective traffic.
	var fftComm *collectives.Comm
	if spec.App == "fft" {
		alg, err := collectives.ParseAlgorithm(spec.FFT.Alg)
		if err != nil {
			return CodeError, err
		}
		if spec.FFT.CoalesceParcels > 0 {
			if err := n.rt.EnableCoalescing(collectives.Action, coalescing.Params{
				NParcels: spec.FFT.CoalesceParcels,
				Interval: spec.FFT.CoalesceInterval,
			}); err != nil {
				return CodeError, err
			}
		}
		if fftComm, err = collectives.NewComm(n.rt, "cluster-fft", collectives.Options{
			Algorithm: alg,
			Timeout:   spec.Bench.Timeout,
		}); err != nil {
			return CodeError, err
		}
		defer fftComm.Close()
	}

	var joinEpoch uint64
	if spec.Rejoin {
		// Wall-clock epochs make a restarted process supersede every
		// entry its previous life left behind, without coordination.
		joinEpoch = uint64(time.Now().UnixMilli())
	}
	n.svc = NewService(n.rt, Options{
		GossipInterval:        spec.GossipInterval,
		AdvertiseAddr:         advertise,
		AddrBook:              fabric,
		Seed:                  int64(spec.ID) + 1,
		Rejoin:                spec.Rejoin,
		JoinEpoch:             joinEpoch,
		DisableIndirectProbes: spec.NoIndirectProbes,
	})
	defer n.svc.Stop()
	n.rt.SubscribePeer(func(ev runtime.PeerEvent) {
		if ev.Kind == runtime.PeerDown {
			n.logger.Printf("membership: locality %d confirmed down", ev.Peer)
		}
	})

	// Gossip starts before the join barrier: it only ever targets members
	// already in the table (whose addresses arrived with their entries),
	// so no traffic burns retry budget against peers not yet known.
	n.svc.Start()
	n.logger.Printf("joining: %d seeds, waiting for %d members", len(spec.Seeds), spec.N)
	if err := n.svc.Join(spec.ID, spec.Seeds, spec.N, spec.JoinTimeout); err != nil {
		return CodeError, err
	}
	n.logger.Printf("join complete: %d members", len(n.svc.Manager(spec.ID).Members()))

	// Only now that every peer is dialable may heartbeats flow: failure
	// detection against an address-less peer would exhaust the reliable
	// layer's retry budget and condemn the link before the cluster forms.
	n.rt.StartHealth(health.Config{
		HeartbeatInterval: spec.HeartbeatInterval,
		PhiThreshold:      spec.PhiThreshold,
	})
	time.Sleep(200 * time.Millisecond) // detector warm-up across the cluster

	if spec.Partition.For > 0 && spec.Partition.Node >= 0 && spec.Partition.Node < spec.N {
		n.rideOutPartition(fabric)
	}

	if spec.CrashAfter > 0 {
		time.AfterFunc(spec.CrashAfter, func() {
			n.logger.Printf("injected crash: exiting hard")
			os.Exit(137)
		})
	}

	g := taskbench.Graph{
		Pattern:     taskbench.Pattern(spec.Bench.Pattern),
		Width:       spec.Bench.Width,
		Steps:       spec.Bench.Steps,
		Iterations:  spec.Bench.Iterations,
		OutputBytes: spec.Bench.OutputBytes,
	}
	var mine NodeResult
	var benchErr error
	if spec.App == "fft" {
		mine, benchErr = n.runFFT(fftComm)
	} else {
		n.logger.Printf("running %v (recover=%v)", g, spec.Bench.Recover)
		var res taskbench.Result
		res, benchErr = bench.Run(g)
		mine = NodeResult{ID: spec.ID}
		if benchErr != nil {
			mine.Err = benchErr.Error()
		} else {
			mine = NodeResult{
				ID: spec.ID, Tasks: res.Tasks, WallNS: int64(res.Wall),
				Messages: res.MessagesSent, Parcels: res.ParcelsSent,
				NetOverhead: res.NetworkOverhead, TaskOverhead: res.TaskOverheadUS,
			}
		}
	}

	// Partition-tolerance telemetry, whatever the workload outcome.
	mgr := n.svc.Manager(spec.ID)
	mine.Convictions = mgr.downSeen.Get()
	mine.ProbesSent = mgr.probesSent.Get()
	mine.ProbeAcks = mgr.probeAcks.Get()
	mine.Rebirths = mgr.rebirths.Get()
	mine.RejoinLatencyNS = n.rejoinLatencyNS
	if mon := n.rt.Monitor(spec.ID); mon != nil {
		mine.Suspicions = mon.Suspicions()
	}

	code := CodeOK
	if benchErr != nil {
		code = CodeError
		if errors.Is(benchErr, network.ErrLocalityDown) {
			code = CodeCrashDetected
		}
	}
	if n.svc.Manager(spec.ID).Condemned() || n.rt.LocalityDead(spec.ID) {
		n.logger.Printf("condemned by the cluster: failing fast")
		return CodeCrashDetected, benchErr
	}

	if spec.ID == 0 {
		if err := n.aggregate(mine, g); err != nil && benchErr == nil {
			return CodeError, err
		}
		return code, benchErr
	}
	return code, n.report(mine)
}

// runFFT executes this node's share of the distributed 2-D FFT and
// verifies the owned output rows bit-exactly against the sequential
// reference (every node recomputes the small reference grid locally, so
// verification needs no extra communication).
func (n *node) runFFT(comm *collectives.Comm) (NodeResult, error) {
	spec := n.spec
	mine := NodeResult{ID: spec.ID}
	cfg := fft.Config{Rows: spec.FFT.Rows, Cols: spec.FFT.Cols, Seed: 0x5eed}
	n.logger.Printf("running fft %dx%d alg=%s iterations=%d",
		cfg.Rows, cfg.Cols, comm.Algorithm(), spec.FFT.Iterations)
	port := n.rt.Locality(spec.ID).Port()
	p0 := port.Stats()
	before := metrics.Snapshot(n.rt)
	start := time.Now()
	var blocks [][]complex128
	var ferr error
	for it := 0; it < spec.FFT.Iterations; it++ {
		if blocks, ferr = fft.Distributed(comm, spec.ID, cfg, fmt.Sprintf("it%d", it)); ferr != nil {
			break
		}
	}
	wall := time.Since(start)
	after := metrics.Snapshot(n.rt)
	p1 := port.Stats()
	phase := metrics.Phase{
		Tasks:          after.Tasks - before.Tasks,
		TaskDuration:   after.TaskDuration - before.TaskDuration,
		ExecDuration:   after.ExecDuration - before.ExecDuration,
		BackgroundWork: after.BackgroundWork - before.BackgroundWork,
	}
	mine.WallNS = int64(wall)
	mine.Messages = p1.MessagesSent - p0.MessagesSent
	mine.Parcels = p1.ParcelsSent - p0.ParcelsSent
	mine.NetOverhead = phase.NetworkOverhead()
	mine.TaskOverhead = phase.TaskOverheadUS()
	if ferr != nil {
		mine.Err = ferr.Error()
		return mine, ferr
	}
	lo, _ := fft.Range(cfg.Rows, spec.N, spec.ID)
	if err := fft.VerifyRows(fft.Reference(cfg), lo, blocks); err != nil {
		mine.Err = err.Error()
		return mine, err
	}
	mine.Verified = true
	return mine, nil
}

// report sends this node's result to node 0 and waits for the finish
// broadcast (or gives up quietly: node 0 may be the one that crashed).
func (n *node) report(mine NodeResult) error {
	payload, err := json.Marshal(mine)
	if err != nil {
		return err
	}
	loc := n.rt.Locality(n.spec.ID)
	if err := loc.Apply(0, actionBenchResult, payload); err != nil {
		n.logger.Printf("cannot report to node 0: %v", err)
		return nil
	}
	select {
	case <-n.finish:
		n.logger.Printf("finish received")
	case <-time.After(30 * time.Second):
		n.logger.Printf("no finish from node 0; exiting anyway")
	}
	return nil
}

// aggregate (node 0) collects every live node's result — ceasing to wait
// for nodes the membership layer confirms down — writes the cluster
// JSON, and broadcasts finish.
func (n *node) aggregate(mine NodeResult, g taskbench.Graph) error {
	n.resMu.Lock()
	n.results[0] = mine
	n.resMu.Unlock()

	deadline := time.Now().Add(n.spec.Bench.Timeout + 15*time.Second)
	mgr := n.svc.Manager(0)
	var down []int
	for {
		down = down[:0]
		have := true
		n.resMu.Lock()
		got := len(n.results)
		for i := 0; i < n.spec.N; i++ {
			if _, ok := n.results[i]; ok {
				continue
			}
			if e, k := mgr.Lookup(i); k && e.State == StateDown {
				down = append(down, i)
				continue
			}
			have = false
		}
		n.resMu.Unlock()
		if have {
			break
		}
		if time.Now().After(deadline) {
			n.logger.Printf("aggregation timed out with %d/%d results", got, n.spec.N)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	agg := ClusterResult{
		Nodes: n.spec.N, App: n.spec.App, DownNodes: append([]int(nil), down...),
		Rejoin: n.spec.Rejoin,
	}
	if p := n.spec.Partition; p.For > 0 && p.Node >= 0 {
		agg.PartitionMode = p.Mode
		agg.PartitionNode = p.Node
		agg.PartitionForNS = int64(p.For)
	}
	if n.spec.App == "fft" {
		agg.FFTRows, agg.FFTCols = n.spec.FFT.Rows, n.spec.FFT.Cols
		agg.Algorithm = n.spec.FFT.Alg
		agg.Iterations = n.spec.FFT.Iterations
	} else {
		agg.Pattern, agg.Width, agg.Steps = string(g.Pattern), g.Width, g.Steps
		agg.Iterations, agg.OutputBytes = g.Iterations, g.OutputBytes
		agg.TotalTasks = int64(g.TotalTasks())
	}
	n.resMu.Lock()
	for i := 0; i < n.spec.N; i++ {
		r, ok := n.results[i]
		if !ok {
			continue
		}
		agg.PerNode = append(agg.PerNode, r)
		agg.TasksRun += r.Tasks
		agg.Messages += r.Messages
		agg.Parcels += r.Parcels
		if r.WallNS > agg.MaxWallNS {
			agg.MaxWallNS = r.WallNS
		}
		agg.Suspicions += r.Suspicions
		agg.Convictions += r.Convictions
		agg.ProbesSent += r.ProbesSent
		agg.ProbeAcks += r.ProbeAcks
		agg.Rebirths += r.Rebirths
		if r.RejoinLatencyNS > agg.MaxRejoinLatencyNS {
			agg.MaxRejoinLatencyNS = r.RejoinLatencyNS
		}
	}
	n.resMu.Unlock()
	if n.spec.App == "fft" {
		agg.Completed = len(agg.PerNode) == n.spec.N
		agg.Verified = agg.Completed
		for _, r := range agg.PerNode {
			if !r.Verified {
				agg.Verified = false
			}
		}
	} else {
		agg.Completed = agg.TasksRun >= agg.TotalTasks
	}
	for _, r := range agg.PerNode {
		if r.Err != "" {
			agg.Completed = false
		}
	}

	out, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if n.spec.ResultFile != "" {
		if err := os.WriteFile(n.spec.ResultFile, out, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(out)
	}

	loc := n.rt.Locality(0)
	for i := 1; i < n.spec.N; i++ {
		_ = loc.Apply(i, actionFinish, nil)
	}
	// Give the finish parcels (and their acks) a moment on the wire.
	time.Sleep(200 * time.Millisecond)
	return nil
}

func (n *node) handleBenchResult(ctx *runtime.Context, args []byte) ([]byte, error) {
	var r NodeResult
	if err := json.Unmarshal(args, &r); err != nil {
		return nil, fmt.Errorf("cluster: bad bench result: %w", err)
	}
	n.resMu.Lock()
	n.results[r.ID] = r
	n.resMu.Unlock()
	n.logger.Printf("result from node %d: %d tasks", r.ID, r.Tasks)
	return nil, nil
}

func (n *node) handleFinish(ctx *runtime.Context, args []byte) ([]byte, error) {
	n.finOnce.Do(func() { close(n.finish) })
	return nil, nil
}
