package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
)

// ClusterConfig drives the multi-process cluster suite: real amc-node
// OS processes over loopback TCP sockets, spawned from NodeCommand.
type ClusterConfig struct {
	// NodeCommand is the argv prefix that runs one node — typically the
	// calling amc-bench binary itself plus "-as-node", so a single build
	// artifact is both driver and node.
	NodeCommand []string
	// Quick shrinks the suite to one tiny three-node run for CI smoke.
	Quick bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c ClusterConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// ClusterPoint is one measured cluster run.
type ClusterPoint struct {
	Nodes       int     `json:"nodes"`
	Pattern     string  `json:"pattern"`
	Width       int     `json:"width"`
	Steps       int     `json:"steps"`
	Iterations  int     `json:"iterations"`
	TotalTasks  int64   `json:"total_tasks"`
	TasksRun    int64   `json:"tasks_run"`
	Completed   bool    `json:"completed"`
	WallMS      float64 `json:"wall_ms"`
	TasksPerSec float64 `json:"tasks_per_sec"`
	Messages    int64   `json:"messages"`
	Parcels     int64   `json:"parcels"`
}

// ClusterRecovery is the crash-injection run: one node is hard-killed
// mid-run, the survivors detect it through gossiped membership and
// re-home its partition.
type ClusterRecovery struct {
	Nodes       int     `json:"nodes"`
	CrashedNode int     `json:"crashed_node"`
	Detected    bool    `json:"detected"`
	Completed   bool    `json:"completed"`
	TotalTasks  int64   `json:"total_tasks"`
	TasksRun    int64   `json:"tasks_run"`
	WallMS      float64 `json:"wall_ms"`
}

// ClusterPartitionPoint is one partition-heal run: a timed network
// partition is armed between health warm-up and the benchmark, the
// cluster rides it out (or convicts and later un-degrades), and the
// benchmark then measures post-heal throughput. The detector telemetry
// shows whether SWIM indirect probes suppressed false convictions and,
// when a conviction did land, how fast rejoin restored the cluster.
type ClusterPartitionPoint struct {
	Scenario           string  `json:"scenario"`
	Nodes              int     `json:"nodes"`
	Mode               string  `json:"mode"` // pair: one link cut; full: victim isolated
	PartitionNode      int     `json:"partition_node"`
	PartitionForMS     float64 `json:"partition_for_ms"`
	Suspicions         int64   `json:"suspicions"`
	Convictions        int64   `json:"convictions"`
	ProbesSent         int64   `json:"probes_sent"`
	ProbeAcks          int64   `json:"probe_acks"`
	Rebirths           int64   `json:"rebirths"`
	MaxRejoinLatencyMS float64 `json:"max_rejoin_latency_ms"`
	Completed          bool    `json:"completed"`
	WallMS             float64 `json:"wall_ms"`       // post-heal benchmark wall time
	TasksPerSec        float64 `json:"tasks_per_sec"` // post-heal throughput
}

// ClusterSuiteResult is the payload of BENCH_cluster.json.
type ClusterSuiteResult struct {
	WeakScaling   []ClusterPoint          `json:"weak_scaling"`
	StrongScaling []ClusterPoint          `json:"strong_scaling"`
	Recovery      *ClusterRecovery        `json:"recovery,omitempty"`
	PartitionHeal []ClusterPartitionPoint `json:"partition_heal,omitempty"`
}

// suiteNodes describes an n-node suite run of bench: a 30 s join
// barrier and a 90 s run budget, so cluster.Launch gives the run 120 s.
func suiteNodes(n int, bench cluster.BenchSpec) []cluster.NodeSpec {
	bench.Timeout = 90 * time.Second
	nodes := make([]cluster.NodeSpec, n)
	for i := range nodes {
		nodes[i] = cluster.NodeSpec{JoinTimeout: 30 * time.Second, Bench: bench}
	}
	return nodes
}

// withPartition gives every node of a run the same partition schedule.
func withPartition(nodes []cluster.NodeSpec, p cluster.PartitionSpec) []cluster.NodeSpec {
	for i := range nodes {
		nodes[i].Partition = p
	}
	return nodes
}

// RunClusterSuite executes the weak- and strong-scaling sweeps (plus the
// crash-recovery run) and returns the aggregate. Quick mode runs a
// single tiny three-node cluster.
func RunClusterSuite(cfg ClusterConfig) (ClusterSuiteResult, error) {
	if len(cfg.NodeCommand) == 0 {
		return ClusterSuiteResult{}, fmt.Errorf("bench: cluster suite needs a node command")
	}
	var out ClusterSuiteResult

	if cfg.Quick {
		tiny := cluster.BenchSpec{Pattern: "stencil_1d", Width: 6, Steps: 16, OutputBytes: 64}
		p, err := cfg.measure(suiteNodes(3, tiny))
		if err != nil {
			return out, err
		}
		out.WeakScaling = append(out.WeakScaling, p)
		pp, err := cfg.measurePartition("pair-probes", withPartition(suiteNodes(3, tiny), cluster.PartitionSpec{
			Node: 2, After: 200 * time.Millisecond, For: 500 * time.Millisecond, Mode: "pair",
		}))
		if err != nil {
			return out, err
		}
		out.PartitionHeal = append(out.PartitionHeal, pp)
		return out, nil
	}

	// Weak scaling: per-node work held at 16 points.
	for _, n := range []int{2, 3, 4} {
		p, err := cfg.measure(suiteNodes(n, cluster.BenchSpec{
			Pattern: "stencil_1d", Width: 16 * n, Steps: 64, Iterations: 500, OutputBytes: 256,
		}))
		if err != nil {
			return out, err
		}
		out.WeakScaling = append(out.WeakScaling, p)
	}

	// Strong scaling: total work held at 48 points.
	for _, n := range []int{2, 4} {
		p, err := cfg.measure(suiteNodes(n, cluster.BenchSpec{
			Pattern: "stencil_1d", Width: 48, Steps: 64, Iterations: 500, OutputBytes: 256,
		}))
		if err != nil {
			return out, err
		}
		out.StrongScaling = append(out.StrongScaling, p)
	}

	rec, err := cfg.measureRecovery()
	if err != nil {
		return out, err
	}
	out.Recovery = &rec

	// Partition-heal sweep: the same 3-node graph under (a) a single cut
	// link with indirect probes routing around it and (b) a full
	// isolation long enough that a conviction is guaranteed and only the
	// rejoin protocol restores the cluster.
	graph := cluster.BenchSpec{Pattern: "stencil_1d", Width: 24, Steps: 32, Iterations: 200, OutputBytes: 256}
	for _, sc := range []struct {
		name string
		p    cluster.PartitionSpec
	}{
		{"pair-probes", cluster.PartitionSpec{Node: 2, After: 300 * time.Millisecond, For: 800 * time.Millisecond, Mode: "pair"}},
		{"full-rejoin", cluster.PartitionSpec{Node: 2, After: 300 * time.Millisecond, For: 1500 * time.Millisecond, Mode: "full"}},
	} {
		pp, err := cfg.measurePartition(sc.name, withPartition(suiteNodes(3, graph), sc.p))
		if err != nil {
			return out, err
		}
		out.PartitionHeal = append(out.PartitionHeal, pp)
	}
	return out, nil
}

// measure runs one cluster and distills the aggregate JSON node 0 wrote.
func (c ClusterConfig) measure(nodes []cluster.NodeSpec) (ClusterPoint, error) {
	b := nodes[0].Bench
	c.logf("cluster: %d nodes, %s width=%d steps=%d", len(nodes), b.Pattern, b.Width, b.Steps)
	res, err := cluster.Launch(c.NodeCommand, nodes, os.Stderr)
	if err != nil {
		return ClusterPoint{}, err
	}
	agg := res.Result
	p := ClusterPoint{
		Nodes: agg.Nodes, Pattern: agg.Pattern, Width: agg.Width, Steps: agg.Steps,
		Iterations: agg.Iterations, TotalTasks: agg.TotalTasks, TasksRun: agg.TasksRun,
		Completed: agg.Completed, WallMS: float64(agg.MaxWallNS) / 1e6,
		Messages: agg.Messages, Parcels: agg.Parcels,
	}
	if agg.MaxWallNS > 0 {
		p.TasksPerSec = float64(agg.TasksRun) / (float64(agg.MaxWallNS) / 1e9)
	}
	if !p.Completed {
		return p, fmt.Errorf("bench: %d-node cluster ran %d/%d tasks", len(nodes), p.TasksRun, p.TotalTasks)
	}
	c.logf("cluster: done in %.1fms (%d tasks, %.0f tasks/s)", p.WallMS, p.TasksRun, p.TasksPerSec)
	return p, nil
}

// measureRecovery hard-kills node 2 of 3 mid-run with -recover on: the
// survivors must detect the crash via gossiped membership, re-home the
// dead node's partition, and still complete the whole graph.
func (c ClusterConfig) measureRecovery() (ClusterRecovery, error) {
	const crashed = 2
	nodes := suiteNodes(3, cluster.BenchSpec{
		Pattern: "stencil_1d", Width: 24, Steps: 4000, Iterations: 2000, OutputBytes: 256, Recover: true,
	})
	nodes[crashed].CrashAfter = 300 * time.Millisecond
	c.logf("cluster: recovery run, killing node %d after %s", crashed, nodes[crashed].CrashAfter)
	res, err := cluster.Launch(c.NodeCommand, nodes, os.Stderr)
	if err != nil {
		return ClusterRecovery{}, err
	}
	agg := res.Result
	rec := ClusterRecovery{
		Nodes: len(nodes), CrashedNode: crashed,
		Completed: agg.Completed, TotalTasks: agg.TotalTasks, TasksRun: agg.TasksRun,
		WallMS: float64(agg.MaxWallNS) / 1e6,
	}
	for _, d := range agg.DownNodes {
		if d == crashed {
			rec.Detected = true
		}
	}
	if !rec.Detected || !rec.Completed {
		return rec, fmt.Errorf("bench: recovery run detected=%v completed=%v (%d/%d tasks, exits %v)",
			rec.Detected, rec.Completed, rec.TasksRun, rec.TotalTasks, res.Exits)
	}
	c.logf("cluster: recovered in %.1fms (%d/%d tasks)", rec.WallMS, rec.TasksRun, rec.TotalTasks)
	return rec, nil
}

// measurePartition runs one timed-partition scenario: every node arms
// the identical fault schedule locally after the join barrier, rides
// out the cut, converges back (rejoin), and only then runs the
// benchmark — so WallMS/TasksPerSec measure post-heal recovery.
func (c ClusterConfig) measurePartition(scenario string, nodes []cluster.NodeSpec) (ClusterPartitionPoint, error) {
	cut := nodes[0].Partition
	c.logf("cluster: partition scenario %s (%s, node %d cut for %s)", scenario, cut.Mode, cut.Node, cut.For)
	res, err := cluster.Launch(c.NodeCommand, nodes, os.Stderr)
	if err != nil {
		return ClusterPartitionPoint{}, err
	}
	agg := res.Result
	p := ClusterPartitionPoint{
		Scenario: scenario, Nodes: agg.Nodes, Mode: agg.PartitionMode,
		PartitionNode: agg.PartitionNode, PartitionForMS: float64(agg.PartitionForNS) / 1e6,
		Suspicions: agg.Suspicions, Convictions: agg.Convictions,
		ProbesSent: agg.ProbesSent, ProbeAcks: agg.ProbeAcks, Rebirths: agg.Rebirths,
		MaxRejoinLatencyMS: float64(agg.MaxRejoinLatencyNS) / 1e6,
		Completed:          agg.Completed, WallMS: float64(agg.MaxWallNS) / 1e6,
	}
	if agg.MaxWallNS > 0 {
		p.TasksPerSec = float64(agg.TasksRun) / (float64(agg.MaxWallNS) / 1e9)
	}
	if !p.Completed {
		return p, fmt.Errorf("bench: partition scenario %s ran %d/%d tasks", scenario, agg.TasksRun, agg.TotalTasks)
	}
	if agg.MaxRejoinLatencyNS < 0 {
		return p, fmt.Errorf("bench: partition scenario %s never re-converged after the heal", scenario)
	}
	c.logf("cluster: %s done — %d/%d probes acked, %d suspicions, %d convictions, %d rebirths, rejoin %.1fms, %.0f tasks/s post-heal",
		scenario, p.ProbeAcks, p.ProbesSent, p.Suspicions, p.Convictions, p.Rebirths, p.MaxRejoinLatencyMS, p.TasksPerSec)
	return p, nil
}
