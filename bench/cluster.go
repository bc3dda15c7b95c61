package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
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
	// RunTimeout bounds one whole cluster run, spawn to exit
	// (default 120s).
	RunTimeout time.Duration
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.RunTimeout <= 0 {
		c.RunTimeout = 120 * time.Second
	}
	return c
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

// ClusterRunError carries the forensics of a failed multi-process run —
// every node's exit code and the tail of its stderr — so the driver can
// embed them in the partial report instead of asking the operator to
// reproduce a flaky multi-process timeout by hand.
type ClusterRunError struct {
	Reason      string
	Exits       []int
	StderrTails map[int]string
}

func (e *ClusterRunError) Error() string {
	return fmt.Sprintf("bench: %s (exits %v)", e.Reason, e.Exits)
}

// clusterRun parameterizes one multi-process execution.
type clusterRun struct {
	nodes          int
	pattern        string
	width          int
	steps          int
	iterations     int
	outputBytes    int
	recover        bool
	crashNode      int           // -1: no crash
	crashAfter     time.Duration // delay before the injected kill
	partitionNode  int           // victim of the timed partition
	partitionAfter time.Duration // warm-up → cut delay
	partitionFor   time.Duration // cut duration; 0 disables the partition
	partitionMode  string        // pair | full
}

// RunClusterSuite executes the weak- and strong-scaling sweeps (plus the
// crash-recovery run) and returns the aggregate. Quick mode runs a
// single tiny three-node cluster.
func RunClusterSuite(cfg ClusterConfig) (ClusterSuiteResult, error) {
	cfg = cfg.withDefaults()
	if len(cfg.NodeCommand) == 0 {
		return ClusterSuiteResult{}, fmt.Errorf("bench: cluster suite needs a node command")
	}
	var out ClusterSuiteResult

	if cfg.Quick {
		p, err := cfg.measure(clusterRun{
			nodes: 3, pattern: "stencil_1d", width: 6, steps: 16,
			outputBytes: 64, crashNode: -1,
		})
		if err != nil {
			return out, err
		}
		out.WeakScaling = append(out.WeakScaling, p)
		pp, err := cfg.measurePartition("pair-probes", clusterRun{
			nodes: 3, pattern: "stencil_1d", width: 6, steps: 16,
			outputBytes: 64, crashNode: -1,
			partitionNode: 2, partitionAfter: 200 * time.Millisecond,
			partitionFor: 500 * time.Millisecond, partitionMode: "pair",
		})
		if err != nil {
			return out, err
		}
		out.PartitionHeal = append(out.PartitionHeal, pp)
		return out, nil
	}

	// Weak scaling: per-node work held at 16 points.
	for _, n := range []int{2, 3, 4} {
		p, err := cfg.measure(clusterRun{
			nodes: n, pattern: "stencil_1d", width: 16 * n, steps: 64,
			iterations: 500, outputBytes: 256, crashNode: -1,
		})
		if err != nil {
			return out, err
		}
		out.WeakScaling = append(out.WeakScaling, p)
	}

	// Strong scaling: total work held at 48 points.
	for _, n := range []int{2, 4} {
		p, err := cfg.measure(clusterRun{
			nodes: n, pattern: "stencil_1d", width: 48, steps: 64,
			iterations: 500, outputBytes: 256, crashNode: -1,
		})
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
	base := clusterRun{
		nodes: 3, pattern: "stencil_1d", width: 24, steps: 32,
		iterations: 200, outputBytes: 256, crashNode: -1,
		partitionNode: 2, partitionAfter: 300 * time.Millisecond,
		partitionMode: "pair",
	}
	for _, sc := range []struct {
		name string
		mut  func(*clusterRun)
	}{
		{"pair-probes", func(r *clusterRun) { r.partitionFor = 800 * time.Millisecond }},
		{"full-rejoin", func(r *clusterRun) { r.partitionFor = 1500 * time.Millisecond; r.partitionMode = "full" }},
	} {
		r := base
		sc.mut(&r)
		pp, err := cfg.measurePartition(sc.name, r)
		if err != nil {
			return out, err
		}
		out.PartitionHeal = append(out.PartitionHeal, pp)
	}
	return out, nil
}

// measure runs one cluster and distills the aggregate JSON node 0 wrote.
func (c ClusterConfig) measure(r clusterRun) (ClusterPoint, error) {
	c.logf("cluster: %d nodes, %s width=%d steps=%d", r.nodes, r.pattern, r.width, r.steps)
	agg, _, err := c.runCluster(r)
	if err != nil {
		return ClusterPoint{}, err
	}
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
		return p, fmt.Errorf("bench: %d-node cluster ran %d/%d tasks", r.nodes, p.TasksRun, p.TotalTasks)
	}
	c.logf("cluster: done in %.1fms (%d tasks, %.0f tasks/s)", p.WallMS, p.TasksRun, p.TasksPerSec)
	return p, nil
}

// measureRecovery hard-kills node 2 of 3 mid-run with -recover on: the
// survivors must detect the crash via gossiped membership, re-home the
// dead node's partition, and still complete the whole graph.
func (c ClusterConfig) measureRecovery() (ClusterRecovery, error) {
	r := clusterRun{
		nodes: 3, pattern: "stencil_1d", width: 24, steps: 4000,
		iterations: 2000, outputBytes: 256, recover: true,
		crashNode: 2, crashAfter: 300 * time.Millisecond,
	}
	c.logf("cluster: recovery run, killing node %d after %s", r.crashNode, r.crashAfter)
	agg, codes, err := c.runCluster(r)
	if err != nil {
		return ClusterRecovery{}, err
	}
	rec := ClusterRecovery{
		Nodes: r.nodes, CrashedNode: r.crashNode,
		Completed: agg.Completed, TotalTasks: agg.TotalTasks, TasksRun: agg.TasksRun,
		WallMS: float64(agg.MaxWallNS) / 1e6,
	}
	for _, d := range agg.DownNodes {
		if d == r.crashNode {
			rec.Detected = true
		}
	}
	if !rec.Detected || !rec.Completed {
		return rec, fmt.Errorf("bench: recovery run detected=%v completed=%v (%d/%d tasks, exits %v)",
			rec.Detected, rec.Completed, rec.TasksRun, rec.TotalTasks, codes)
	}
	c.logf("cluster: recovered in %.1fms (%d/%d tasks)", rec.WallMS, rec.TasksRun, rec.TotalTasks)
	return rec, nil
}

// measurePartition runs one timed-partition scenario: every node arms
// the identical fault schedule locally after the join barrier, rides
// out the cut, converges back (rejoin), and only then runs the
// benchmark — so WallMS/TasksPerSec measure post-heal recovery.
func (c ClusterConfig) measurePartition(scenario string, r clusterRun) (ClusterPartitionPoint, error) {
	c.logf("cluster: partition scenario %s (%s, node %d cut for %s)",
		scenario, r.partitionMode, r.partitionNode, r.partitionFor)
	agg, _, err := c.runCluster(r)
	if err != nil {
		return ClusterPartitionPoint{}, err
	}
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

// runCluster spawns r.nodes amc-node processes over loopback TCP with
// ephemeral ports — node 0 first (its bound address, learned through an
// address file, seeds the rest) — waits for them, and returns the
// aggregate node 0 wrote plus every node's exit code.
func (c ClusterConfig) runCluster(r clusterRun) (cluster.ClusterResult, []int, error) {
	dir, err := os.MkdirTemp("", "amc-cluster-")
	if err != nil {
		return cluster.ClusterResult{}, nil, err
	}
	defer os.RemoveAll(dir)
	addrFile := filepath.Join(dir, "node0.addr")
	resultFile := filepath.Join(dir, "cluster.json")

	nodeArgs := func(id int, seed string) []string {
		args := append([]string(nil), c.NodeCommand[1:]...)
		args = append(args,
			"-id", strconv.Itoa(id), "-n", strconv.Itoa(r.nodes),
			"-bind", "127.0.0.1:0",
			"-pattern", r.pattern,
			"-width", strconv.Itoa(r.width),
			"-steps", strconv.Itoa(r.steps),
			"-iterations", strconv.Itoa(r.iterations),
			"-output-bytes", strconv.Itoa(r.outputBytes),
			"-join-timeout", "30s",
			"-timeout", (c.RunTimeout - 30*time.Second).String(),
		)
		if r.recover {
			args = append(args, "-recover")
		}
		if r.partitionFor > 0 {
			args = append(args,
				"-partition-node", strconv.Itoa(r.partitionNode),
				"-partition-after", r.partitionAfter.String(),
				"-partition-for", r.partitionFor.String(),
				"-partition-mode", r.partitionMode,
			)
		}
		if id == 0 {
			args = append(args, "-addr-file", addrFile, "-result", resultFile)
		} else {
			args = append(args, "-seeds", seed)
		}
		if id == r.crashNode && r.crashAfter > 0 {
			args = append(args, "-crash-after", r.crashAfter.String())
		}
		return args
	}

	procs := make([]*exec.Cmd, r.nodes)
	tails := make([]*tailWriter, r.nodes)
	codes := make([]int, r.nodes)
	start := func(id int, seed string) error {
		tw := newTailWriter(os.Stderr, nodeStderrTailBytes)
		cmd := exec.Command(c.NodeCommand[0], nodeArgs(id, seed)...)
		cmd.Stdout = tw
		cmd.Stderr = tw
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("bench: starting node %d: %w", id, err)
		}
		procs[id] = cmd
		tails[id] = tw
		return nil
	}
	kill := func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				_ = p.Process.Kill()
			}
		}
	}
	// runErr wraps a failure with every node's exit code and stderr tail
	// so the driver can report the forensics instead of just "timed out".
	runErr := func(reason string) error {
		e := &ClusterRunError{Reason: reason, Exits: append([]int(nil), codes...), StderrTails: map[int]string{}}
		for id, tw := range tails {
			if tw != nil {
				if tail := tw.Tail(); tail != "" {
					e.StderrTails[id] = tail
				}
			}
		}
		return e
	}

	if err := start(0, ""); err != nil {
		return cluster.ClusterResult{}, nil, err
	}
	addr, err := awaitFile(addrFile, 15*time.Second)
	if err != nil {
		kill()
		_ = procs[0].Wait()
		return cluster.ClusterResult{}, nil, runErr(fmt.Sprintf("node 0 never published its address: %v", err))
	}
	seed := "0@" + addr
	for id := 1; id < r.nodes; id++ {
		if err := start(id, seed); err != nil {
			kill()
			return cluster.ClusterResult{}, nil, err
		}
	}

	done := make(chan struct{})
	go func() {
		for id, p := range procs {
			err := p.Wait()
			codes[id] = 0
			if ee, ok := err.(*exec.ExitError); ok {
				codes[id] = ee.ExitCode()
			} else if err != nil {
				codes[id] = -1
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(c.RunTimeout):
		kill()
		<-done
		return cluster.ClusterResult{}, codes, runErr(fmt.Sprintf("cluster run exceeded %s", c.RunTimeout))
	}

	for id, code := range codes {
		if id == r.crashNode {
			continue // hard-killed by design; any nonzero exit is fine
		}
		if code != 0 {
			return cluster.ClusterResult{}, codes, runErr(fmt.Sprintf("node %d exited %d", id, code))
		}
	}

	data, err := os.ReadFile(resultFile)
	if err != nil {
		return cluster.ClusterResult{}, codes, runErr(fmt.Sprintf("node 0 wrote no result: %v", err))
	}
	var agg cluster.ClusterResult
	if err := json.Unmarshal(data, &agg); err != nil {
		return cluster.ClusterResult{}, codes, fmt.Errorf("bench: bad cluster result: %w", err)
	}
	return agg, codes, nil
}

// nodeStderrTailBytes bounds how much of each node's output is retained
// for post-mortem reporting.
const nodeStderrTailBytes = 4096

// tailWriter tees a node's output to the suite's stderr while retaining
// the last nodeStderrTailBytes for attachment to a ClusterRunError.
type tailWriter struct {
	mu  sync.Mutex
	tee io.Writer
	buf []byte
	max int
}

func newTailWriter(tee io.Writer, max int) *tailWriter {
	return &tailWriter{tee: tee, max: max}
}

func (t *tailWriter) Write(p []byte) (int, error) {
	n, err := t.tee.Write(p)
	t.mu.Lock()
	t.buf = append(t.buf, p[:n]...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	t.mu.Unlock()
	return n, err
}

func (t *tailWriter) Tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// awaitFile polls until path exists with content, returning its first
// line trimmed.
func awaitFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 {
			s := string(data)
			for i := 0; i < len(s); i++ {
				if s[i] == '\n' || s[i] == '\r' {
					return s[:i], nil
				}
			}
			return s, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("timed out after %s", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
