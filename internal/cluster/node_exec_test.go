package cluster_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// The exec tests run real amc-node OS processes over loopback TCP — the
// end-to-end acceptance path for cluster mode. They build the binary
// once per test run.

var (
	nodeBinOnce sync.Once
	nodeBinPath string
	nodeBinErr  error
)

func nodeBin(t *testing.T) string {
	t.Helper()
	nodeBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "amc-node-bin-")
		if err != nil {
			nodeBinErr = err
			return
		}
		nodeBinPath = filepath.Join(dir, "amc-node")
		cmd := exec.Command("go", "build", "-o", nodeBinPath, "repro/cmd/amc-node")
		if out, err := cmd.CombinedOutput(); err != nil {
			nodeBinErr = err
			t.Logf("go build: %s", out)
		}
	})
	if nodeBinErr != nil {
		t.Fatalf("building amc-node: %v", nodeBinErr)
	}
	return nodeBinPath
}

// launchExec runs one amc-node process per spec through cluster.Launch
// and prints every node's output if the test fails.
func launchExec(t *testing.T, nodes []cluster.NodeSpec) cluster.Launched {
	t.Helper()
	res, err := cluster.Launch([]string{nodeBin(t)}, nodes, nil)
	if err != nil {
		t.Logf("launch: %v", err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			for id, out := range res.Outputs {
				t.Logf("--- node %d output ---\n%s", id, out)
			}
		}
	})
	return res
}

// execNodes describes a three-node run of bench in which node 2, when
// crashAfter > 0, hard-kills itself that long after the run starts.
// Relaxed detector parameters: the suite shares the machine with every
// other test package, and at the production 25ms/phi-8 settings
// scheduling starvation can convict live peers. Detection still lands
// within a second — far inside the test deadlines.
func execNodes(bench cluster.BenchSpec, crashAfter time.Duration) []cluster.NodeSpec {
	nodes := make([]cluster.NodeSpec, 3)
	for i := range nodes {
		nodes[i] = cluster.NodeSpec{
			JoinTimeout:       30 * time.Second,
			HeartbeatInterval: 50 * time.Millisecond,
			GossipInterval:    50 * time.Millisecond,
			PhiThreshold:      12,
			Bench:             bench,
		}
	}
	nodes[2].CrashAfter = crashAfter
	return nodes
}

// result is node 0's aggregate report; the test fails without one.
func result(t *testing.T, res cluster.Launched) cluster.ClusterResult {
	t.Helper()
	if res.Result == nil {
		t.Fatal("node 0 wrote no result")
	}
	return *res.Result
}

// TestExecThreeNodeTaskbench: three OS processes over real sockets run
// one stencil graph to completion, every task exactly once.
func TestExecThreeNodeTaskbench(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	res := launchExec(t, execNodes(cluster.BenchSpec{
		Pattern: "stencil_1d", Width: 6, Steps: 32, Timeout: 60 * time.Second,
	}, 0))
	for id, code := range res.Exits {
		if code != 0 {
			t.Errorf("node %d exited %d", id, code)
		}
	}
	agg := result(t, res)
	if !agg.Completed {
		t.Fatalf("run did not complete: %+v", agg)
	}
	if agg.TasksRun != agg.TotalTasks {
		t.Fatalf("ran %d tasks, want exactly %d", agg.TasksRun, agg.TotalTasks)
	}
}

// TestExecKillOneFailFast: node 2 is hard-killed mid-run; with no
// recovery policy the survivors must detect the crash (phi detector +
// gossip) and fail fast with the dedicated exit code.
func TestExecKillOneFailFast(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	res := launchExec(t, execNodes(cluster.BenchSpec{
		Pattern: "stencil_1d", Width: 6, Steps: 100000, Iterations: 500, Timeout: 60 * time.Second,
	}, 500*time.Millisecond))
	for _, id := range []int{0, 1} {
		if res.Exits[id] != cluster.CodeCrashDetected {
			t.Errorf("node %d exited %d, want %d (crash detected)", id, res.Exits[id], cluster.CodeCrashDetected)
		}
		if !strings.Contains(res.Outputs[id], "locality 2 confirmed down") {
			t.Errorf("node %d never logged the membership verdict on node 2", id)
		}
	}
}

// TestExecKillOneRecovers: same kill, but with -recover the survivors
// re-home the dead node's partition and still complete the whole graph.
func TestExecKillOneRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	res := launchExec(t, execNodes(cluster.BenchSpec{
		Pattern: "stencil_1d", Width: 12, Steps: 8000, Iterations: 2000, Recover: true, Timeout: 90 * time.Second,
	}, 500*time.Millisecond))
	for _, id := range []int{0, 1} {
		if res.Exits[id] != 0 {
			t.Errorf("node %d exited %d, want 0", id, res.Exits[id])
		}
	}
	agg := result(t, res)
	if !agg.Completed {
		t.Fatalf("recovery run did not complete: %+v", agg)
	}
	found := false
	for _, d := range agg.DownNodes {
		if d == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("node 0 never recorded node 2 down (down=%v)", agg.DownNodes)
	}
	if agg.TasksRun < agg.TotalTasks {
		t.Errorf("ran %d tasks, want >= %d", agg.TasksRun, agg.TotalTasks)
	}
}
