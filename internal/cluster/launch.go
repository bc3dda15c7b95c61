package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Launched is what a Launch observed of a cluster run.
type Launched struct {
	// Exits holds every node's exit code; -1 for a node killed by a
	// signal or never started.
	Exits []int
	// Outputs holds every node's full combined stdout and stderr.
	Outputs []string
	// Result is node 0's aggregate report, nil if it wrote none.
	Result *ClusterResult
}

// LaunchError is a failed cluster run with its forensics: every node's
// exit code and the tail of its output.
type LaunchError struct {
	Reason string
	Exits  []int
	Tails  map[int]string
}

func (e *LaunchError) Error() string {
	return fmt.Sprintf("cluster: %s (exits %v)", e.Reason, e.Exits)
}

// launchTailBytes bounds the output tail a LaunchError carries per node.
const launchTailBytes = 4096

// Launch runs one amc-node process per spec, each as command followed by
// its spec's Args, and waits for all of them. It fills in each spec's ID
// (its index), N, and Seeds (node 0's published address); node 0 also
// gets an address file and a result file in a temporary directory that
// Launch removes. A spec without a Bind listens on 127.0.0.1:0. Node 0
// starts first; if it exits before publishing its address, Launch
// returns at once. Every node must exit within node 0's JoinTimeout +
// Bench.Timeout of the start, or all are killed. Node output is copied
// live to out (nil discards it).
//
// The run fails — a *LaunchError — when a node cannot start, node 0
// exits before publishing its address, the deadline passes, a node
// without a scheduled crash (CrashAfter) exits non-zero, or node 0
// exits 0 without a readable result. The Launched is filled either way.
func Launch(command []string, nodes []NodeSpec, out io.Writer) (Launched, error) {
	if out == nil {
		out = io.Discard
	}
	n := len(nodes)
	res := Launched{Exits: make([]int, n), Outputs: make([]string, n)}
	for i := range res.Exits {
		res.Exits[i] = -1
	}
	dir, err := os.MkdirTemp("", "amc-cluster-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	specs := make([]NodeSpec, n)
	for i, s := range nodes {
		s.ID, s.N = i, n
		specs[i] = s
	}
	specs[0].AddrFile = filepath.Join(dir, "node0.addr")
	specs[0].ResultFile = filepath.Join(dir, "cluster.json")
	s0 := specs[0].withDefaults()
	budget := s0.JoinTimeout + s0.Bench.Timeout
	deadline := time.NewTimer(budget)
	defer deadline.Stop()

	var outMu sync.Mutex // serializes the nodes' writes to out
	procs := make([]*launchedNode, n)
	collect := func() {
		for id, p := range procs {
			if p != nil {
				<-p.done
				res.Exits[id] = p.code
				res.Outputs[id] = p.out.String()
			}
		}
	}
	fail := func(reason string) (Launched, error) {
		for _, p := range procs {
			if p != nil {
				_ = p.cmd.Process.Kill()
			}
		}
		collect()
		e := &LaunchError{Reason: reason, Exits: res.Exits, Tails: map[int]string{}}
		for id, out := range res.Outputs {
			if len(out) > launchTailBytes {
				out = out[len(out)-launchTailBytes:]
			}
			if out != "" {
				e.Tails[id] = out
			}
		}
		return res, e
	}
	start := func(id int) error {
		p := &launchedNode{done: make(chan struct{})}
		p.out.w, p.out.mu = out, &outMu
		args := append(append([]string(nil), command[1:]...), specs[id].Args()...)
		p.cmd = exec.Command(command[0], args...)
		p.cmd.Stdout = &p.out
		p.cmd.Stderr = &p.out
		if err := p.cmd.Start(); err != nil {
			return err
		}
		procs[id] = p
		go p.wait()
		return nil
	}

	if err := start(0); err != nil {
		return fail(fmt.Sprintf("starting node 0: %v", err))
	}
	addr, err := awaitAddr(specs[0].AddrFile, procs[0], deadline.C)
	if err != nil {
		return fail(err.Error())
	}
	for id := 1; id < n; id++ {
		specs[id].Seeds = []Seed{{ID: 0, Addr: addr}}
		if err := start(id); err != nil {
			return fail(fmt.Sprintf("starting node %d: %v", id, err))
		}
	}
	for _, p := range procs {
		select {
		case <-p.done:
		case <-deadline.C:
			return fail(fmt.Sprintf("cluster run exceeded %s", budget))
		}
	}
	collect()

	if data, err := os.ReadFile(specs[0].ResultFile); err == nil {
		var agg ClusterResult
		if json.Unmarshal(data, &agg) == nil {
			res.Result = &agg
		}
	}
	for id, code := range res.Exits {
		if code != CodeOK && specs[id].CrashAfter <= 0 {
			return fail(fmt.Sprintf("node %d exited %d", id, code))
		}
	}
	if res.Result == nil {
		return fail("node 0 wrote no readable result")
	}
	return res, nil
}

// awaitAddr polls for node 0's address file until it holds an address,
// node 0 exits, or the deadline fires.
func awaitAddr(path string, node0 *launchedNode, deadline <-chan time.Time) (string, error) {
	read := func() (string, bool) {
		data, err := os.ReadFile(path)
		addr, _, whole := strings.Cut(string(data), "\n")
		return addr, err == nil && whole && addr != ""
	}
	poll := time.NewTicker(10 * time.Millisecond)
	defer poll.Stop()
	for {
		select {
		case <-node0.done:
			if addr, ok := read(); ok {
				return addr, nil
			}
			return "", fmt.Errorf("node 0 exited %d before publishing its address", node0.code)
		case <-deadline:
			return "", fmt.Errorf("node 0 never published its address")
		case <-poll.C:
			if addr, ok := read(); ok {
				return addr, nil
			}
		}
	}
}

// launchedNode is one running amc-node process.
type launchedNode struct {
	cmd  *exec.Cmd
	out  nodeOutput
	done chan struct{} // closed once the process has exited and code is set
	code int
}

func (p *launchedNode) wait() {
	err := p.cmd.Wait()
	if ee, ok := err.(*exec.ExitError); ok {
		p.code = ee.ExitCode()
	} else if err != nil {
		p.code = -1
	}
	close(p.done)
}

// nodeOutput keeps a node's whole output and copies it to the shared
// writer w, under the mutex every node of the run shares.
type nodeOutput struct {
	mu  *sync.Mutex
	w   io.Writer
	buf bytes.Buffer
}

func (o *nodeOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf.Write(p)
	_, _ = o.w.Write(p)
	return len(p), nil
}

func (o *nodeOutput) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}
