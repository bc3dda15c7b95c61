package cluster

import (
	"errors"
	"io"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestArgsRoundTrip: amc-node's parse of spec.Args() is spec.withDefaults()
// for every kind of spec the launcher's callers build.
func TestArgsRoundTrip(t *testing.T) {
	specs := map[string]NodeSpec{
		"bare": {ID: 1, N: 2},
		"exec-test node 0": {
			ID: 0, N: 3, AddrFile: "run/node0.addr", ResultFile: "run/cluster.json",
			JoinTimeout: 30 * time.Second, HeartbeatInterval: 50 * time.Millisecond,
			GossipInterval: 50 * time.Millisecond, PhiThreshold: 12,
			Bench: BenchSpec{Pattern: "stencil_1d", Width: 6, Steps: 32, Timeout: 60 * time.Second},
		},
		"crashing recover node": {
			ID: 2, N: 3, Seeds: []Seed{{ID: 0, Addr: "127.0.0.1:40001"}},
			CrashAfter: 300 * time.Millisecond, JoinTimeout: 30 * time.Second,
			Bench: BenchSpec{Pattern: "stencil_1d", Width: 24, Steps: 4000, Iterations: 2000,
				OutputBytes: 256, Recover: true, Timeout: 90 * time.Second},
		},
		"partition node": {
			ID: 1, N: 3, Seeds: []Seed{{ID: 0, Addr: "127.0.0.1:40001"}, {ID: 2, Addr: "[::1]:9"}},
			Bind: ":0", Advertise: "10.0.0.1:7000", Workers: 4,
			Partition: PartitionSpec{Node: 2, After: 200 * time.Millisecond, For: 1500 * time.Millisecond, Mode: "full"},
		},
		"partition of node 0": {ID: 2, N: 3, Partition: PartitionSpec{Node: 0, For: time.Second}},
		"fft node": {
			ID: 1, N: 3, App: "fft", PhiThreshold: 7.5,
			FFT: FFTSpec{Rows: 32, Cols: 16, Alg: "direct", Iterations: 2,
				CoalesceParcels: 8, CoalesceInterval: 200 * time.Microsecond},
		},
	}
	for name, spec := range specs {
		got, err := parseNodeArgs(spec.Args(), io.Discard)
		if err != nil {
			t.Errorf("%s: parse %q: %v", name, spec.Args(), err)
			continue
		}
		if want := spec.withDefaults(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Args %q\nparse  %+v\nwant   %+v", name, spec.Args(), got, want)
		}
	}
}

// TestArgsOmitDefaults: a spec at its defaults needs only its identity
// and its width (whose default, 2 per node, depends on -n).
func TestArgsOmitDefaults(t *testing.T) {
	got := NodeSpec{ID: 0, N: 2, Partition: PartitionSpec{Node: -1}}.Args()
	if want := []string{"-id=0", "-n=2", "-width=4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Args = %q, want %q", got, want)
	}
}

// TestLaunchNodeZeroExitsAtOnce: a node 0 that exits before publishing
// its address ends the launch at once, not after a polling timeout.
func TestLaunchNodeZeroExitsAtOnce(t *testing.T) {
	bin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false command")
	}
	start := time.Now()
	res, err := Launch([]string{bin}, make([]NodeSpec, 3), nil)
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("Launch took %v", took)
	}
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want a *LaunchError", err)
	}
	if le.Exits[0] != 1 || !strings.Contains(err.Error(), "node 0 exited 1") {
		t.Errorf("err = %v, want node 0's exit code 1", err)
	}
	if !reflect.DeepEqual(res.Exits, []int{1, -1, -1}) {
		t.Errorf("Exits = %v, want [1 -1 -1] (nodes 1 and 2 never started)", res.Exits)
	}
}

// fakeNode is a shell stand-in for amc-node: node 0 publishes an address
// and writes a result; every other node exits 0 only if it was seeded
// with that address. The spec's flags arrive as $1, $2, ...
const fakeNode = `
for a in "$@"; do
	case "$a" in
	-addr-file=*) addr="${a#-addr-file=}" ;;
	-result=*) result="${a#-result=}" ;;
	-seeds=*) seeds="${a#-seeds=}" ;;
	esac
done
echo "node up: $*"
if [ -n "$addr" ]; then
	echo '{"nodes": 3, "completed": true}' > "$result"
	echo 127.0.0.1:4242 > "$addr"
	exit 0
fi
[ "$seeds" = 0@127.0.0.1:4242 ]
`

// TestLaunchSeedsAndResult: Launch seeds nodes 1.. with node 0's
// published address and returns node 0's result and every output.
func TestLaunchSeedsAndResult(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh")
	}
	var live strings.Builder
	res, err := Launch([]string{sh, "-c", fakeNode, "amc-node"}, make([]NodeSpec, 3), &live)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result == nil || res.Result.Nodes != 3 || !res.Result.Completed {
		t.Errorf("Result = %+v", res.Result)
	}
	if !reflect.DeepEqual(res.Exits, []int{0, 0, 0}) {
		t.Errorf("Exits = %v", res.Exits)
	}
	for id, out := range res.Outputs {
		if !strings.Contains(out, "node up: ") || !strings.Contains(live.String(), out) {
			t.Errorf("node %d output %q missing or not copied live", id, out)
		}
	}
}

// TestLaunchDeadlineKillsEveryNode: nodes still running at node 0's
// JoinTimeout + Bench.Timeout are killed and the launch fails.
func TestLaunchDeadlineKillsEveryNode(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh")
	}
	nodes := make([]NodeSpec, 2)
	nodes[0].JoinTimeout = 200 * time.Millisecond
	nodes[0].Bench.Timeout = 300 * time.Millisecond
	script := fakeNode[:strings.Index(fakeNode, "if [")] + `[ -n "$addr" ] && echo 127.0.0.1:4242 > "$addr"; exec sleep 30`
	start := time.Now()
	res, err := Launch([]string{sh, "-c", script, "amc-node"}, nodes, nil)
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("Launch took %v", took)
	}
	var le *LaunchError
	if !errors.As(err, &le) || !strings.Contains(le.Reason, "exceeded 500ms") {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if !reflect.DeepEqual(res.Exits, []int{-1, -1}) {
		t.Errorf("Exits = %v, want both killed", res.Exits)
	}
	if !strings.Contains(le.Tails[1], "node up: ") {
		t.Errorf("Tails = %q, want node 1's output", le.Tails)
	}
}
