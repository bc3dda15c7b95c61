package cluster

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"
)

// NodeMain parses amc-node's command line and runs one node, returning
// the process exit code. It is shared by cmd/amc-node and by
// amc-bench's -as-node re-exec mode (the benchmark driver spawns its
// own binary as the cluster's nodes, so one build artifact suffices).
func NodeMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("amc-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec NodeSpec
	var seeds string
	fs.IntVar(&spec.ID, "id", -1, "locality id this node hosts (required)")
	fs.IntVar(&spec.N, "n", 0, "cluster size in localities (required)")
	fs.StringVar(&spec.Bind, "bind", "127.0.0.1:0", "listen address")
	fs.StringVar(&spec.Advertise, "advertise", "", "address gossiped to peers (default: bound address)")
	fs.StringVar(&seeds, "seeds", "", "comma-separated bootstrap contacts, each id@host:port (node 0 typically has none)")
	fs.StringVar(&spec.AddrFile, "addr-file", "", "write the advertised address to this file once listening")
	fs.StringVar(&spec.ResultFile, "result", "", "node 0: write the aggregated benchmark JSON here (default stdout)")
	fs.IntVar(&spec.Workers, "workers", 2, "scheduler workers for the hosted locality")
	fs.DurationVar(&spec.GossipInterval, "gossip-interval", 25*time.Millisecond, "membership gossip period")
	fs.DurationVar(&spec.HeartbeatInterval, "heartbeat-interval", 25*time.Millisecond, "phi-accrual heartbeat period")
	fs.Float64Var(&spec.PhiThreshold, "phi", 8, "phi threshold for declaring a peer dead")
	fs.DurationVar(&spec.JoinTimeout, "join-timeout", 10*time.Second, "bootstrap barrier timeout")
	fs.StringVar(&spec.App, "app", "bench", "workload: bench (Task Bench) or fft (distributed 2-D FFT)")
	fs.IntVar(&spec.FFT.Rows, "fft-rows", 64, "fft: grid rows (power of two)")
	fs.IntVar(&spec.FFT.Cols, "fft-cols", 64, "fft: grid cols (power of two)")
	fs.StringVar(&spec.FFT.Alg, "fft-alg", "ring", "fft: all-to-all algorithm variant (direct|ring|auto)")
	fs.IntVar(&spec.FFT.Iterations, "fft-iterations", 2, "fft: transform repetitions")
	fs.IntVar(&spec.FFT.CoalesceParcels, "fft-coalesce-parcels", 0, "fft: static coalescing batch size for contributions (0 = off)")
	fs.DurationVar(&spec.FFT.CoalesceInterval, "fft-coalesce-interval", time.Millisecond, "fft: static coalescing flush interval")
	fs.StringVar(&spec.Bench.Pattern, "pattern", "stencil_1d", "task bench dependency pattern")
	fs.IntVar(&spec.Bench.Width, "width", 0, "graph width in task points (default 2 per node)")
	fs.IntVar(&spec.Bench.Steps, "steps", 64, "graph steps")
	fs.IntVar(&spec.Bench.Iterations, "iterations", 0, "per-task compute iterations")
	fs.IntVar(&spec.Bench.OutputBytes, "output-bytes", 64, "per-task output payload size")
	fs.BoolVar(&spec.Bench.Recover, "recover", false, "re-home a crashed node's tasks instead of failing fast")
	fs.DurationVar(&spec.Bench.Timeout, "timeout", 60*time.Second, "benchmark run budget")
	fs.DurationVar(&spec.CrashAfter, "crash-after", 0, "kill this process hard this long after the run starts (fault injection)")
	fs.IntVar(&spec.Partition.Node, "partition-node", -1, "victim locality of the timed partition (-1 = none)")
	fs.DurationVar(&spec.Partition.After, "partition-after", 300*time.Millisecond, "delay from health warm-up to the partition cut")
	fs.DurationVar(&spec.Partition.For, "partition-for", 0, "partition duration (0 disables)")
	fs.StringVar(&spec.Partition.Mode, "partition-mode", "pair", "partition shape: pair (victim↔0, relays live) or full (victim isolated)")
	if err := fs.Parse(args); err != nil {
		return CodeError
	}
	if spec.ID < 0 || spec.N < 2 {
		fmt.Fprintln(stderr, "amc-node: -id and -n (>= 2) are required")
		fs.Usage()
		return CodeError
	}
	if seeds != "" {
		for _, tok := range strings.Split(seeds, ",") {
			s, err := ParseSeed(strings.TrimSpace(tok))
			if err != nil {
				fmt.Fprintf(stderr, "amc-node: %v\n", err)
				return CodeError
			}
			spec.Seeds = append(spec.Seeds, s)
		}
	}
	return RunNode(spec)
}
