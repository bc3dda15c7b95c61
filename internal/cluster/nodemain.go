package cluster

import (
	"flag"
	"fmt"
	"io"
	"strings"
)

// NodeMain parses amc-node's command line and runs one node, returning
// the process exit code. It is shared by cmd/amc-node and by
// amc-bench's -as-node re-exec mode (the benchmark driver spawns its
// own binary as the cluster's nodes, so one build artifact suffices).
func NodeMain(args []string, stderr io.Writer) int {
	spec, err := parseNodeArgs(args, stderr)
	if err != nil {
		return CodeError
	}
	return RunNode(spec)
}

// Args is the amc-node command line that describes s: every flag whose
// value in s.withDefaults() differs from the flag's default, in the
// -name=value form. NodeMain parses it back to s.withDefaults().
func (s NodeSpec) Args() []string {
	defaults := flag.NewFlagSet("", flag.ContinueOnError)
	d := nodeDefaults()
	d.bindFlags(defaults)
	mine := flag.NewFlagSet("", flag.ContinueOnError)
	s = s.withDefaults()
	s.bindFlags(mine)
	var args []string
	mine.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != defaults.Lookup(f.Name).DefValue {
			args = append(args, "-"+f.Name+"="+v)
		}
	})
	return args
}

// nodeDefaults is the spec an empty command line parses to: withDefaults,
// plus the two sentinels only a command line needs (-id is required, and
// -partition-node -1 names no victim).
func nodeDefaults() NodeSpec {
	s := NodeSpec{ID: -1}.withDefaults()
	s.Partition.Node = -1
	return s
}

func parseNodeArgs(args []string, stderr io.Writer) (NodeSpec, error) {
	fs := flag.NewFlagSet("amc-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := nodeDefaults()
	spec.bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return spec, err
	}
	if spec.ID < 0 || spec.N < 2 {
		fmt.Fprintln(stderr, "amc-node: -id and -n (>= 2) are required")
		fs.Usage()
		return spec, fmt.Errorf("amc-node: missing -id or -n")
	}
	return spec, nil
}

// bindFlags is amc-node's flag table: it binds each flag to its field of
// s, taking the field's current value as the flag's default.
func (s *NodeSpec) bindFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.ID, "id", s.ID, "locality id this node hosts (required)")
	fs.IntVar(&s.N, "n", s.N, "cluster size in localities (required)")
	fs.StringVar(&s.Bind, "bind", s.Bind, "listen address")
	fs.StringVar(&s.Advertise, "advertise", s.Advertise, "address gossiped to peers (default: bound address)")
	fs.Var((*seedList)(&s.Seeds), "seeds", "comma-separated bootstrap contacts, each id@host:port (node 0 typically has none)")
	fs.StringVar(&s.AddrFile, "addr-file", s.AddrFile, "write the advertised address to this file once listening")
	fs.StringVar(&s.ResultFile, "result", s.ResultFile, "node 0: write the aggregated benchmark JSON here (default stdout)")
	fs.IntVar(&s.Workers, "workers", s.Workers, "scheduler workers for the hosted locality")
	fs.DurationVar(&s.GossipInterval, "gossip-interval", s.GossipInterval, "membership gossip period")
	fs.DurationVar(&s.HeartbeatInterval, "heartbeat-interval", s.HeartbeatInterval, "phi-accrual heartbeat period")
	fs.Float64Var(&s.PhiThreshold, "phi", s.PhiThreshold, "phi threshold for declaring a peer dead")
	fs.DurationVar(&s.JoinTimeout, "join-timeout", s.JoinTimeout, "bootstrap barrier timeout")
	fs.StringVar(&s.App, "app", s.App, "workload: bench (Task Bench) or fft (distributed 2-D FFT)")
	fs.IntVar(&s.FFT.Rows, "fft-rows", s.FFT.Rows, "fft: grid rows (power of two)")
	fs.IntVar(&s.FFT.Cols, "fft-cols", s.FFT.Cols, "fft: grid cols (power of two)")
	fs.StringVar(&s.FFT.Alg, "fft-alg", s.FFT.Alg, "fft: all-to-all algorithm variant (direct|ring|auto)")
	fs.IntVar(&s.FFT.Iterations, "fft-iterations", s.FFT.Iterations, "fft: transform repetitions")
	fs.IntVar(&s.FFT.CoalesceParcels, "fft-coalesce-parcels", s.FFT.CoalesceParcels, "fft: static coalescing batch size for contributions (0 = off)")
	fs.DurationVar(&s.FFT.CoalesceInterval, "fft-coalesce-interval", s.FFT.CoalesceInterval, "fft: static coalescing flush interval")
	fs.StringVar(&s.Bench.Pattern, "pattern", s.Bench.Pattern, "task bench dependency pattern")
	fs.IntVar(&s.Bench.Width, "width", s.Bench.Width, "graph width in task points (default 2 per node)")
	fs.IntVar(&s.Bench.Steps, "steps", s.Bench.Steps, "graph steps")
	fs.IntVar(&s.Bench.Iterations, "iterations", s.Bench.Iterations, "per-task compute iterations")
	fs.IntVar(&s.Bench.OutputBytes, "output-bytes", s.Bench.OutputBytes, "per-task output payload size")
	fs.BoolVar(&s.Bench.Recover, "recover", s.Bench.Recover, "re-home a crashed node's tasks instead of failing fast")
	fs.DurationVar(&s.Bench.Timeout, "timeout", s.Bench.Timeout, "benchmark run budget")
	fs.DurationVar(&s.CrashAfter, "crash-after", s.CrashAfter, "kill this process hard this long after the run starts (fault injection)")
	fs.IntVar(&s.Partition.Node, "partition-node", s.Partition.Node, "victim locality of the timed partition (-1 = none)")
	fs.DurationVar(&s.Partition.After, "partition-after", s.Partition.After, "delay from health warm-up to the partition cut")
	fs.DurationVar(&s.Partition.For, "partition-for", s.Partition.For, "partition duration (0 disables)")
	fs.StringVar(&s.Partition.Mode, "partition-mode", s.Partition.Mode, "partition shape: pair (victim↔0, relays live) or full (victim isolated)")
}

// seedList is the -seeds flag: comma-separated id@host:port contacts.
type seedList []Seed

func (l *seedList) String() string {
	if l == nil {
		return ""
	}
	parts := make([]string, len(*l))
	for i, s := range *l {
		parts[i] = fmt.Sprintf("%d@%s", s.ID, s.Addr)
	}
	return strings.Join(parts, ",")
}

func (l *seedList) Set(v string) error {
	if v == "" {
		return nil
	}
	for _, tok := range strings.Split(v, ",") {
		s, err := ParseSeed(strings.TrimSpace(tok))
		if err != nil {
			return err
		}
		*l = append(*l, s)
	}
	return nil
}
