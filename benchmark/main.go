// Command benchmark is the repository's benchmark: five closed-loop
// workloads over the parcel path, eight end-to-end metrics, and a
// per-layer budget from a traced pass. See README.md in this directory.
//
//	go run ./benchmark                                   every workload, both passes
//	go run ./benchmark -workload pingpong -o out.json    one workload, result file
//	go run ./benchmark -compare old.json new.json        regression check
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   one pass, the driver's result line last
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "comma-separated workloads to run (default: all five)")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs: payload bytes, fault plan")
		seconds  = fs.Float64("seconds", 15, "length of each pass's measured window in seconds")
		trace    = fs.Int("trace", -1, "0 = untraced pass only (end-to-end metrics), 1 = traced pass only (per-layer metrics), default both")
		warmup   = fs.Duration("warmup", 3*time.Second, "warm-up before the measured window")
		timeout  = fs.Duration("timeout", 0, "watchdog: kill a child after this long (default warm-up + window + 60s)")
		out      = fs.String("o", "", "write the result file here (- for standard output)")
		traceOut = fs.String("trace-out", "", "traced pass: write spans as Chrome-trace JSON to this file (one workload)")
		compare  = fs.Bool("compare", false, "compare two result files, or two comma-separated sets of them: -compare old.json new.json")
		child    = fs.String("child", "", "internal: run one pass described by this JSON in this process")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *child != "" {
		var cfg passConfig
		if err := json.Unmarshal([]byte(*child), &cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: bad -child config:", err)
			return 2
		}
		b, err := json.Marshal(runPass(cfg))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json[,old2.json…] new.json[,new2.json…]")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}

	names := make([]string, 0, len(workloadDefs))
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	if *workload != "" {
		names = strings.Split(*workload, ",")
	}
	for _, n := range names {
		if !knownWorkload(n) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", n)
			return 2
		}
	}
	if *trace < -1 || *trace > 1 || !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1, -seconds is positive")
		return 2
	}

	flags := map[string]string{}
	fs.Visit(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	rep := report{Machine: machineInfo(*seed, flags)}
	for _, name := range names {
		cfg := passConfig{
			Workload: name, Seed: *seed, Warmup: *warmup,
			Duration: time.Duration(*seconds * float64(time.Second)),
		}
		var res workloadResult
		if *trace != 1 {
			res = untracedPass(cfg, *timeout)
		}
		if *trace != 0 && (*trace == 1 || res.Error == "") {
			cfg.Traced, cfg.TraceOut = true, *traceOut
			tr := superviseChild(cfg, *timeout)
			if *trace == 1 {
				res = tr
			} else {
				res.PerLayer = tr.PerLayer
				if !tr.Correct {
					res.Correct = false
					res.Error = "traced pass: " + tr.Error
					res.StderrTail = tr.StderrTail
				}
			}
		}
		printTable(stdout, res)
		rep.Workloads = append(rep.Workloads, res)
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing result file:", err)
			return 1
		}
	}
	// One workload, one pass: the driver's form. Its result line comes last.
	if len(names) == 1 && *trace >= 0 {
		line, err := json.Marshal(contractFor(rep.Workloads[0], *trace == 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	for _, res := range rep.Workloads {
		if !res.Correct {
			return 1
		}
	}
	return 0
}

// extraSetups is how many further children of an untraced pass exist only
// to set the stack up once more each. A process sets up once, and a single
// reading of a few milliseconds says little; setup_s is the median of the
// measured child's reading and these.
const extraSetups = 30

// untracedPass runs the measured child of an untraced pass and then the
// set-up-only children, and folds their readings into setup_s.
func untracedPass(cfg passConfig, timeout time.Duration) workloadResult {
	res := superviseChild(cfg, timeout)
	if res.Error != "" {
		return res
	}
	readings := []float64{res.EndToEnd["setup_s"].Value}
	cfg.SetupOnly = true
	for i := 0; i < extraSetups; i++ {
		r := superviseChild(cfg, timeout)
		if !r.Correct {
			res.Correct = false
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			res.Error = strings.TrimSpace(fmt.Sprintf("set-up child: %s %v", r.Error, r.Failures))
			res.StderrTail = r.StderrTail
			ok := res.EndToEnd["ok_ratio"]
			ok.Value = 1 - float64(res.Failed)/float64(res.Attempted)
			res.EndToEnd["ok_ratio"] = ok
			return res
		}
		readings = append(readings, r.EndToEnd["setup_s"].Value)
	}
	v := res.EndToEnd["setup_s"]
	v.Value, v.N, v.Spread = median(readings), len(readings), iqrShare(readings)
	res.EndToEnd["setup_s"] = v
	return res
}

// stderrTailBytes is how much of a failed child's standard error is kept
// in its result.
const stderrTailBytes = 4096

// superviseChild runs one pass in a child process of its own — a wedged
// transport or a Shutdown that never returns then costs one workload,
// not the run — under a watchdog that kills the child at the timeout and
// records the pass as failed, with the tail of its standard error.
func superviseChild(cfg passConfig, timeout time.Duration) workloadResult {
	if timeout <= 0 {
		timeout = cfg.Warmup + cfg.Duration + 60*time.Second
	}
	failed := func(msg, stderr string) workloadResult {
		if len(stderr) > stderrTailBytes {
			stderr = stderr[len(stderr)-stderrTailBytes:]
		}
		return workloadResult{
			Workload: cfg.Workload, Seed: cfg.Seed, Attempted: 1, Failed: 1,
			Error: msg, StderrTail: stderr, WallS: timeout.Seconds(),
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return failed("locating the benchmark binary: "+err.Error(), "")
	}
	arg, err := json.Marshal(cfg)
	if err != nil {
		return failed(err.Error(), "")
	}
	cmd := exec.Command(exe, "-child", string(arg))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		return failed("starting child: "+err.Error(), "")
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(timeout):
		_ = cmd.Process.Kill() // it may have exited this instant; Wait below settles it
		<-done
		return failed(fmt.Sprintf("watchdog: child still running after %v, killed", timeout), stderr.String())
	}
	if err != nil {
		return failed("child: "+err.Error(), stderr.String())
	}
	var res workloadResult
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return failed("child printed no result: "+err.Error(), stderr.String())
	}
	if res.Error != "" && res.StderrTail == "" {
		res.StderrTail = stderr.String()
	}
	return res
}
