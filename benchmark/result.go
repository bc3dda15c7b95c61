package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	goruntime "runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// The result schema, the same for every workload and written by -o:
// machine metadata, then per workload the end-to-end metrics (value,
// unit, sample count, slice spread, bound) and the per-layer metrics.

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is how many samples the value summarises (slices for a rate,
	// timed operations for a percentile).
	N int `json:"n,omitempty"`
	// Spread is (max − min) / median over the slices the value is the
	// median of (setup_s: the interquartile share of its processes'
	// readings); 0 for single readings.
	Spread float64 `json:"spread,omitempty"`
	// Bound is the regression bound of an end-to-end metric.
	Bound float64 `json:"bound,omitempty"`
}

// workloadResult is what one child process reports for one pass.
type workloadResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Failures  map[string]int64 `json:"failures,omitempty"`
	// Error is set when the pass did not complete: a set-up error, or
	// the watchdog's verdict with the child's stderr tail.
	Error      string           `json:"error,omitempty"`
	StderrTail string           `json:"stderr_tail,omitempty"`
	WallS      float64          `json:"wall_s"`
	EndToEnd   map[string]value `json:"end_to_end,omitempty"`
	PerLayer   map[string]value `json:"per_layer,omitempty"`
}

// machine describes where and how a report was produced.
type machine struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Kernel     string            `json:"kernel"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Flags      map[string]string `json:"flags"`
}

// report is the whole -o file.
type report struct {
	Machine   machine          `json:"machine"`
	Workloads []workloadResult `json:"workloads"`
}

func machineInfo(seed int64, flags map[string]string) machine {
	m := machine{
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Seed:       seed,
		Flags:      flags,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	// Outside a git checkout (the driver's copy is not one) the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

func writeReport(path string, r report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// contractLine is the last line of standard output in driver mode: one
// JSON object with exactly the keys correct, attempted, failed, metrics.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractFor renders a result as the driver's line: every end-to-end
// metric of the catalogue for an untraced pass, every per-layer metric
// for a traced one. A per-layer metric of a layer the workload bypasses
// is reported as 0.
func contractFor(res workloadResult, traced bool) contractLine {
	defs, got := endToEndDefs, res.EndToEnd
	if traced {
		defs, got = perLayerDefs, res.PerLayer
	}
	line := contractLine{
		Correct:   res.Correct,
		Attempted: max(res.Attempted, 1),
		Failed:    res.Failed,
		Metrics:   make(map[string]contractValue, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.Name] = contractValue{Value: got[d.Name].Value, Unit: d.Unit}
	}
	return line
}

// printTable prints every metric of a result by name, with its unit.
func printTable(w io.Writer, res workloadResult) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	status := "ok"
	if !res.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(tw, "== %s\tseed %d\t%s\tattempted %d\tfailed %d\t%.1fs\n",
		res.Workload, res.Seed, status, res.Attempted, res.Failed, res.WallS)
	if res.Error != "" {
		fmt.Fprintf(tw, "   error:\t%s\n", res.Error)
	}
	if res.Failed > 0 && len(res.Failures) > 0 {
		fmt.Fprintf(tw, "   failures:\t%v\n", res.Failures)
	}
	for _, d := range endToEndDefs {
		if v, ok := res.EndToEnd[d.Name]; ok {
			fmt.Fprintf(tw, "   %s\t%.6g %s\tn=%d\tspread %.1f%%\tbound %.1f%%\n",
				d.Name, v.Value, v.Unit, v.N, 100*v.Spread, 100*v.Bound)
		}
	}
	names := make([]string, 0, len(res.PerLayer))
	for name := range res.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.PerLayer[name]
		fmt.Fprintf(tw, "   %s\t%.6g %s\n", name, v.Value, v.Unit)
	}
	_ = tw.Flush()
}
