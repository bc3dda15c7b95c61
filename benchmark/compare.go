package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/stats"
)

// Verdicts of -compare for one (workload, end-to-end metric) pair.
const (
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // changed by more than the bound, but the spread is wider still
	verdictSame       = "same"
	verdictBetter     = "better"
)

// summary is one metric of one workload across the runs of a result
// file: the median of the runs' values (of ok_ratio the lowest, so that one
// bad run in a set shows) and how far they scatter.
type summary struct {
	median float64
	// spread is the interquartile share across runs where the file holds
	// at least four runs of the workload; with fewer it is the widest
	// slice spread the runs themselves reported.
	spread float64
	unit   string
	runs   int
}

func summarise(name string, vals []value) summary {
	xs := make([]float64, len(vals))
	s := summary{runs: len(vals)}
	for i, v := range vals {
		xs[i] = v.Value
		s.unit = v.Unit
		s.spread = max(s.spread, v.Spread)
	}
	s.median = median(xs)
	if name == "ok_ratio" {
		s.median = stats.Min(xs)
	}
	if len(xs) >= 4 {
		s.spread = iqrShare(xs)
	}
	return s
}

// endToEndOf returns a run's end-to-end metrics as -compare reads them. A
// run that is not correct never stands as ok_ratio 1: one that did not
// complete (a watchdog kill, a set-up error) measured nothing and reports
// no metrics at all, and would otherwise drop out of the comparison.
func endToEndOf(r workloadResult) map[string]value {
	v, ok := r.EndToEnd["ok_ratio"]
	if r.Correct || (ok && v.Value < 1) {
		return r.EndToEnd
	}
	out := map[string]value{"ok_ratio": {Unit: "ratio"}}
	for name, v := range r.EndToEnd {
		if name != "ok_ratio" {
			out[name] = v
		}
	}
	return out
}

// collect groups a report's values by workload and metric name.
func collect(r report, pick func(workloadResult) map[string]value) map[string]map[string][]value {
	out := make(map[string]map[string][]value)
	for _, w := range r.Workloads {
		for name, v := range pick(w) {
			if out[w.Workload] == nil {
				out[w.Workload] = make(map[string][]value)
			}
			out[w.Workload][name] = append(out[w.Workload][name], v)
		}
	}
	return out
}

// judge compares one end-to-end metric's summaries. worsening is the
// change in the metric's bad direction as a share of the base.
func judge(d metricDef, base, next summary) (verdict string, worsening float64) {
	if base.median == 0 {
		return verdictUnresolved, 0
	}
	worsening = (next.median - base.median) / base.median
	if d.Better == higher {
		worsening = -worsening
	}
	noise := max(base.spread, next.spread)
	switch {
	case d.Name == "ok_ratio" && next.median < base.median:
		// Any rise in the fail ratio is a regression, whatever the bound.
		return verdictWorse, worsening
	case worsening > d.Bound && worsening > noise:
		return verdictWorse, worsening
	case worsening < -d.Bound && -worsening > noise:
		return verdictBetter, worsening
	case worsening > d.Bound || worsening < -d.Bound:
		return verdictUnresolved, worsening
	default:
		return verdictSame, worsening
	}
}

// compareFiles prints one row per (workload, metric) of two result files
// with the ratio and its base, and returns the process exit code: 1 on
// any "worse" or any rise in the fail ratio, else 0. Either side may be a
// comma-separated list of files, the runs of one set.
func compareFiles(w io.Writer, basePaths, nextPaths string) int {
	base, err := readReports(basePaths)
	if err == nil {
		var next report
		if next, err = readReports(nextPaths); err == nil {
			return compareReports(w, base, next)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
	return 2
}

// readReports reads a comma-separated list of result files into one
// report holding all their runs.
func readReports(paths string) (report, error) {
	var all report
	for _, p := range strings.Split(paths, ",") {
		r, err := readReport(p)
		if err != nil {
			return all, err
		}
		all.Workloads = append(all.Workloads, r.Workloads...)
	}
	return all, nil
}

func compareReports(w io.Writer, base, next report) int {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tspread\tbound\tverdict")
	exit := 0
	baseE2E, nextE2E := collect(base, endToEndOf), collect(next, endToEndOf)
	baseLay, nextLay := collect(base, func(r workloadResult) map[string]value { return r.PerLayer }), collect(next, func(r workloadResult) map[string]value { return r.PerLayer })
	for _, wd := range workloadDefs {
		for _, d := range endToEndDefs {
			b, n := baseE2E[wd.Name][d.Name], nextE2E[wd.Name][d.Name]
			if d.Name == "ok_ratio" && len(b) > 0 && len(n) == 0 {
				// The base ran this workload and the new file has no run of it.
				exit = 1
				fmt.Fprintf(tw, "%s\t%s\t%.6g %s\tmissing\t\t\t\t%s\n", wd.Name, d.Name, summarise(d.Name, b).median, d.Unit, verdictWorse)
			}
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			bs, ns := summarise(d.Name, b), summarise(d.Name, n)
			verdict, _ := judge(d, bs, ns)
			if verdict == verdictWorse {
				exit = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g\t%.3f\t%.1f%%\t%.1f%%\t%s\n",
				wd.Name, d.Name, bs.median, bs.unit, ns.median, ratio(ns.median, bs.median),
				100*max(bs.spread, ns.spread), 100*d.Bound, verdict)
		}
		// Per-layer metrics carry no bound and so no verdict: they say
		// where an end-to-end change came from.
		names := make([]string, 0, len(baseLay[wd.Name]))
		for name := range baseLay[wd.Name] {
			if len(nextLay[wd.Name][name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			bs, ns := summarise(name, baseLay[wd.Name][name]), summarise(name, nextLay[wd.Name][name])
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g\t%.3f\t\t\t\n",
				wd.Name, name, bs.median, bs.unit, ns.median, ratio(ns.median, bs.median))
		}
	}
	_ = tw.Flush()
	return exit
}
