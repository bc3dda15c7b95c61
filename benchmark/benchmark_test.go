package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// superviseChild re-executes it with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func TestEveryWorkloadShort(t *testing.T) {
	for _, wd := range workloadDefs {
		res := runPass(passConfig{Workload: wd.Name, Seed: 7, Warmup: 50 * time.Millisecond, Duration: 300 * time.Millisecond})
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d failures=%v error=%q",
				wd.Name, res.Correct, res.Attempted, res.Failed, res.Failures, res.Error)
			continue
		}
		for _, d := range endToEndDefs {
			if v, ok := res.EndToEnd[d.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want > 0", wd.Name, d.Name, v.Value, ok)
			}
		}
		line := contractFor(res, false)
		if len(line.Metrics) != len(endToEndDefs) {
			t.Errorf("%s: contract line has %d metrics, want %d", wd.Name, len(line.Metrics), len(endToEndDefs))
		}
	}
}

func TestTracedPassShort(t *testing.T) {
	res := runPass(passConfig{Workload: "pingpong", Seed: 7, Warmup: 50 * time.Millisecond, Duration: 300 * time.Millisecond, Traced: true})
	if !res.Correct {
		t.Fatalf("traced pingpong: %+v", res)
	}
	for name, v := range res.PerLayer {
		if _, ok := findDef(perLayerDefs, name); !ok {
			t.Errorf("per-layer metric %s is not in the catalogue", name)
		}
		// pingpong bypasses coalescing, reliable and the tuner.
		for _, bypassed := range []string{"coalescing.", "reliable.", "adaptive.", "taskbench."} {
			if strings.HasPrefix(name, bypassed) && v.Value != 0 {
				t.Errorf("pingpong reports %s = %v; it bypasses that layer", name, v.Value)
			}
		}
	}
	for _, name := range []string{"network.send_ns_p50", "network.handler_ns_p50", "runtime.apply_ns_p50", "lco.future_get_ns", "trace.unattributed_share"} {
		if res.PerLayer[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.PerLayer[name].Value)
		}
	}
	if got := len(contractFor(res, true).Metrics); got != len(perLayerDefs) {
		t.Errorf("traced contract line has %d metrics, want %d", got, len(perLayerDefs))
	}
}

func TestWatchdogKillsHungChild(t *testing.T) {
	// A window longer than the timeout stands in for a wedged child.
	res := superviseChild(passConfig{Workload: "pingpong", Seed: 1, Duration: 30 * time.Second}, 500*time.Millisecond)
	if res.Correct || res.Failed == 0 || !strings.Contains(res.Error, "watchdog") {
		t.Fatalf("want a failed result naming the watchdog, got %+v", res)
	}
	line := contractFor(res, false)
	if line.Correct || line.Attempted < 1 || line.Failed < 1 {
		t.Fatalf("contract line of a killed child: %+v", line)
	}
	// A killed child measured nothing; -compare must not let it drop out.
	good := report{Workloads: []workloadResult{{Workload: "pingpong", Correct: true, EndToEnd: e2e(map[string]float64{"rtt_mean_us": 2000, "ok_ratio": 1}, 0)}}}
	var buf bytes.Buffer
	if code := compareReports(&buf, good, report{Workloads: []workloadResult{res}}); code != 1 || !strings.Contains(buf.String(), verdictWorse) {
		t.Errorf("a good run against a killed one: exit %d, want 1 and a worse row:\n%s", code, buf.String())
	}
}

// TestOnePassCommandLine drives the driver's form end to end: the
// measured child, the set-up-only children, the result file and the
// result line.
func TestOnePassCommandLine(t *testing.T) {
	out := t.TempDir() + "/out.json"
	var buf bytes.Buffer
	code := realMain([]string{"--workload", "pingpong", "--seed", "3", "--seconds", "0.2", "--warmup", "50ms", "--trace", "0", "-o", out}, &buf)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result line: %v\n%s", err, buf.String())
	}
	if !line.Correct || line.Failed != 0 || len(line.Metrics) != len(endToEndDefs) {
		t.Errorf("result line: %+v", line)
	}
	rep, err := readReport(out)
	if err != nil || len(rep.Workloads) != 1 {
		t.Fatalf("result file: %v, %d workloads", err, len(rep.Workloads))
	}
	if v := rep.Workloads[0].EndToEnd["setup_s"]; v.N != extraSetups+1 || v.Value <= 0 {
		t.Errorf("setup_s = %+v, want the median of %d readings", v, extraSetups+1)
	}
	if code := realMain([]string{"-compare", out, out + "," + out}, &bytes.Buffer{}); code != 0 {
		t.Errorf("a result file compared with a set of itself exits %d", code)
	}
}

// TestIdleGeneratorKeepsItsWindow: a generator that runs longer than
// stallAfter without once blocking on a slot must not, on its next wait,
// take that time for a stall and write a healthy window off.
func TestIdleGeneratorKeepsItsWindow(t *testing.T) {
	defer func(d time.Duration) { stallAfter = d }(stallAfter)
	stallAfter = 100 * time.Millisecond
	e, wl, err := setUp(specs["stream_small"], 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	time.Sleep(2 * stallAfter)
	wl.run(200*time.Millisecond, 1)
	wl.finish()
	for cause, n := range wl.failures() {
		if n != 0 {
			t.Errorf("%d parcels failed as %s", n, cause)
		}
	}
}

func TestSelfTimeIsParentMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},   // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 140},  // runs past the parent: clipped
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 45},    // grandchild: not the parent's child
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7},   // parent not recorded
		{ID: 7, Parent: 1, Name: "child", Start: 200, End: 210}, // wholly outside: covers nothing
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - (40 + 10), 2: 20, 3: 30 - 20, 4: 50, 5: 20, 6: 7, 7: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	for id, ns := range self {
		if ns < 0 {
			t.Errorf("span %d has negative self time %d", id, ns)
		}
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != len(spans) {
		t.Fatalf("chrome trace: %d events, err %v", len(doc.TraceEvents), err)
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, c := newGenerator(42, 8, 256), newGenerator(42, 8, 256), newGenerator(43, 8, 256)
	differs := false
	for seq := uint64(0); seq < 16; seq++ {
		x, y, z := a.next(seq, false), b.next(seq, false), c.next(seq, false)
		if !bytes.Equal(x, y) {
			t.Fatalf("seq %d: same seed, different args", seq)
		}
		differs = differs || !bytes.Equal(x, z)
		got, stamp, ok := checkArgs(x)
		if !ok || got != seq || stamp != 0 {
			t.Fatalf("seq %d: checkArgs = %d, %d, %v", seq, got, stamp, ok)
		}
		x[len(x)-1] ^= 1
		if _, _, ok := checkArgs(x); ok {
			t.Fatalf("seq %d: a flipped filler bit passed the check", seq)
		}
		x[len(x)-1] ^= 1
	}
	if !differs {
		t.Fatal("different seeds produced identical args")
	}
	seen := newSeenSet()
	if !seen.mark(5) || seen.mark(5) || seen.mark(seenCapacity) {
		t.Fatal("seenSet: want first mark true, second false, out of range false")
	}
}

// e2e builds the end-to-end metrics of a hand-written run.
func e2e(vals map[string]float64, spread float64) map[string]value {
	out := make(map[string]value)
	for name, v := range vals {
		out[name] = value{Value: v, Spread: spread}
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	// Changes are sized from the bounds, so the test holds whatever the
	// catalogue sets them to.
	rate, cpu, rtt := boundOf("parcels_per_s"), boundOf("cpu_us_per_op"), boundOf("rtt_mean_us")
	base := report{Workloads: []workloadResult{
		{Workload: "stream_small", Correct: true, EndToEnd: e2e(map[string]float64{"parcels_per_s": 300e3, "cpu_us_per_op": 4, "rtt_mean_us": 2000, "ok_ratio": 1}, 0.02)},
		{Workload: "pingpong", Correct: true, EndToEnd: e2e(map[string]float64{"rtt_mean_us": 2000, "ok_ratio": 1}, 2*rtt)},
		{Workload: "taskgraph", Correct: true, EndToEnd: e2e(map[string]float64{"tasks_per_s": 60e3, "ok_ratio": 1}, 0.02)},
		{Workload: "stream_lossy", Correct: true, EndToEnd: e2e(map[string]float64{"parcels_per_s": 200e3, "ok_ratio": 1}, 0.02)},
	}}
	next := report{Workloads: []workloadResult{
		{Workload: "stream_small", Correct: true, EndToEnd: e2e(map[string]float64{
			"parcels_per_s": 300e3 * (1 - rate - 0.05), // beyond the bound and the spread: worse
			"cpu_us_per_op": 4 * (1 + cpu/2),           // inside the bound: same
			"rtt_mean_us":   2000 * (1 - rtt - 0.05),   // beyond the bound, the good way: better
			"ok_ratio":      1,
		}, 0.02)},
		{Workload: "pingpong", EndToEnd: e2e(map[string]float64{
			"rtt_mean_us": 2000 * (1 + rtt + 0.05), // beyond the bound, but the slices scatter by twice the bound: unresolved
			"ok_ratio":    0.9999,                  // any fall: worse
		}, 2*rtt)},
		// Killed by the watchdog: no metrics at all. stream_lossy: not run.
		{Workload: "taskgraph", Attempted: 1, Failed: 1, Error: "watchdog: child still running after 1m0s, killed"},
	}}
	var buf bytes.Buffer
	if code := compareReports(&buf, base, next); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	want := map[string]string{
		"stream_small parcels_per_s": verdictWorse,
		"stream_small cpu_us_per_op": verdictSame,
		"stream_small rtt_mean_us":   verdictBetter,
		"pingpong rtt_mean_us":       verdictUnresolved,
		"pingpong ok_ratio":          verdictWorse,
		"taskgraph ok_ratio":         verdictWorse,
		"stream_lossy ok_ratio":      verdictWorse,
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if w, ok := want[f[0]+" "+f[1]]; ok {
			if f[len(f)-1] != w {
				t.Errorf("%s %s: verdict %s, want %s\n%s", f[0], f[1], f[len(f)-1], w, line)
			}
			delete(want, f[0]+" "+f[1])
		}
	}
	for k := range want {
		t.Errorf("no row for %s in:\n%s", k, buf.String())
	}
	// A fall of ok_ratio alone is enough for a non-zero exit.
	okOnly := report{Workloads: []workloadResult{next.Workloads[1]}}
	okOnly.Workloads[0].EndToEnd = e2e(map[string]float64{"rtt_mean_us": 2000, "ok_ratio": 0.9999}, 2*rtt)
	if code := compareReports(&bytes.Buffer{}, report{Workloads: base.Workloads[1:2]}, okOnly); code != 1 {
		t.Errorf("a fall of ok_ratio exits %d, want 1", code)
	}
	// A killed run alone, and one failed run hidden in a set of five, too.
	for name, runs := range map[string][]workloadResult{
		"killed":     {next.Workloads[2]},
		"one-of-set": {base.Workloads[2], base.Workloads[2], next.Workloads[2], base.Workloads[2], base.Workloads[2]},
	} {
		if code := compareReports(&bytes.Buffer{}, report{Workloads: base.Workloads[2:3]}, report{Workloads: runs}); code != 1 {
			t.Errorf("%s: exits %d, want 1", name, code)
		}
	}
	// The same file against itself: nothing is worse.
	if code := compareReports(&bytes.Buffer{}, base, base); code != 0 {
		t.Errorf("a report compared with itself exits %d", code)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, in step with the catalogue the program reports from: every metric,
// and every workload but the ungated ones.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var gated []workloadDef
	for _, w := range workloadDefs {
		if !w.Ungated {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) || len(doc.EndToEnd) != len(endToEndDefs) || len(doc.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end, %d per-layer; catalogue has %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(gated), len(endToEndDefs), len(perLayerDefs))
	}
	for i, w := range gated {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalogue %+v", i, doc.Workloads[i], w)
		}
	}
	for i, d := range endToEndDefs {
		g := doc.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != string(d.Better) || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, g, d)
		}
	}
	for i, d := range perLayerDefs {
		g := doc.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != string(d.Better) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, g, d)
		}
	}
}
