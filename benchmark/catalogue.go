package main

// The metric catalogue: every name the benchmark reports, with its unit.
// BENCHMARK.json at the repository root lists exactly these metrics and
// the gated workloads (a test keeps the two in step), and the contract
// line printed for the driver carries every end-to-end metric with
// -trace 0 and every per-layer metric with -trace 1.

// direction says which way a metric improves.
type direction string

const (
	lower  direction = "lower"
	higher direction = "higher"
)

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better direction
	// Bound is the share of the base median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics carry no bound.
	Bound float64
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
	// Ungated: the workload runs and is checked like the others, but
	// BENCHMARK.json does not list it, so the driver neither runs it nor
	// rejects a PR on it. README.md, "Why pingpong is not gated".
	Ungated bool
}

var workloadDefs = []workloadDef{
	{Name: "stream_small", Why: "16-byte Apply stream over reliable+TCP with fixed 16/200us coalescing: per-parcel cost in coalescing, parcel, reliable and runtime does the work, bytes almost none"},
	{Name: "stream_large", Why: "same stack with 4096-byte args: per-byte copies, buffer pools and socket bandwidth dominate, so a per-parcel win that costs copies shows here"},
	{Name: "stream_lossy", Why: "stream_small over a seeded 1% frame drop below reliable: the only workload where retransmit, dedup and ACK paths, not the fast path, do the work"},
	{Name: "pingpong", Why: "one outstanding Async echo over the 5us simulated wire, no coalescing, no reliable, no TCP: isolates scheduler idle-wake, parcel port and lco; changes elsewhere predict no change", Ungated: true},
	{Name: "taskgraph", Why: "taskbench stencil_1d, fft and spread phases under one MultiTuner on reliable+TCP: the only workload with dependences, bidirectional traffic and the tuner"},
}

// endToEndDefs are the metrics a user of the runtime sees. Every workload
// reports all of them (the driver's contract); README.md says what each
// means on each workload. A bound has to hold on every gated workload, so
// it follows the noisiest: at least three times the widest run-to-run
// interquartile spread seen in any sizing batch on the two-core VM this
// was sized on (the quiet batch tabulated in README.md and the busier ones
// described under it), capped at the contract's 25 %.
var endToEndDefs = []metricDef{
	{"parcels_per_s", "1/s", higher, 0.20},
	{"tasks_per_s", "1/s", higher, 0.20},
	{"rtt_mean_us", "us", lower, 0.20},
	{"rtt_p99_us", "us", lower, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.20},
	{"ok_ratio", "ratio", higher, 0.001},
	{"setup_s", "s", lower, 0.25},
}

// perLayerDefs are the single-layer metrics of the traced pass, grouped
// by the module (layer) they measure. A workload that bypasses a layer
// reports that layer's metrics as 0.
var perLayerDefs = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: lower},

	{Name: "runtime.apply_ns_p50", Unit: "ns", Better: lower},
	{Name: "runtime.spawn_wake_us_p50", Unit: "us", Better: lower},
	{Name: "runtime.spawn_exec_ns", Unit: "ns", Better: lower},
	{Name: "runtime.network_overhead", Unit: "ratio", Better: lower},
	{Name: "runtime.task_overhead_us", Unit: "us", Better: lower},
	{Name: "runtime.bg_work_s", Unit: "s", Better: lower},
	{Name: "runtime.task_s", Unit: "s", Better: lower},
	{Name: "runtime.tasks", Unit: "count", Better: higher},

	{Name: "coalescing.put_ns_p50", Unit: "ns", Better: lower},
	{Name: "coalescing.parcels_per_message", Unit: "count", Better: higher},
	{Name: "coalescing.flushed_full", Unit: "count", Better: higher},
	{Name: "coalescing.flushed_timer", Unit: "count", Better: lower},
	{Name: "coalescing.flushed_bytes", Unit: "count", Better: lower},
	{Name: "coalescing.bypass", Unit: "count", Better: lower},
	{Name: "coalescing.timer_flush_share", Unit: "ratio", Better: lower},
	{Name: "coalescing.avg_arrival_us", Unit: "us", Better: lower},

	{Name: "parcel.encode_ns_per_parcel", Unit: "ns", Better: lower},
	{Name: "parcel.decode_ns_per_parcel", Unit: "ns", Better: lower},
	{Name: "parcel.port_send_ns_per_msg", Unit: "ns", Better: lower},
	{Name: "parcel.parcels_sent", Unit: "count", Better: higher},
	{Name: "parcel.messages_sent", Unit: "count", Better: lower},
	{Name: "parcel.bytes_sent", Unit: "bytes", Better: lower},
	{Name: "parcel.wire_bytes_per_parcel", Unit: "bytes", Better: lower},
	{Name: "parcel.rx_dropped", Unit: "count", Better: lower},
	{Name: "parcel.send_errors", Unit: "count", Better: lower},
	{Name: "parcel.decode_errors", Unit: "count", Better: lower},

	{Name: "reliable.send_self_ns_p50", Unit: "ns", Better: lower},
	{Name: "reliable.deliver_self_ns_p50", Unit: "ns", Better: lower},
	{Name: "reliable.retransmits", Unit: "count", Better: lower},
	{Name: "reliable.duplicates_suppressed", Unit: "count", Better: lower},
	{Name: "reliable.acks_sent", Unit: "count", Better: lower},
	{Name: "reliable.link_downs", Unit: "count", Better: lower},
	{Name: "reliable.retransmit_ratio", Unit: "ratio", Better: lower},
	{Name: "reliable.frames_per_message", Unit: "ratio", Better: lower},
	{Name: "reliable.allocs_per_message", Unit: "count", Better: lower},

	{Name: "network.send_ns_p50", Unit: "ns", Better: lower},
	{Name: "network.handler_ns_p50", Unit: "ns", Better: lower},
	{Name: "network.messages_sent", Unit: "count", Better: lower},
	{Name: "network.bytes_sent", Unit: "bytes", Better: lower},
	{Name: "network.bytes_per_message", Unit: "bytes", Better: higher},
	{Name: "network.dropped", Unit: "count", Better: lower},
	{Name: "network.tcp_rtt_p50_us", Unit: "us", Better: lower},

	{Name: "lco.future_get_ns", Unit: "ns", Better: lower},

	{Name: "adaptive.decisions", Unit: "count", Better: lower},
	{Name: "adaptive.dropped_decisions", Unit: "count", Better: lower},
	{Name: "adaptive.settle_s", Unit: "s", Better: lower},
	{Name: "adaptive.final_nparcels_stencil", Unit: "count", Better: lower},
	{Name: "adaptive.final_nparcels_fft", Unit: "count", Better: higher},
	{Name: "adaptive.final_nparcels_spread", Unit: "count", Better: higher},
	{Name: "adaptive.final_nparcels_shipped_bound", Unit: "count", Better: lower},

	{Name: "taskbench.tasks_per_s_stencil", Unit: "1/s", Better: higher},
	{Name: "taskbench.tasks_per_s_fft", Unit: "1/s", Better: higher},
	{Name: "taskbench.tasks_per_s_spread", Unit: "1/s", Better: higher},
	{Name: "taskbench.steps_per_s", Unit: "1/s", Better: higher},
	{Name: "taskbench.tasks_per_s_shipped_bound", Unit: "1/s", Better: higher},
	{Name: "taskbench.efficiency", Unit: "ratio", Better: higher},
	{Name: "taskbench.metg50_us", Unit: "us", Better: lower},

	{Name: "process.allocs_per_op", Unit: "count", Better: lower},
	{Name: "process.alloc_bytes_per_op", Unit: "bytes", Better: lower},
	{Name: "process.gc_cycles", Unit: "count", Better: lower},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "process.cpu_us_per_op", Unit: "us", Better: lower},

	{Name: "trace.rtt_p50_us", Unit: "us", Better: lower},
	{Name: "trace.oneway_us_p50", Unit: "us", Better: lower},
	{Name: "trace.oneway_us_p99", Unit: "us", Better: lower},
	{Name: "trace.tx_ns_per_parcel", Unit: "ns", Better: lower},
	{Name: "trace.rx_ns_per_parcel", Unit: "ns", Better: lower},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: lower},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func knownWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}
