package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/taskbench"
)

// tracedSubWindows is how many sub-windows the traced pass cuts its
// window into. Recording alternates off, on, off, on, …: the traced and
// the untraced rate come from the same process, stack and minute, so
// their difference is the cost of recording and not of a different run.
const tracedSubWindows = 6

// tracedState carries the traced pass from its measured window (stack
// running) to its finish (stack stopped: span arithmetic and replay).
type tracedState struct {
	layers map[string]value
	shape  replayShape
	// opNs is the end-to-end time per operation the layer costs have to
	// account for: 1e9 / ops per second over the untraced sub-windows.
	opNs float64
	// parcelsPerOp is how many cross-locality parcels one operation
	// stands for (1 on streams, 2 on pingpong, measured on taskgraph).
	parcelsPerOp float64
	wl           workload
	// stream: both sides of the path are busy at once (see finish).
	stream bool
}

func (t *tracedState) put(name string, v float64) {
	d, ok := findDef(perLayerDefs, name)
	if !ok {
		panic("benchmark: metric not in catalogue: " + name) // a bug in this file
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	t.layers[name] = value{Value: v, Unit: d.Unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedWindow runs the traced pass's measured window and turns the
// counter deltas around it into per-layer metrics.
func tracedWindow(cfg passConfig, e *env, wl workload, rec *recorder, before counters) *tracedState {
	t := &tracedState{layers: make(map[string]value), wl: wl}
	_, t.stream = wl.(*stream)
	var offRates, onRates, rtts []float64
	var traced []*window
	var allOps float64
	for i := 0; i < tracedSubWindows; i++ {
		on := i%2 == 1
		rec.on.Store(on)
		w := wl.run(cfg.Duration/tracedSubWindows, 1)
		allOps += float64(w.ops())
		for _, s := range w.lats {
			rtts = append(rtts, float64(s.lat)/float64(time.Microsecond))
		}
		r := rate(w.ops(), w.wall())
		if on {
			onRates = append(onRates, r)
			traced = append(traced, w)
		} else {
			offRates = append(offRates, r)
		}
	}
	rec.on.Store(false)
	after := readCounters(e, wl)

	t.put("trace.overhead_share", 1-ratio(median(onRates), median(offRates)))
	t.put("trace.rtt_p50_us", median(rtts))
	t.opNs = ratio(1e9, median(offRates))

	// Apply→sink latency of sampled parcels while recording was on
	// (streams only: the other workloads' sinks are not the benchmark's).
	var oneway []float64
	for _, w := range traced {
		for _, s := range w.lats {
			oneway = append(oneway, float64(s.lat)/float64(time.Microsecond))
		}
	}
	if t.stream {
		t.put("trace.oneway_us_p50", percentile(oneway, 50))
		t.put("trace.oneway_us_p99", percentile(oneway, 99))
	}

	// runtime: the paper's Section III counters over the window.
	tasks := float64(after.sched.Tasks - before.sched.Tasks)
	taskD := after.sched.TaskDuration - before.sched.TaskDuration
	execD := after.sched.ExecDuration - before.sched.ExecDuration
	bgD := after.sched.BackgroundWork - before.sched.BackgroundWork
	t.put("runtime.tasks", tasks)
	t.put("runtime.task_s", taskD.Seconds())
	t.put("runtime.bg_work_s", bgD.Seconds())
	t.put("runtime.network_overhead", ratio(bgD.Seconds(), (taskD+bgD).Seconds()))
	t.put("runtime.task_overhead_us", ratio(float64(taskD-execD)/float64(time.Microsecond), tasks))

	// parcel port.
	parcels := float64(after.port.ParcelsSent - before.port.ParcelsSent)
	messages := float64(after.port.MessagesSent - before.port.MessagesSent)
	bytes := float64(after.port.BytesSent - before.port.BytesSent)
	t.put("parcel.parcels_sent", parcels)
	t.put("parcel.messages_sent", messages)
	t.put("parcel.bytes_sent", bytes)
	t.put("parcel.wire_bytes_per_parcel", ratio(bytes, parcels))
	t.put("parcel.rx_dropped", float64(after.port.RxDropped-before.port.RxDropped))
	t.put("parcel.send_errors", float64(after.port.SendErrors-before.port.SendErrors))
	t.put("parcel.decode_errors", float64(after.port.DecodeErrors-before.port.DecodeErrors))

	// coalescing: only where the workload's action is coalesced.
	coalesced := wl.coalescedAction() != ""
	if coalesced {
		full := float64(after.dest.FlushedFull - before.dest.FlushedFull)
		tmr := float64(after.dest.FlushedTimer - before.dest.FlushedTimer)
		byBytes := float64(after.dest.FlushedBytes - before.dest.FlushedBytes)
		t.put("coalescing.parcels_per_message", ratio(float64(after.coal.Parcels-before.coal.Parcels), float64(after.coal.Messages-before.coal.Messages)))
		t.put("coalescing.flushed_full", full)
		t.put("coalescing.flushed_timer", tmr)
		t.put("coalescing.flushed_bytes", byBytes)
		t.put("coalescing.bypass", float64(after.dest.Bypass-before.dest.Bypass))
		t.put("coalescing.timer_flush_share", ratio(tmr, full+tmr+byBytes))
		t.put("coalescing.avg_arrival_us", ratio(after.dest.ArrivalSumUS-before.dest.ArrivalSumUS, float64(after.dest.ArrivalCount-before.dest.ArrivalCount)))
	}

	// network: the wire under everything (frames, ACKs and retransmits
	// included).
	frames := float64(after.wire.MessagesSent - before.wire.MessagesSent)
	wireBytes := float64(after.wire.BytesSent - before.wire.BytesSent)
	t.put("network.messages_sent", frames)
	t.put("network.bytes_sent", wireBytes)
	t.put("network.bytes_per_message", ratio(wireBytes, frames))
	t.put("network.dropped", float64(after.wire.Dropped-before.wire.Dropped))

	// reliable: only where the stack has it.
	if e.rel != nil {
		re := float64(after.rel.Retransmits - before.rel.Retransmits)
		t.put("reliable.retransmits", re)
		t.put("reliable.duplicates_suppressed", float64(after.rel.DuplicatesSuppressed-before.rel.DuplicatesSuppressed))
		t.put("reliable.acks_sent", float64(after.rel.AcksSent-before.rel.AcksSent))
		t.put("reliable.link_downs", float64(after.rel.LinkDowns-before.rel.LinkDowns))
		t.put("reliable.retransmit_ratio", ratio(re, messages))
		t.put("reliable.frames_per_message", ratio(frames+float64(after.wire.Dropped-before.wire.Dropped), messages))
	}

	// process: Go runtime and OS totals over the whole window.
	t.put("process.allocs_per_op", ratio(float64(after.proc.mallocs-before.proc.mallocs), allOps))
	t.put("process.alloc_bytes_per_op", ratio(float64(after.proc.allocBytes-before.proc.allocBytes), allOps))
	t.put("process.gc_cycles", float64(after.proc.gcCycles-before.proc.gcCycles))
	t.put("process.gc_pause_ms", float64(after.proc.gcPause-before.proc.gcPause)/float64(time.Millisecond))
	t.put("process.cpu_us_per_op", ratio(float64(after.proc.cpu-before.proc.cpu)/float64(time.Microsecond), allOps))

	t.parcelsPerOp = ratio(parcels, allOps)
	t.shape = replayShape{
		action:    sinkAction,
		argsBytes: e.spec.argsBytes,
		bundle:    max(int(math.Round(ratio(parcels, messages))), 1),
		coalesce:  e.spec.coalesce,
		coalesced: coalesced,
		reliable:  e.rel != nil,
		seed:      cfg.Seed,
	}
	switch g := wl.(type) {
	case *pingpong:
		t.shape.action = echoAction
	case *taskgraph:
		t.shape.action = g.bench.ActionName()
		t.shape.argsBytes = graphOutput + 8 // epoch, step, point and length prefixes
		if p, err := e.rt.CoalescingParams(t.shape.action); err == nil {
			t.shape.coalesce = p // where the tuner left it
		}
		g.report(t)
	}
	return t
}

// report adds the adaptive.* and taskbench.* metrics (all but the METG
// ladder, which runs after the stack has stopped).
func (g *taskgraph) report(t *tracedState) {
	t.put("adaptive.decisions", float64(g.tuner.DecisionCount()))
	t.put("adaptive.dropped_decisions", float64(g.tuner.DroppedDecisions()))
	t.put("adaptive.settle_s", g.settleSeconds())
	t.put("adaptive.final_nparcels_stencil", float64(g.phases[taskbench.Stencil1D].finalNParcels))
	t.put("adaptive.final_nparcels_fft", float64(g.phases[taskbench.FFT].finalNParcels))
	t.put("adaptive.final_nparcels_spread", float64(g.phases[taskbench.Spread].finalNParcels))
	t.put("taskbench.tasks_per_s_stencil", rate(g.phases[taskbench.Stencil1D].tasks, g.phases[taskbench.Stencil1D].wall))
	t.put("taskbench.tasks_per_s_fft", rate(g.phases[taskbench.FFT].tasks, g.phases[taskbench.FFT].wall))
	t.put("taskbench.tasks_per_s_spread", rate(g.phases[taskbench.Spread].tasks, g.phases[taskbench.Spread].wall))
	var wall time.Duration
	for _, p := range g.phases {
		wall += p.wall
	}
	t.put("taskbench.steps_per_s", rate(g.steps, wall))
}

// finish completes the traced pass once the stack has stopped: span self
// times, the layer replay, the reconcile figures, and the trace file.
func (t *tracedState) finish(cfg passConfig, rec *recorder) error {
	spans := rec.recorded()
	self := selfTimes(spans)
	for id, ns := range self {
		if ns < 0 {
			return fmt.Errorf("trace: span %d has negative self time %d ns", id, ns)
		}
	}
	t.put("runtime.apply_ns_p50", percentile(spanDurations(spans, spanApply), 50))
	netSend := percentile(spanDurations(spans, spanNetworkSend), 50)
	netHandler := percentile(spanDurations(spans, spanNetworkHandler), 50)
	t.put("network.send_ns_p50", netSend)
	t.put("network.handler_ns_p50", netHandler)
	var relSend float64
	if t.shape.reliable {
		relSend = percentile(spanSelfTimes(spans, self, spanReliableSend), 50)
		t.put("reliable.send_self_ns_p50", relSend)
		t.put("reliable.deliver_self_ns_p50", percentile(spanSelfTimes(spans, self, spanNetworkHandler), 50))
	}

	c := replay(t.shape)
	t.put("runtime.spawn_wake_us_p50", c.spawnWakeUsP50)
	t.put("runtime.spawn_exec_ns", c.spawnExecNs)
	if t.shape.coalesced {
		t.put("coalescing.put_ns_p50", c.putNsP50)
	}
	t.put("parcel.encode_ns_per_parcel", c.encodeNs)
	t.put("parcel.decode_ns_per_parcel", c.decodeNs)
	t.put("parcel.port_send_ns_per_msg", c.portSendNs)
	if t.shape.reliable {
		t.put("reliable.allocs_per_message", c.relAllocs)
	}
	t.put("lco.future_get_ns", c.futureGetNs)
	t.put("network.tcp_rtt_p50_us", c.tcpRTTUsP50)

	// The reconcile: per parcel, what the sending side and the receiving
	// side cost according to the layers, against the end-to-end time per
	// operation. The port's replayed send already contains the encode,
	// so encode is not added again. Per-message costs are spread over
	// the parcels of a message.
	k := float64(t.shape.bundle)
	apply := t.layers["runtime.apply_ns_p50"].Value
	if t.shape.coalesced && apply < c.putNsP50 {
		apply = c.putNsP50 // Apply contains the coalescer's Put
	}
	tx := apply + (c.portSendNs+relSend+netSend)/k
	rx := netHandler/k + c.decodeNs + c.spawnExecNs + 1e3*t.layers["runtime.task_overhead_us"].Value
	t.put("trace.tx_ns_per_parcel", tx)
	t.put("trace.rx_ns_per_parcel", rx)
	// Streams keep both sides busy at once, so the slower side sets the
	// rate; pingpong and the task graph wait for each hop in turn, so an
	// operation pays both sides of each of its parcels.
	attributed := math.Max(tx, rx)
	if !t.stream {
		attributed = (tx + rx) * t.parcelsPerOp
	}
	t.put("trace.unattributed_share", 1-ratio(attributed, t.opNs))

	if g, ok := t.wl.(*taskgraph); ok {
		g.ladder(t, cfg.Seed)
		g.shippedBound(t, cfg)
	}
	if cfg.TraceOut != "" {
		if err := writeTrace(cfg.TraceOut, spans); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return nil
}
