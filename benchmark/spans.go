package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark can observe from its
// own files.
const (
	spanApply          = "runtime.apply"     // Locality.Apply, sampled
	spanReliableSend   = "reliable.send"     // Fabric.Send above reliable
	spanNetworkSend    = "network.send"      // Fabric.Send below reliable
	spanNetworkHandler = "network.handler"   // delivery handler below reliable
	spanPortHandler    = "parcel.rx_handler" // delivery handler above reliable
)

// span is one timed call into a layer. Parent is the id of the span that
// caused it (0 for a root); Parcel is the parcel's sequence number where
// the call concerns one parcel, -1 where it concerns a whole message.
type span struct {
	ID     int64
	Parent int64
	Name   string
	Start  int64 // ns since the recorder's epoch
	End    int64
	Parcel int64
	Loc    int // locality the call ran for
}

// recorder keeps spans in a fixed block of memory, written lock-free, and
// only while switched on: the traced pass flips it per slice so traced
// and untraced throughput are compared inside one process.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Int64
	spans []span
}

// maxSpans bounds the recorder's memory (64 B a span); later spans are
// not kept.
const maxSpans = 1 << 20

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, maxSpans)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin reserves a span id; ids start at 1 so 0 can mean "no parent".
func (r *recorder) begin() int64 { return r.next.Add(1) }

// end stores a finished span under the id begin returned.
func (r *recorder) end(id, parent int64, name string, start int64, parcel int64, loc int) {
	if id > int64(len(r.spans)) {
		return
	}
	r.spans[id-1] = span{ID: id, Parent: parent, Name: name, Start: start, End: r.now(), Parcel: parcel, Loc: loc}
}

// recorded returns the spans kept so far. Slots reserved but never
// finished (a call still running) are skipped.
func (r *recorder) recorded() []span {
	n := min(r.next.Load(), int64(len(r.spans)))
	kept := make([]span, 0, n)
	for _, s := range r.spans[:n] {
		if s.ID != 0 {
			kept = append(kept, s)
		}
	}
	return kept
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover. Children are clipped to the
// parent's interval and overlapping children are counted once, so a self
// time is never negative.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanDurations collects the durations (ns) of all spans of one name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// spanSelfTimes collects the self times (ns) of all spans of one name.
func spanSelfTimes(spans []span, self map[int64]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// chromeTraceLimit caps how many spans a trace file holds, so the file
// stays loadable in a trace viewer.
const chromeTraceLimit = 200_000

// writeChromeTrace writes spans in the Chrome trace-event format
// (complete events, µs), one process per locality, one thread per layer.
func writeChromeTrace(w io.Writer, spans []span) error {
	if len(spans) > chromeTraceLimit {
		spans = spans[:chromeTraceLimit]
	}
	tids := map[string]int{}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	for i, s := range spans {
		tid, ok := tids[s.Name]
		if !ok {
			tid = len(tids) + 1
			tids[s.Name] = tid
		}
		ev := map[string]any{
			"name": s.Name, "ph": "X", "pid": s.Loc, "tid": tid,
			"ts":   float64(s.Start) / 1e3,
			"dur":  float64(s.End-s.Start) / 1e3,
			"args": map[string]int64{"id": s.ID, "parent": s.Parent, "parcel": s.Parcel},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("trace: encoding span %d: %w", s.ID, err)
		}
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
