package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/runtime"
)

const echoAction = "benchmark/echo"

// pingpong keeps exactly one Async(1, echo, 64 B) → Get outstanding: no
// contention, so the round-trip time is the sum of its blocking steps —
// port queueing, an idle worker noticing the message, the simulated
// wire, the echo task, and the same again for the reply.
type pingpong struct {
	e   *env
	rng *rand.Rand
	buf []byte

	rounds   int64
	errs     int64 // Async or Get returned an error
	mismatch int64 // reply differed from the request
}

func newPingpong(e *env, seed int64) (*pingpong, error) {
	p := &pingpong{e: e, rng: rand.New(rand.NewSource(seed)), buf: make([]byte, e.spec.argsBytes)}
	// Received args alias the wire buffer, so the echo returns a copy.
	err := e.rt.RegisterAction(echoAction, func(_ *runtime.Context, args []byte) ([]byte, error) {
		return append([]byte(nil), args...), nil
	})
	return p, err
}

// round performs one verified echo and returns its round-trip time.
func (p *pingpong) round() time.Duration {
	binary.LittleEndian.PutUint64(p.buf, uint64(p.rounds))
	p.rng.Read(p.buf[8:])
	p.rounds++
	start := time.Now()
	var id, spanStart int64
	rec := p.e.rec
	if rec != nil && rec.on.Load() {
		id, spanStart = rec.begin(), rec.now()
	}
	fut, err := p.e.rt.Locality(0).Async(1, echoAction, p.buf)
	if id != 0 {
		rec.end(id, 0, spanApply, spanStart, p.rounds-1, 0)
	}
	if err != nil {
		p.errs++
		return time.Since(start)
	}
	reply, err := fut.Get()
	rtt := time.Since(start)
	switch {
	case err != nil:
		p.errs++
	case !bytes.Equal(reply, p.buf):
		p.mismatch++
	}
	return rtt
}

func (p *pingpong) first() error {
	p.round()
	if p.errs+p.mismatch > 0 {
		return fmt.Errorf("%s: first echo failed", p.e.spec.name)
	}
	return nil
}

func (p *pingpong) mark() sliceMark {
	return sliceMark{
		at:      time.Now(),
		cpu:     cpuNow(),
		ops:     p.rounds,
		parcels: p.e.portTotals().ParcelsReceived,
		tasks:   metrics.Snapshot(p.e.rt).Tasks,
	}
}

func (p *pingpong) run(d time.Duration, slices int) *window {
	w := &window{marks: []sliceMark{p.mark()}}
	start := w.marks[0].at
	for i := 1; i <= slices; i++ {
		end := start.Add(d * time.Duration(i) / time.Duration(slices))
		for time.Now().Before(end) {
			rtt := p.round()
			w.lats = append(w.lats, latSample{doneNs: int64(time.Since(start)), lat: rtt})
		}
		w.marks = append(w.marks, p.mark())
	}
	return w
}

func (p *pingpong) finish() {}

func (p *pingpong) failures() map[string]int64 {
	return map[string]int64{"errors": p.errs, "mismatch": p.mismatch}
}

func (p *pingpong) attempted() int64 { return p.rounds }

// coalescedAction: the echo action is deliberately not coalesced.
func (p *pingpong) coalescedAction() string { return "" }
