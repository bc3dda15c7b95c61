// Package health implements locality-level failure detection for the
// runtime: a phi-accrual failure detector (Hayashibara et al., "The φ
// Accrual Failure Detector") driven by heartbeats piggybacked on parcel
// traffic, with an explicit heartbeat only for links that have gone idle.
//
// The paper's environment (HPX over Intel MPI on a managed cluster)
// treats node failure as fatal to the job; production AMT runtimes — and
// the Task Bench-style studies this repository's workload subsystem
// mirrors — treat crash-stop node failure as a first-class scenario. The
// reliable-delivery layer (internal/reliable) only survives *link*
// faults: a crashed locality leaves futures parked forever and the
// adaptive tuner feeding coalescing parameters to a dead peer. This
// package closes that gap.
//
// Unlike a fixed-timeout detector, phi-accrual outputs a continuous
// suspicion level: phi(t) = -log10(P_later(t)), where P_later is the
// probability that a heartbeat arriving t after the previous one is
// merely late, estimated from a sliding window of observed inter-arrival
// times. A threshold on phi trades detection latency against false
// positives explicitly — phi = 8 means a false positive only when an
// arrival is later than all but 10^-8 of the fitted distribution. The
// suspicion level and its peak are exported as performance counters, so
// the detector is introspectable through the same counter stack as the
// paper's Section III metrics.
//
// Every wire message received from a peer counts as a heartbeat (the
// parcel port feeds arrivals in), so a busy link pays nothing extra; the
// Monitor sends an explicit heartbeat parcel only on links with no
// outbound traffic for a heartbeat interval.
package health

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Config tunes the failure detector. The zero value of every field
// selects a default; Enabled gates the runtime's monitor.
type Config struct {
	// Enabled turns on the runtime's health monitor. The Detector type
	// itself ignores this field.
	Enabled bool
	// HeartbeatInterval is the target gap between heartbeats on an idle
	// link, and the bootstrap mean of the inter-arrival estimate before
	// a window accumulates (default 25ms).
	HeartbeatInterval time.Duration
	// Tick is how often the monitor re-evaluates phi and checks for
	// idle links (default 5ms).
	Tick time.Duration
	// Window is the number of inter-arrival samples retained per peer
	// (default 128).
	Window int
	// PhiThreshold is the suspicion level at which a peer is declared
	// dead (default 8). Half of it is the softer level at which a peer
	// becomes merely *suspected* (Monitor.OnSuspect): enough accrued
	// silence to gossip about, not enough to convict. Crossing back below
	// that fires OnAlive.
	PhiThreshold float64
	// Grace suppresses suspicion for this long after monitoring of a
	// peer starts, covering runtime startup before first traffic
	// (default 10 × HeartbeatInterval).
	Grace time.Duration
}

// maxLocalHealth caps the Lifeguard-style local health score: when the
// local node itself shows signs of distress (failed probe rounds, refuted
// suspicions), the monitor stretches its suspicion thresholds by up to
// (1 + maxLocalHealth)× so a slow *observer* does not convict healthy
// peers.
const maxLocalHealth = 2

// WithDefaults resolves unset fields.
func (c Config) WithDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 25 * time.Millisecond
	}
	if c.Tick <= 0 {
		c.Tick = 5 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.PhiThreshold <= 0 {
		c.PhiThreshold = 8
	}
	if c.Grace <= 0 {
		c.Grace = 10 * c.HeartbeatInterval
	}
	return c
}

// phiCap bounds the reported suspicion level: beyond it P_later
// underflows and the distinction carries no information.
const phiCap = 100

// peerHist is the sliding inter-arrival window for one peer.
type peerHist struct {
	last       time.Time
	lastSample time.Time // last arrival admitted into the window
	intervals  []float64 // seconds, ring buffer
	next       int
	filled     bool
	sum, sum2  float64
	started    time.Time // when monitoring of this peer began
}

func (h *peerHist) record(dt float64, window int) {
	if len(h.intervals) < window {
		h.intervals = append(h.intervals, dt)
		h.sum += dt
		h.sum2 += dt * dt
		if len(h.intervals) == window {
			h.filled = true
		}
		return
	}
	old := h.intervals[h.next]
	h.intervals[h.next] = dt
	h.next = (h.next + 1) % window
	h.sum += dt - old
	h.sum2 += dt*dt - old*old
}

// meanStd returns the window's mean and standard deviation in seconds.
func (h *peerHist) meanStd() (mean, std float64) {
	n := float64(len(h.intervals))
	if n == 0 {
		return 0, 0
	}
	mean = h.sum / n
	v := h.sum2/n - mean*mean
	if v > 0 {
		std = math.Sqrt(v)
	}
	return mean, std
}

// Detector is the passive phi-accrual core: it records heartbeat
// arrivals per peer and answers suspicion queries. It is safe for
// concurrent use and has no goroutines of its own; the Monitor drives it
// inside the runtime.
type Detector struct {
	cfg Config

	mu    sync.Mutex
	peers map[int]*peerHist
}

// NewDetector creates a detector with the given configuration.
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg.WithDefaults(), peers: make(map[int]*peerHist)}
}

// Watch begins monitoring a peer as of now without recording a
// heartbeat: the grace period starts, and silence beyond it accrues
// suspicion even if the peer never spoke at all (a locality that dies
// during startup must not escape detection by staying quiet).
func (d *Detector) Watch(peer int, now time.Time) {
	d.mu.Lock()
	if _, ok := d.peers[peer]; !ok {
		d.peers[peer] = &peerHist{last: now, lastSample: now, started: now}
	}
	d.mu.Unlock()
}

// Reset discards peer's inter-arrival history and restarts its grace
// period as of now. Used when a previously-convicted peer rejoins after
// a healed partition: the pre-partition window (and the enormous
// silence gap the partition left) must not poison phi for the revived
// link.
func (d *Detector) Reset(peer int, now time.Time) {
	d.mu.Lock()
	d.peers[peer] = &peerHist{last: now, lastSample: now, started: now}
	d.mu.Unlock()
}

// Heartbeat records a liveness observation of peer at time now — an
// explicit heartbeat or any received wire message.
func (d *Detector) Heartbeat(peer int, now time.Time) {
	d.mu.Lock()
	h := d.peers[peer]
	if h == nil {
		h = &peerHist{last: now, lastSample: now, started: now}
		d.peers[peer] = h
		d.mu.Unlock()
		return
	}
	// Piggybacked heartbeats arrive far denser than the heartbeat cadence
	// on a busy link. Admitting every arrival would collapse the window's
	// mean and deviation to the traffic's burst spacing, turning any
	// natural lull — a barrier, a run boundary, a scheduler hiccup — into
	// a false positive. Sample the window at most once per
	// HeartbeatInterval so it models evidence gaps at the cadence explicit
	// idle-link heartbeats use, while every arrival still resets the
	// silence clock that phi is measured against.
	if dt := now.Sub(h.lastSample); dt >= d.cfg.HeartbeatInterval {
		h.record(dt.Seconds(), d.cfg.Window)
		h.lastSample = now
	}
	h.last = now
	d.mu.Unlock()
}

// Phi returns the current suspicion level for peer: 0 while the peer is
// fresh, rising continuously with silence. Unwatched peers report 0.
func (d *Detector) Phi(peer int, now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := d.peers[peer]
	if h == nil || now.Sub(h.started) < d.cfg.Grace {
		return 0
	}
	elapsed := now.Sub(h.last).Seconds()
	if elapsed <= 0 {
		return 0
	}
	mean, std := h.meanStd()
	if len(h.intervals) < 3 {
		// Bootstrap: before a usable window exists, assume heartbeats
		// arrive at the configured interval.
		mean = d.cfg.HeartbeatInterval.Seconds()
		std = 0
	}
	// A quarter interval floors the deviation, so a perfectly regular
	// heartbeat stream does not make the detector hair-triggered.
	if floor := (d.cfg.HeartbeatInterval / 4).Seconds(); std < floor {
		std = floor
	}
	// P_later under a normal fit: 0.5 * erfc((t - mean) / (std * sqrt2)).
	pLater := 0.5 * math.Erfc((elapsed-mean)/(std*math.Sqrt2))
	if pLater <= 0 {
		return phiCap
	}
	phi := -math.Log10(pLater)
	if phi > phiCap {
		return phiCap
	}
	if phi < 0 {
		return 0
	}
	return phi
}

// Heartbeat wire format (little-endian), carried as the argument pack of
// the runtime's internal heartbeat action:
//
//	byte  0     magic (0xHB -> 0xB8)
//	byte  1     version (1)
//	bytes 2-9   sequence number
//	bytes 10-17 sender wall-clock time, unix nanoseconds
const (
	heartbeatMagic   = 0xB8
	heartbeatVersion = 1
	// HeartbeatSize is the encoded size of a heartbeat payload.
	HeartbeatSize = 18
)

// Heartbeat is one decoded liveness beacon.
type Heartbeat struct {
	// Seq is the sender's per-destination heartbeat sequence number.
	Seq uint64
	// Sent is the sender's wall-clock send time.
	Sent time.Time
}

// ErrBadHeartbeat reports a heartbeat payload that failed validation.
var ErrBadHeartbeat = errors.New("health: malformed heartbeat")

// EncodeHeartbeat appends the wire encoding of a heartbeat to dst.
func EncodeHeartbeat(dst []byte, hb Heartbeat) []byte {
	var buf [HeartbeatSize]byte
	buf[0] = heartbeatMagic
	buf[1] = heartbeatVersion
	binary.LittleEndian.PutUint64(buf[2:10], hb.Seq)
	binary.LittleEndian.PutUint64(buf[10:18], uint64(hb.Sent.UnixNano()))
	return append(dst, buf[:]...)
}

// DecodeHeartbeat parses a heartbeat payload. It never panics on hostile
// input: short, oversized, or corrupt payloads return ErrBadHeartbeat.
func DecodeHeartbeat(data []byte) (Heartbeat, error) {
	if len(data) != HeartbeatSize {
		return Heartbeat{}, fmt.Errorf("%w: %d bytes, want %d", ErrBadHeartbeat, len(data), HeartbeatSize)
	}
	if data[0] != heartbeatMagic {
		return Heartbeat{}, fmt.Errorf("%w: magic %#x", ErrBadHeartbeat, data[0])
	}
	if data[1] != heartbeatVersion {
		return Heartbeat{}, fmt.Errorf("%w: version %d", ErrBadHeartbeat, data[1])
	}
	seq := binary.LittleEndian.Uint64(data[2:10])
	ns := int64(binary.LittleEndian.Uint64(data[10:18]))
	return Heartbeat{Seq: seq, Sent: time.Unix(0, ns)}, nil
}
