package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
	"time"
)

// Generated parcel arguments, stream workloads:
//
//	bytes 0-7    sequence number
//	bytes 8-11   send time, µs since the generator's epoch, +1; 0 = not sampled
//	bytes 12-15  check: crc32c(bytes 0-11) XOR crc32c(filler)
//	bytes 16-    filler: seeded random bytes, fixed per window slot
//
// The program under test receives only these bytes. The sink recomputes
// both checksums over what arrived, so a corrupted header or filler byte
// is caught, while the generator pays a constant cost per parcel whatever
// the size (the filler checksum of each slot is computed once).
const argsHeaderBytes = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sampleEvery is the share of stream parcels that carry a send time
// (one in sampleEvery): enough samples for a p99 per slice, few enough
// that reading the clock does not show in the parcel rate.
const sampleEvery = 64

// generator produces a workload's inputs from the seed alone.
type generator struct {
	rng       *rand.Rand
	epoch     time.Time
	slots     [][]byte // one args buffer per in-flight window slot
	fillerCRC []uint32
}

// newGenerator builds window args buffers of argsBytes each, their
// filler drawn from seed.
func newGenerator(seed int64, window, argsBytes int) *generator {
	if argsBytes < argsHeaderBytes {
		argsBytes = argsHeaderBytes
	}
	g := &generator{
		rng:       rand.New(rand.NewSource(seed)),
		epoch:     time.Now(),
		slots:     make([][]byte, window),
		fillerCRC: make([]uint32, window),
	}
	for i := range g.slots {
		b := make([]byte, argsBytes)
		g.rng.Read(b[argsHeaderBytes:])
		g.slots[i] = b
		g.fillerCRC[i] = crc32.Checksum(b[argsHeaderBytes:], castagnoli)
	}
	return g
}

// next stamps slot seq%window with seq (and, when sampled, the send
// time) and returns it. The caller must not call next for seq+window
// before parcel seq has been delivered: the runtime reads the buffer
// asynchronously, when it encodes the message.
func (g *generator) next(seq uint64, sampled bool) []byte {
	i := int(seq % uint64(len(g.slots)))
	b := g.slots[i]
	binary.LittleEndian.PutUint64(b[0:8], seq)
	var stamp uint32
	if sampled {
		stamp = uint32(time.Since(g.epoch)/time.Microsecond) + 1
	}
	binary.LittleEndian.PutUint32(b[8:12], stamp)
	binary.LittleEndian.PutUint32(b[12:16], crc32.Checksum(b[0:12], castagnoli)^g.fillerCRC[i])
	return b
}

// sinceSend returns how long ago a sampled parcel was stamped.
func (g *generator) sinceSend(stamp uint32) time.Duration {
	now := uint32(time.Since(g.epoch) / time.Microsecond)
	return time.Duration(now-(stamp-1)) * time.Microsecond // wraps with the stamp
}

// checkArgs verifies received stream args and returns the sequence
// number and send stamp.
func checkArgs(args []byte) (seq uint64, stamp uint32, ok bool) {
	if len(args) < argsHeaderBytes {
		return 0, 0, false
	}
	want := crc32.Checksum(args[0:12], castagnoli) ^ crc32.Checksum(args[argsHeaderBytes:], castagnoli)
	if binary.LittleEndian.Uint32(args[12:16]) != want {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(args[0:8]), binary.LittleEndian.Uint32(args[8:12]), true
}

// seenSet records which sequence numbers have been delivered, so a
// second delivery of the same parcel is caught (exactly-once).
type seenSet struct {
	words []atomic.Uint64
}

// seenCapacity bounds the sequence numbers one run can use: 2^28 parcels
// is more than a minute at four million parcels a second. Untouched
// pages of the bitmap cost no memory.
const seenCapacity = 1 << 28

func newSeenSet() *seenSet { return &seenSet{words: make([]atomic.Uint64, seenCapacity/64)} }

// mark records seq and reports whether it was new and in range.
func (s *seenSet) mark(seq uint64) bool {
	if seq >= seenCapacity {
		return false
	}
	w, bit := &s.words[seq/64], uint64(1)<<(seq%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}
