package reliable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/network"
	"repro/internal/parcel"
)

// The buffer-ownership suite: payloads cross this layer uncopied, so what
// it must get right is who owns a buffer when. Released buffers are
// poisoned, which turns a premature release into wrong bytes (and, under
// the race detector, into a reported race) instead of luck.

const (
	ownArgBytes     = 4096 // with 16 parcels a bundle is 66 KiB: the 128 KiB class
	ownParcels      = 16
	ownRoundBundles = 6
	ownBundleClass  = 128 << 10
)

func poisonReleases(t testing.TB) {
	t.Helper()
	network.PoisonReleasedPayloads(true)
	t.Cleanup(func() { network.PoisonReleasedPayloads(false) })
}

func classMisses(t testing.TB, size int) uint64 {
	t.Helper()
	for _, c := range network.PayloadPoolStats() {
		if c.Size == size {
			return c.Misses
		}
	}
	t.Fatalf("no %d-byte payload class", size)
	return 0
}

// ownArgs builds one parcel's arguments: a CRC over a body that starts
// with the parcel's number.
func ownArgs(id uint64) []byte {
	b := make([]byte, ownArgBytes)
	binary.LittleEndian.PutUint64(b[4:], id)
	x := id*0x9E3779B97F4A7C15 + 1
	for i := 12; i < len(b); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	binary.LittleEndian.PutUint32(b, crc32.ChecksumIEEE(b[4:]))
	return b
}

// frameLog checks every data frame 0->1 against its first transmission:
// a retransmission may differ in the piggybacked ACK and in nothing else.
type frameLog struct {
	t      *testing.T
	next   network.FaultHook
	mu     sync.Mutex
	first  map[uint64][]byte
	resent int
}

func (l *frameLog) hook(src, dst int, frame []byte) network.Fault {
	if _, tr, ok := parseFrame(frame); ok && tr.kind == kindData && src == 0 {
		masked := bytes.Clone(frame)
		putAck(masked, 0, 0)
		l.mu.Lock()
		if first, seen := l.first[tr.seq]; !seen {
			l.first[tr.seq] = masked
		} else {
			l.resent++
			if !bytes.Equal(first, masked) {
				l.t.Errorf("retransmission of frame %d differs from its first transmission outside the ACK fields", tr.seq)
			}
		}
		l.mu.Unlock()
	}
	return l.next(src, dst, frame)
}

// TestOwnershipLargeBundles sends 66 KiB bundles port to port over the
// reliable layer on a wire that drops, duplicates, delays and reorders,
// and checks every borrowed parcel late: a round's parcels are verified
// only after the sender's window has released the frames that carried
// them (Pending() == 0) and after the whole next round has been read off
// the wire into other buffers. It also holds the pool to account: with
// the bundle class's slots all filled beforehand, a stack that returns
// every buffer it takes never misses.
func TestOwnershipLargeBundles(t *testing.T) {
	faults := network.LinkFaults{
		DropRate: 0.01, DuplicateRate: 0.05, DelayRate: 0.05, ReorderRate: 0.10,
		Delay: 300 * time.Microsecond,
		// One certain loss in mid-round, so that every run retransmits and
		// parks frames in the reorder buffer whatever the seeded rates hit.
		BurstEvery: 40, BurstLen: 1,
	}
	for name, build := range map[string]func(t *testing.T, hook network.FaultHook) network.Fabric{
		"tcp": func(t *testing.T, hook network.FaultHook) network.Fabric {
			f, err := network.NewTCPFabric(2)
			if err != nil {
				t.Fatal(err)
			}
			f.SetFaultHook(hook)
			return f
		},
		"sim": func(t *testing.T, hook network.FaultHook) network.Fabric {
			f := network.NewSimFabric(2, network.CostModel{})
			f.SetFaultHook(hook)
			return f
		},
	} {
		t.Run(name, func(t *testing.T) {
			poisonReleases(t)
			plan := network.NewFaultPlan(7)
			plan.SetDefault(faults)
			log := &frameLog{t: t, next: plan.Hook(), first: map[uint64][]byte{}}
			rel := New(build(t, log.hook), fastCfg())
			defer rel.Close()

			resolve := func(g agas.GID) (int, error) { return g.AllocLocality(), nil }
			var mu sync.Mutex
			var got []*parcel.Parcel // borrowed: they alias the buffers the frames arrived in
			rx := parcel.NewPort(parcel.Config{Locality: 1, Fabric: rel, Resolve: resolve, Deliver: func(p *parcel.Parcel) {
				mu.Lock()
				got = append(got, p)
				mu.Unlock()
			}})
			defer rx.Close()
			tx := parcel.NewPort(parcel.Config{Locality: 0, Fabric: rel, Resolve: resolve, Deliver: func(p *parcel.Parcel) { p.Release() }})
			defer tx.Close()

			const perRound = ownRoundBundles * ownParcels
			sendRound := func(r int) {
				for m := 0; m < ownRoundBundles; m++ {
					batch := parcel.GetBatch()
					for i := 0; i < ownParcels; i++ {
						id := uint64(r*perRound + m*ownParcels + i)
						batch = append(batch, &parcel.Parcel{
							Dest: agas.MakeGID(1, 1), DestLocality: 1, Action: "own/check", Args: ownArgs(id),
						})
					}
					tx.EnqueueMessage(1, batch)
				}
			}
			// settle drives both ports until n parcels are delivered and
			// every frame that carried them is acknowledged and released.
			settle := func(n int) {
				deadline := time.Now().Add(20 * time.Second)
				for {
					tx.DoBackgroundWork(64)
					rx.DoBackgroundWork(64)
					mu.Lock()
					have := len(got)
					mu.Unlock()
					if have >= n && rel.Pending() == 0 {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("delivered %d of %d parcels, %d frames unacknowledged", have, n, rel.Pending())
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			verifyRound := func(r int) {
				mu.Lock()
				ps := got[r*perRound : (r+1)*perRound]
				mu.Unlock()
				for i, p := range ps {
					want := uint64(r*perRound + i)
					if len(p.Args) != ownArgBytes || crc32.ChecksumIEEE(p.Args[4:]) != binary.LittleEndian.Uint32(p.Args) {
						t.Fatalf("parcel %d: arguments corrupt after their frame was released (first bytes % x)", want, p.Args[:min(16, len(p.Args))])
					}
					if id := binary.LittleEndian.Uint64(p.Args[4:]); id != want {
						t.Fatalf("delivery %d carries parcel %d: lost, duplicated or out of order", want, id)
					}
					p.Release()
				}
			}

			// Fill every slot of the bundle class: from here on a miss means
			// more buffers in use at once than the class holds — or one
			// that never came back.
			var fill [][]byte
			for i := 0; i < 256; i++ { // more than the class has slots
				fill = append(fill, network.GetPayload(ownBundleClass))
			}
			for _, b := range fill {
				network.PutPayload(b)
			}
			misses := classMisses(t, ownBundleClass)

			const rounds = 10
			for r := 0; r < rounds; r++ {
				sendRound(r)
				settle((r + 1) * perRound)
				if r > 0 {
					verifyRound(r - 1)
				}
			}
			verifyRound(rounds - 1)
			mu.Lock()
			if len(got) != rounds*perRound {
				t.Errorf("delivered %d parcels, want exactly %d", len(got), rounds*perRound)
			}
			mu.Unlock()

			if now := classMisses(t, ownBundleClass); now != misses {
				t.Errorf("%d-byte class missed %d times in steady state, want 0", ownBundleClass, now-misses)
			}
			st := rel.ReliabilityStats()
			log.mu.Lock()
			resent := log.resent
			log.mu.Unlock()
			if st.Retransmits == 0 || resent == 0 || st.SacksSent == 0 {
				t.Errorf("retransmits=%d (seen on the wire: %d) sacks=%d: no frame was resent, or none waited in the reorder buffer",
					st.Retransmits, resent, st.SacksSent)
			}
		})
	}
}

// TestOwnershipSessionRestartHandsBufferUp: the first frame of a newer
// epoch resets the resequencer and is delivered in the buffer it arrived
// in, like any in-order frame — releasing that buffer as well would hand
// the handler poison.
func TestOwnershipSessionRestartHandsBufferUp(t *testing.T) {
	poisonReleases(t)
	f := stubbed(t)
	var got [][]byte
	f.SetHandler(0, func(_ int, p []byte) { got = append(got, p) })
	inject := func(seq uint64, epoch uint32, tag byte) {
		body := bytes.Repeat([]byte{tag}, 900)
		f.onFrame(1, 0, encodeFrame(kindData, seq, 0, epoch, 0, body))
	}
	inject(1, 5, 'a')
	inject(3, 5, 'c') // waits in the reorder buffer, discarded by the restart
	inject(1, 9, 'x') // the restarted session's first frame
	inject(2, 9, 'y')
	want := []byte{'a', 'x', 'y'}
	if len(got) != len(want) {
		t.Fatalf("%d deliveries, want %d", len(got), len(want))
	}
	for i, p := range got {
		if !bytes.Equal(p, bytes.Repeat([]byte{want[i]}, 900)) {
			t.Errorf("delivery %d: got % x..., want 900 x %q", i, p[:8], want[i])
		}
		if cap(p) != 1024 {
			t.Errorf("delivery %d has capacity %d, want the pooled buffer's 1024 so that PutPayload recycles it", i, cap(p))
		}
		network.PutPayload(p)
	}
}

// drainClass empties the size class that holds b's buffer and reports how
// many of the pooled buffers were b's own.
func drainClass(t testing.TB, b []byte) (copies int) {
	t.Helper()
	base := &b[:1][0]
	for m := classMisses(t, cap(b)); ; {
		p := network.GetPayload(cap(b))
		if classMisses(t, cap(b)) != m {
			return copies
		}
		if &p[0] == base {
			copies++
		}
	}
}

// FuzzFrame feeds arbitrary bytes to onFrame as a frame from locality 1,
// against a live window and a resequencer that has delivered two frames:
// it must not panic, the buffer must end up in exactly one place — the
// pool (once), the handler, or the reorder buffer — and anything that
// does not end in a whole trailer must change nothing.
func FuzzFrame(f *testing.F) {
	frame := func(kind byte, seq, ack uint64, epoch, ackEpoch uint32, body string) []byte {
		return encodeFrame(kind, seq, ack, epoch, ackEpoch, []byte(body))
	}
	f.Add(frame(kindData, 3, 0, 7, 0, "in order"))
	f.Add(frame(kindData, 9, 2, 7, 1, "beyond a gap"))
	f.Add(frame(kindData, 1, 0, 7, 0, "duplicate"))
	f.Add(frame(kindData, 1, 0, 8, 0, "session restart"))
	f.Add(frame(kindData, 1, 0, 6, 0, "stale session"))
	f.Add(frame(kindData, 1<<40, 0, 7, 0, "beyond the window"))
	f.Add(frame(kindAck, 0, 3, 0, 1, "\xfe\xff"))
	f.Add(frame(kindProbe, 0, 0, 0, 0, "ping"))
	f.Add(frame(9, 0, 0, 0, 0, "unknown kind"))
	f.Add(frame(kindData, 3, 0, 7, 0, "truncated trailer")[:20])
	f.Add([]byte{frameMagic})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64<<10 {
			t.Skip()
		}
		fab := stubbed(t)
		var handed [][]byte
		keep := func(_ int, p []byte) { handed = append(handed, p) }
		fab.SetHandler(0, keep)
		fab.SetProbeHandler(0, keep)
		fab.baseEpoch = 1   // before the first link exists: ACKs must name it
		burst(t, fab, 0, 4) // a window 0->1 for ACK fields to land on
		for seq := uint64(1); seq <= 2; seq++ {
			fab.onFrame(1, 0, encodeFrame(kindData, seq, 0, 7, 0, []byte("warm")))
		}
		for _, p := range handed {
			network.PutPayload(p)
		}
		handed = nil

		ts, rs := fab.txFor(0, 1), fab.rxFor(1, 0)
		buf := network.GetPayload(len(raw))
		copy(buf, raw)
		drainClass(t, buf) // nothing of this class is pooled now
		_, _, ok := parseFrame(buf)
		fab.onFrame(1, 0, buf)

		pooled := drainClass(t, buf)
		held := 0
		for _, p := range handed {
			if &p[:1][0] == &buf[:1][0] {
				held++
			}
		}
		rs.mu.Lock()
		for _, p := range rs.buf {
			if p != nil && &p[:1][0] == &buf[:1][0] {
				held++
			}
		}
		delivered, epoch := rs.delivered, rs.epoch
		rs.mu.Unlock()
		if pooled+held != 1 {
			t.Fatalf("the frame's buffer is pooled %d times and held %d times, want exactly one owner", pooled, held)
		}
		if !ok {
			ts.mu.Lock()
			una := ts.una
			ts.mu.Unlock()
			if held != 0 || una != 1 || delivered != 2 || epoch != 7 {
				t.Fatalf("a frame without a whole trailer was believed: held=%d una=%d delivered=%d epoch=%d", held, una, delivered, epoch)
			}
		}
	})
}
