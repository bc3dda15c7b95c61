package runtime

import (
	"strconv"

	"repro/internal/counters"
	"repro/internal/network"
	"repro/internal/timer"
)

// registerFabricCounters exposes the transport's cumulative Stats through
// the runtime's root registry under the /network{*} tree, next to the
// reliability layer's /network/reliability counters. They are derived
// counters reading the fabric on demand, so the fabric's own atomics stay
// the single source of truth; both directions of the wire are visible
// (sent at the fabric's Send, received when a frame is handed to the
// destination handler). Beside them, /network/payload-pool/{gets,misses}@B
// count the payload pool's traffic in its B-byte size class; the pool is
// process-wide, so they count every runtime in the process.
func (rt *Runtime) registerFabricCounters() {
	f := rt.fabric
	mk := func(name string, read func(network.Stats) uint64) {
		rt.root.MustRegister(counters.NewDerived(
			counters.Path{Object: "network", Name: "count/" + name},
			func() float64 { return float64(read(f.Stats())) },
		))
	}
	mk("messages-sent", func(s network.Stats) uint64 { return s.MessagesSent })
	mk("bytes-sent", func(s network.Stats) uint64 { return s.BytesSent })
	mk("messages-received", func(s network.Stats) uint64 { return s.MessagesReceived })
	mk("bytes-received", func(s network.Stats) uint64 { return s.BytesReceived })

	for i, class := range network.PayloadPoolStats() {
		pool := func(name string, read func(network.PayloadClassStats) uint64) {
			rt.root.MustRegister(counters.NewDerived(
				counters.Path{Object: "network", Name: "payload-pool/" + name, Parameters: strconv.Itoa(class.Size)},
				func() float64 { return float64(read(network.PayloadPoolStats()[i])) },
			))
		}
		pool("gets", func(c network.PayloadClassStats) uint64 { return c.Gets })
		pool("misses", func(c network.PayloadClassStats) uint64 { return c.Misses })
	}
}

// registerTimerCounters exposes the flush-timer service's activity under
// /timers/flush/*: what the coalescers' timers cost the process, which no
// Eq. 4 term sees (the service is neither task time nor background work).
func (rt *Runtime) registerTimerCounters() {
	mk := func(name string, read func(timer.Stats) uint64) {
		rt.root.MustRegister(counters.NewDerived(
			counters.Path{Object: "timers", Name: "flush/" + name},
			func() float64 { return float64(read(rt.timers.Stats())) },
		))
	}
	mk("wakeups", func(s timer.Stats) uint64 { return s.Wakeups })
	mk("fires", func(s timer.Stats) uint64 { return s.Fires })
	mk("rekeys", func(s timer.Stats) uint64 { return s.Rekeys })
}
