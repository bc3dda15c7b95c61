package taskbench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/network"
)

// CrashSpec injects a crash-stop failure into one graph execution: when
// the first task of step AtStep starts, locality Locality is crashed on
// the wire (via Plan) and silenced in the runtime. Detection is left to
// the failure detector, and the run then takes the bench's one failure
// path: with Options.Recover it completes on the survivors with every
// task executed exactly once, without it it fails with ErrLocalityDown.
//
// The runtime must have health monitoring enabled (Config.Health).
type CrashSpec struct {
	// Locality is the locality to crash. Must not be the only one.
	Locality int
	// AtStep triggers the crash when this step first begins executing.
	AtStep int
	// Plan is the fault injector wired into the fabric; the crash is
	// injected with Plan.Crash, dropping the locality's traffic in both
	// directions.
	Plan *network.FaultPlan
}

// RunWithCrash is Run with the crash spec injected. Either way it
// returns within the bench timeout.
func (b *Bench) RunWithCrash(g Graph, spec CrashSpec) (Result, error) {
	return b.execute(g, &spec)
}

func (b *Bench) validateCrash(g Graph, c *CrashSpec) error {
	L := b.rt.Localities()
	if c.Locality < 0 || c.Locality >= L {
		return fmt.Errorf("taskbench: crash locality %d out of range [0,%d)", c.Locality, L)
	}
	if L < 2 {
		return fmt.Errorf("taskbench: cannot crash locality %d of a single-locality runtime", c.Locality)
	}
	if c.AtStep < 0 || c.AtStep >= g.Steps {
		return fmt.Errorf("taskbench: crash step %d outside %s", c.AtStep, g)
	}
	if c.Plan == nil {
		return fmt.Errorf("taskbench: CrashSpec.Plan is nil")
	}
	if b.rt.Monitor(0) == nil {
		return fmt.Errorf("taskbench: crash runs require health monitoring (runtime.Config.Health.Enabled)")
	}
	return nil
}

// down is the one failure path: a locality went down during ru (a
// PeerDown event, or already down when the run started). Without a
// recovery policy the run fails; with one, the recovery watchdog starts,
// once per run.
func (b *Bench) down(ru *run) {
	if !b.recover {
		ru.fail(nil)
		return
	}
	ru.watching.Do(func() {
		go func() {
			defer close(ru.watched)
			b.watch(ru)
		}()
	})
}

// recoverTick is the recovery watchdog's period. The heal scan runs every
// tick, the incremental re-drive every redriveEvery ticks: re-sending on
// every tick would flood the port and starve the heartbeats keeping the
// survivors alive to each other.
const (
	recoverTick  = time.Millisecond
	redriveEvery = 16
)

// watch is the recovery watchdog: until the run ends it re-homes every
// newly dead locality's points, re-drives outputs into points whose input
// counters died in another process, and heals ready tasks that have not
// run. The re-spawns are idempotent: runTask's done CAS makes duplicate
// triggers no-ops.
func (b *Bench) watch(ru *run) {
	dead := make([]bool, b.rt.Localities()) // deaths already re-homed
	lost := make([]bool, ru.g.Width)        // points re-homed from another process
	sent := make([]bool, len(ru.done))      // producers re-driven since the last death
	next := make([]int, ru.g.Width)         // each point's first step not seen done
	tick := time.NewTicker(recoverTick)
	defer tick.Stop()
	for n := 0; ; n++ {
		fresh := false
		for i := range dead {
			if !dead[i] && b.rt.LocalityDead(i) {
				dead[i], fresh = true, true
			}
		}
		if fresh {
			if !b.rehome(ru, dead, lost) {
				ru.fail(nil)
				return
			}
			// A fresh death may re-home new dependents of producers whose
			// outputs were re-driven already: cover the grown set again.
			clear(sent)
			n = 0
		}
		// Re-driving periodically closes the gap left by a task that
		// finished in the detection window, sending to the dead owner
		// after the last pass: heal cannot see it when it ran in another
		// process.
		if n%redriveEvery == 0 {
			b.redrive(ru, lost, sent)
		}
		if !b.heal(ru) {
			ru.fail(nil) // runtime shutting down under us
			return
		}
		if ru.scan.Load() && b.allRun(ru, next) {
			ru.complete.CountDown(ru.complete.Count()) // open it
		}
		select {
		case <-ru.ended:
			return
		case <-tick.C:
		}
	}
}

// rehome redistributes every point owned by a dead locality round-robin
// over the survivors, in point order over survivors in id order — a pure
// function of (graph, dead set), so every process computes identical new
// owners without coordination. It marks in lost the points whose input
// counters lived in another process, and reports false when no hosted
// locality survives: then this process is the one the cluster lost.
func (b *Bench) rehome(ru *run, dead, lost []bool) bool {
	var survivors []int32
	hostedAlive := false
	for i := range dead {
		if !dead[i] && !b.rt.LocalityDead(i) {
			survivors = append(survivors, int32(i))
			hostedAlive = hostedAlive || b.rt.Hosted(i)
		}
	}
	if !hostedAlive {
		return false
	}
	k := 0
	for p := range ru.owners {
		from := int(ru.owners[p].Load())
		if !dead[from] {
			continue
		}
		to := survivors[k%len(survivors)]
		k++
		if b.rt.Hosted(from) != b.rt.Hosted(int(to)) {
			ru.scan.Store(true) // before the move: see run.complete
		}
		if !b.rt.Hosted(from) {
			lost[p] = true
		}
		ru.owners[p].Store(to)
	}
	return true
}

// heal walks the task grid and spawns every hosted task that is ready
// (all producers done here) but has not run itself. This repairs the two
// loss modes of a crash inside one process: tasks queued on the dead
// scheduler, and tasks whose inputs were dropped on the wire after their
// producers ran. Tasks owned by another process are its owner's to heal.
// It reports false once the runtime has stopped.
func (b *Bench) heal(ru *run) bool {
	w := ru.g.Width
	for s := 0; s < ru.g.Steps; s++ {
		healthy := true
		for p := 0; p < w; p++ {
			idx := s*w + p
			if ru.done[idx].Load() {
				continue
			}
			ready := true
			for _, q := range ru.deps[idx] {
				if !ru.done[(s-1)*w+q].Load() {
					ready = false
					break
				}
			}
			if !ready {
				healthy = false
				continue
			}
			if loc := int(ru.owners[p].Load()); b.rt.Hosted(loc) && !b.spawn(ru, s, p, loc) {
				return false
			}
		}
		// Nothing deeper can be ready while this step has unfinished,
		// not-yet-ready tasks; stop scanning early on large graphs.
		if !healthy {
			return true
		}
	}
	return true
}

// redrive restarts dataflow into the lost points: lost sources now owned
// here are re-seeded, and every output this process has computed for a
// lost dependent is sent again (the originals died with the other
// process's input counters). sent records the producers re-driven
// already, keeping repeated passes incremental.
func (b *Bench) redrive(ru *run, lost, sent []bool) {
	src := -1
	for i := 0; i < b.rt.Localities(); i++ {
		if b.rt.Hosted(i) && !b.rt.LocalityDead(i) {
			src = i
			break
		}
	}
	if src < 0 {
		return
	}
	w := ru.g.Width
	for idx := range ru.done {
		s, p := idx/w, idx%w
		if !ru.done[idx].Load() {
			if loc := int(ru.owners[p].Load()); lost[p] && len(ru.deps[idx]) == 0 && b.rt.Hosted(loc) {
				b.spawn(ru, s, p, loc)
			}
			continue
		}
		if !sent[idx] {
			sent[idx] = true
			b.send(ru, b.rt.Locality(src), s, p, lost)
		}
	}
}

// allRun reports whether every task of a hosted-owned point has
// finished here: claimed is not enough, as Run would return while the
// last bodies still run. next holds each point's first step not yet seen
// finished; the flags never clear, so repeated calls advance it instead
// of rescanning.
func (b *Bench) allRun(ru *run, next []int) bool {
	w := ru.g.Width
	for p := range next {
		if !b.rt.Hosted(int(ru.owners[p].Load())) {
			continue
		}
		for next[p] < ru.g.Steps && ru.finished[next[p]*w+p].Load() {
			next[p]++
		}
		if next[p] < ru.g.Steps {
			return false
		}
	}
	return true
}

// deadList names the localities declared down, for error messages.
func (b *Bench) deadList() string {
	var dead []string
	for i := 0; i < b.rt.Localities(); i++ {
		if b.rt.LocalityDead(i) {
			dead = append(dead, strconv.Itoa(i))
		}
	}
	if dead == nil {
		return "?"
	}
	return strings.Join(dead, ",")
}
