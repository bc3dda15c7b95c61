// Package taskbench implements a Task Bench-style parameterized workload
// generator and driver for the runtime: a task graph is fully described
// by (width, steps, dependence pattern, task grain, output bytes), and
// the same driver executes any point in that space over the coalescing
// layer, so communication-pattern coverage becomes a parameter sweep
// instead of a per-application port.
//
// Task Bench (Slaughter et al.) is the standard harness for comparing
// task-based runtime systems across dependence patterns, and Wu et al.
// use exactly that harness to quantify Charm++/HPX communication
// overheads. Reproducing the methodology here lets the paper's Eq. 4
// network-overhead metric — and the adaptive tuner built on it — be
// tested across stencil, butterfly, tree, random and spread dependence
// structures rather than the three fixed applications the repository
// started with.
//
// A graph has Width points per step and Steps steps. The task at
// (step, point) depends on a pattern-defined set of points in step-1;
// step 0 tasks have no dependencies. Each task spins a configurable
// grain of compute, then sends OutputBytes to every dependent task in
// the next step as a typed active message, so cross-locality edges flow
// through the parcel-coalescing layer like any other fine-grained
// traffic.
package taskbench

import (
	"fmt"
	"sort"
	"time"
)

// Pattern names a dependence pattern. The catalog follows Task Bench's:
// the pattern is a pure function from (step, point) to the set of
// points in the previous step the task consumes.
type Pattern string

const (
	// Trivial has no dependencies at all: every task of every step is a
	// root. It measures pure task-spawn throughput with zero
	// communication.
	Trivial Pattern = "trivial"
	// NoComm gives each task exactly one dependency: the same point in
	// the previous step. All edges are vertical, so under a block
	// partition no parcel ever crosses localities.
	NoComm Pattern = "no_comm"
	// Stencil1D depends on {point-1, point, point+1} clipped to the
	// graph edge: nearest-neighbor halo traffic.
	Stencil1D Pattern = "stencil_1d"
	// Stencil1DPeriodic is Stencil1D with wraparound, adding the
	// long-range edge between the first and last blocks.
	Stencil1DPeriodic Pattern = "stencil_1d_periodic"
	// FFT is the butterfly: at step s the partner offset is
	// 2^((s-1) mod ceil(log2 width)), and each task depends on itself
	// and its XOR-partner when the partner is within the graph. Distance
	// doubles each step, cycling — alternately local and maximally
	// non-local traffic.
	FFT Pattern = "fft"
	// Tree is a binomial broadcast wave: with half = 2^((s-1) mod
	// ceil(log2 width)), points in [half, 2*half) receive from the point
	// half below them, and every point carries its own value forward.
	// The cross-edge fan-out doubles each step, then the wave restarts.
	Tree Pattern = "tree"
	// Random draws each possible edge (q -> point) independently with
	// probability Fraction from a hash of (Seed, step, point, q):
	// deterministic for a fixed seed, irregular in every other respect.
	Random Pattern = "random"
	// Spread gives each task SpreadDeps dependencies spaced width/K
	// apart and rotated by one point per step, so traffic is long-range
	// and shifts every step.
	Spread Pattern = "spread"
	// Skewed is the deliberately imbalanced pattern for per-destination
	// tuning: every task has nearest-neighbor (Stencil1D) dependencies,
	// and the first HotPoints points additionally depend on every point
	// in the previous step. Under the block partition the hot points'
	// owner locality receives a fan-in from the whole graph each step
	// while the rest see only boundary halo traffic — one hot
	// destination, many cold ones.
	Skewed Pattern = "skewed"
)

// AllPatterns lists the full catalog in sweep order.
var AllPatterns = []Pattern{
	Trivial, NoComm, Stencil1D, Stencil1DPeriodic, FFT, Tree, Random, Spread, Skewed,
}

// Graph parameterizes one Task Bench-style workload.
type Graph struct {
	// Width is the number of task points per step (default 16).
	Width int
	// Steps is the number of dependence steps (default 8).
	Steps int
	// Pattern selects the dependence structure (default Stencil1D).
	Pattern Pattern
	// Iterations is the task grain: spin iterations of floating-point
	// work each task performs before emitting its outputs (default 64).
	Iterations int
	// OutputBytes is the payload size of each dependence message
	// (default 32).
	OutputBytes int
	// Seed drives the Random pattern's edge selection (default 1).
	Seed int64
	// Fraction is the Random pattern's edge probability (default 0.25).
	Fraction float64
	// SpreadDeps is the Spread pattern's dependency count per task,
	// capped at Width (default 3).
	SpreadDeps int
	// HotPoints is the Skewed pattern's hot-spot count: how many leading
	// points fan in from the whole previous step, capped at Width
	// (default 1).
	HotPoints int
}

// WithDefaults returns the graph with unset fields defaulted.
func (g Graph) WithDefaults() Graph {
	if g.Width <= 0 {
		g.Width = 16
	}
	if g.Steps <= 0 {
		g.Steps = 8
	}
	if g.Pattern == "" {
		g.Pattern = Stencil1D
	}
	if g.Iterations <= 0 {
		g.Iterations = 64
	}
	if g.OutputBytes <= 0 {
		g.OutputBytes = 32
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Fraction <= 0 || g.Fraction > 1 {
		g.Fraction = 0.25
	}
	if g.SpreadDeps <= 0 {
		g.SpreadDeps = 3
	}
	if g.HotPoints <= 0 {
		g.HotPoints = 1
	}
	return g
}

// Validate rejects graphs the driver cannot run.
func (g Graph) Validate() error {
	known := false
	for _, p := range AllPatterns {
		if g.Pattern == p {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("taskbench: unknown pattern %q", g.Pattern)
	}
	if g.Width <= 0 || g.Steps <= 0 {
		return fmt.Errorf("taskbench: width and steps must be positive (got %d×%d)", g.Width, g.Steps)
	}
	return nil
}

// TotalTasks returns Width*Steps.
func (g Graph) TotalTasks() int { return g.Width * g.Steps }

// String renders the graph for logs and reports.
func (g Graph) String() string {
	return fmt.Sprintf("%s w=%d s=%d grain=%d bytes=%d", g.Pattern, g.Width, g.Steps, g.Iterations, g.OutputBytes)
}

// stages returns the butterfly/tree cycle length: ceil(log2(width)),
// minimum 1 so width-1 graphs are well defined.
func (g Graph) stages() int {
	s, n := 0, 1
	for n < g.Width {
		n *= 2
		s++
	}
	if s == 0 {
		s = 1
	}
	return s
}

// Dependencies returns the sorted, deduplicated set of points in step-1
// that the task at (step, point) consumes. Step 0 tasks (and the Trivial
// pattern everywhere) have none. Every returned point is in [0, Width).
func (g Graph) Dependencies(step, point int) []int {
	if step <= 0 || point < 0 || point >= g.Width || g.Pattern == Trivial {
		return nil
	}
	w := g.Width
	var deps []int
	switch g.Pattern {
	case NoComm:
		deps = []int{point}
	case Stencil1D:
		for _, q := range []int{point - 1, point, point + 1} {
			if q >= 0 && q < w {
				deps = append(deps, q)
			}
		}
	case Stencil1DPeriodic:
		deps = []int{(point - 1 + w) % w, point, (point + 1) % w}
	case FFT:
		offset := 1 << ((step - 1) % g.stages())
		deps = []int{point}
		if partner := point ^ offset; partner >= 0 && partner < w {
			deps = append(deps, partner)
		}
	case Tree:
		half := 1 << ((step - 1) % g.stages())
		deps = []int{point}
		if point >= half && point < 2*half {
			deps = append(deps, point-half)
		}
	case Random:
		for q := 0; q < w; q++ {
			if edgeRand(g.Seed, step, point, q) < g.Fraction {
				deps = append(deps, q)
			}
		}
	case Spread:
		k := g.SpreadDeps
		if k > w {
			k = w
		}
		stride := w / k
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < k; i++ {
			deps = append(deps, (point+step+i*stride)%w)
		}
	case Skewed:
		for _, q := range []int{point - 1, point, point + 1} {
			if q >= 0 && q < w {
				deps = append(deps, q)
			}
		}
		hot := g.HotPoints
		if hot > w {
			hot = w
		}
		if point < hot {
			for q := 0; q < w; q++ {
				deps = append(deps, q)
			}
		}
	}
	return dedupSorted(deps)
}

// dedupSorted sorts xs and removes duplicates in place.
func dedupSorted(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// edgeRand maps (seed, step, point, q) to a uniform float in [0, 1) with
// a splitmix64 chain, making the Random pattern a pure function of the
// seed.
func edgeRand(seed int64, step, point, q int) float64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h + uint64(step))
	h = splitmix64(h + uint64(point))
	h = splitmix64(h + uint64(q))
	return float64(h>>11) / float64(1<<53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// defaultTimeout bounds one driver run when the caller does not set one.
const defaultTimeout = 60 * time.Second
