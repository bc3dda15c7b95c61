// Package parquet implements a scaled analog of the self-consistent
// parquet method the paper evaluates: an iterative physics solver whose
// state is rank-3 tensors of complex doubles with linear dimension Nc,
// distributed across localities.
//
// The reproduction keeps the communication structure the paper measures
// and nothing else of the physics: per iteration, a rotation phase
// broadcasts 8·Nc² parcels containing Nc complex-double elements each
// from every locality to the others (no message depends on another; all
// are sent in parallel), followed by a local tensor-contraction compute
// phase, with a barrier between iterations. The paper ran Nc = 512 on
// four nodes; the default here is Nc = 24 on four localities so full
// parameter sweeps run at laptop scale — payload sizes scale down with
// Nc, and the experiment harness scales the fabric's eager/rendezvous
// threshold by the same factor to preserve the parcel-size-to-threshold
// ratio (8 KB parcels against a ~32 KB threshold become ~0.4 KB parcels
// against a ~2 KB threshold).
package parquet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/coalescing"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/serialization"
)

// Action is the rotation-phase action name: the receiver folds one row of
// Nc complex elements into its tensor.
const Action = "parquet/rotate"

// Config parameterizes one parquet run.
type Config struct {
	// Localities is the number of nodes (default, as in the paper, 4).
	Localities int
	// WorkersPerLocality sizes the schedulers (default 4).
	WorkersPerLocality int
	// Nc is the linear tensor dimension; the rotation phase sends 8·Nc²
	// parcels of Nc elements from each locality (default 24; the paper
	// ran 512 on real hardware).
	Nc int
	// Iterations is the number of solver iterations (default 3).
	Iterations int
	// Params are the coalescing parameters for the rotation action.
	Params coalescing.Params
	// CostModel overrides the fabric model; the zero value selects
	// ScaledCostModel(Nc).
	CostModel network.CostModel
	// ComputeTasks is how many contraction tasks each locality runs in
	// the compute phase (default 8·Nc).
	ComputeTasks int
	// ComputeRepeat is how many O(Nc²) contraction blocks each compute
	// task performs (default 300). Together with ComputeTasks it sets the
	// compute-to-communication ratio; the defaults make the compute phase
	// a substantial fraction of an iteration, as in the real solver, so
	// the network-overhead metric has dynamic range instead of saturating
	// near 1.
	ComputeRepeat int
}

func (c Config) withDefaults() Config {
	if c.Localities <= 0 {
		c.Localities = 4
	}
	if c.WorkersPerLocality <= 0 {
		c.WorkersPerLocality = 4
	}
	if c.Nc <= 0 {
		c.Nc = 24
	}
	if c.Iterations <= 0 {
		c.Iterations = 3
	}
	if c.Params.NParcels == 0 {
		c.Params = coalescing.Params{NParcels: 4, Interval: 5 * time.Millisecond}
	}
	if c.ComputeTasks <= 0 {
		c.ComputeTasks = 8 * c.Nc
	}
	if c.ComputeRepeat <= 0 {
		c.ComputeRepeat = 300
	}
	return c
}

// ScaledCostModel returns the default cost model with the
// eager/rendezvous threshold scaled to the tensor dimension, preserving
// the paper's ratio of parcel size (Nc complex doubles ≈ 16·Nc bytes) to
// the MPI eager threshold: roughly four rotation parcels fit in one eager
// message, beyond which coalesced messages pay rendezvous costs.
func ScaledCostModel(nc int) network.CostModel {
	m := network.DefaultCostModel()
	m.EagerThresholdBytes = 5 * nc * 16 // ≈ 4 parcels incl. framing
	m.RendezvousCPU = 10 * time.Microsecond
	m.RendezvousPerByteCPU = 30 * time.Nanosecond
	return m
}

// IterationResult pairs an iteration's metrics with its wall time.
type IterationResult struct {
	metrics.Phase
	// RotationParcels is the number of rotation parcels this locality set
	// sent during the iteration (8·Nc² per locality).
	RotationParcels int
}

// Result summarises one parquet run.
type Result struct {
	Config     Config
	Iterations []IterationResult
	Total      time.Duration
	// Checksum is a reduction over the final tensors, used by tests to
	// verify that every rotation parcel was applied exactly once.
	Checksum float64
	// MessagesSent aggregates port counters over all localities.
	MessagesSent int64
	ParcelsSent  int64
}

// AvgIterationWall returns the mean wall time per iteration.
func (r Result) AvgIterationWall() time.Duration {
	if len(r.Iterations) == 0 {
		return 0
	}
	var sum time.Duration
	for _, it := range r.Iterations {
		sum += it.Wall
	}
	return sum / time.Duration(len(r.Iterations))
}

// AvgNetworkOverhead returns the mean Eq. 4 overhead across iterations.
func (r Result) AvgNetworkOverhead() float64 {
	if len(r.Iterations) == 0 {
		return 0
	}
	sum := 0.0
	for _, it := range r.Iterations {
		sum += it.NetworkOverhead()
	}
	return sum / float64(len(r.Iterations))
}

// App is one parquet solver instance bound to a runtime.
type App struct {
	rt  *runtime.Runtime
	cfg Config
	// per-locality tensor state; tensors[l] has Nc³ elements.
	mu      []sync.Mutex
	tensors [][]complex128
	applied []int64 // rotation rows folded in, per locality
	// snap[l] is tensors[l] as it stood when the current rotation began:
	// what locality l broadcasts. Senders read it, never the live tensor,
	// which other localities' rows are being folded into while they send.
	snap [][]complex128
	// expectedPerIter[l] is how many rotation rows locality l receives
	// per iteration, derived from the deterministic round-robin
	// distribution; completion detection compares applied against the
	// cumulative expectation (the rotation is a broadcast — "no message
	// depends on another" — so parcels are fire-and-forget and the phase
	// ends when every row has landed, not when response futures resolve).
	expectedPerIter []int64
}

// NewApp allocates tensors and registers the rotation action on rt.
func NewApp(rt *runtime.Runtime, cfg Config) *App {
	cfg = cfg.withDefaults()
	a := &App{
		rt:      rt,
		cfg:     cfg,
		mu:      make([]sync.Mutex, cfg.Localities),
		tensors: make([][]complex128, cfg.Localities),
		applied: make([]int64, cfg.Localities),
		snap:    make([][]complex128, cfg.Localities),
	}
	n3 := cfg.Nc * cfg.Nc * cfg.Nc
	for l := range a.tensors {
		t := make([]complex128, n3)
		for i := range t {
			t[i] = complex(float64((l+1)*(i%97))/97, float64(i%13)/13)
		}
		a.tensors[l] = t
		a.snap[l] = make([]complex128, n3)
	}
	a.expectedPerIter = make([]int64, cfg.Localities)
	n := 8 * cfg.Nc * cfg.Nc
	L := cfg.Localities
	for src := 0; src < L; src++ {
		// Sender src routes parcel p to (src+1+p%(L-1))%L: every other
		// locality gets n/(L-1) rows, the first n%(L-1) route offsets one
		// extra.
		for o := 0; o < L-1; o++ {
			dst := (src + 1 + o) % L
			cnt := int64(n / (L - 1))
			if o < n%(L-1) {
				cnt++
			}
			a.expectedPerIter[dst] += cnt
		}
	}
	rt.MustRegisterAction(Action, a.rotateAction)
	return a
}

// rotateAction folds a received row into the executing locality's tensor.
func (a *App) rotateAction(ctx *runtime.Context, args []byte) ([]byte, error) {
	r := serialization.NewReader(args)
	rowIdx := int(r.Uvarint())
	row := r.C128Slice()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("parquet: bad rotation parcel: %w", err)
	}
	if len(row) != a.cfg.Nc {
		return nil, fmt.Errorf("parquet: row has %d elements, want %d", len(row), a.cfg.Nc)
	}
	l := ctx.Locality
	t := a.tensors[l]
	base := (rowIdx % (a.cfg.Nc * a.cfg.Nc)) * a.cfg.Nc
	a.mu[l].Lock()
	for i, v := range row {
		t[base+i] += v
	}
	a.applied[l]++
	a.mu[l].Unlock()
	return nil, nil
}

// RotationParcelsPerLocality returns 8·Nc², the paper's per-locality
// rotation-phase parcel count.
func (a *App) RotationParcelsPerLocality() int {
	return 8 * a.cfg.Nc * a.cfg.Nc
}

// runRotation broadcasts each locality's rows to all other localities as
// fire-and-forget parcels ("no message depends on another and they can be
// sent in parallel") and waits until every locality has received its full
// complement of rows. Straggler parcels left in partially-filled
// coalescing queues arrive via the flush timer, so over-aggressive
// coalescing pays the wait-time penalty at the end of the burst exactly
// as the paper describes.
func (a *App) runRotation() error {
	L := a.cfg.Localities
	// Cumulative targets, and the tensors every locality will broadcast,
	// both fixed before any send of this iteration: a row copied out of
	// the live tensor mid-rotation would or would not include other
	// localities' contributions depending on delivery timing, making the
	// result a function of the coalescing parameters.
	targets := make([]int64, L)
	for l := 0; l < L; l++ {
		a.mu[l].Lock()
		targets[l] = a.applied[l] + a.expectedPerIter[l]
		copy(a.snap[l], a.tensors[l])
		a.mu[l].Unlock()
	}
	errCh := make(chan error, L)
	for l := 0; l < L; l++ {
		go func(src int) {
			loc := a.rt.Locality(src)
			nParcels := a.RotationParcelsPerLocality()
			for p := 0; p < nParcels; p++ {
				dst := (src + 1 + p%(L-1)) % L
				base := (p % (a.cfg.Nc * a.cfg.Nc)) * a.cfg.Nc
				w := serialization.NewWriter(16*a.cfg.Nc + 8)
				w.Uvarint(uint64(p))
				w.C128Slice(a.snap[src][base : base+a.cfg.Nc])
				if err := loc.Apply(dst, Action, w.Bytes()); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(l)
	}
	for l := 0; l < L; l++ {
		if err := <-errCh; err != nil {
			return err
		}
	}
	// Completion detection: all rows of this iteration folded in.
	deadline := time.Now().Add(60 * time.Second)
	for l := 0; l < L; l++ {
		for a.AppliedRows(l) < targets[l] {
			if time.Now().After(deadline) {
				return fmt.Errorf("parquet: rotation stalled: locality %d has %d/%d rows",
					l, a.AppliedRows(l), targets[l])
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// runCompute performs the local tensor-contraction phase: ComputeTasks
// lightweight tasks per locality, each performing ComputeRepeat O(Nc²)
// contraction blocks, so compute and any remaining communication overlap
// as they would in HPX.
func (a *App) runCompute() {
	L := a.cfg.Localities
	nc := a.cfg.Nc
	// Tasks read the tensor concurrently (no rotation writes are in
	// flight between phases) and deposit their contraction results in
	// private slots; the results are folded into the tensors only after
	// the barrier, so no task ever observes another task's write.
	results := make([][]complex128, L)
	var wg sync.WaitGroup
	for l := 0; l < L; l++ {
		results[l] = make([]complex128, a.cfg.ComputeTasks)
		for task := 0; task < a.cfg.ComputeTasks; task++ {
			wg.Add(1)
			l, task := l, task
			a.rt.Locality(l).Spawn(func() {
				defer wg.Done()
				t := a.tensors[l]
				var acc complex128
				for rep := 0; rep < a.cfg.ComputeRepeat; rep++ {
					base := ((task + rep) % nc) * nc * nc
					for i := 0; i < nc; i++ {
						for j := 0; j < nc; j++ {
							acc += t[base+i*nc+j] * t[base+j*nc+i]
						}
					}
				}
				results[l][task] = acc
			})
		}
	}
	wg.Wait()
	for l := 0; l < L; l++ {
		a.mu[l].Lock()
		t := a.tensors[l]
		for task, acc := range results[l] {
			base := (task % nc) * nc * nc
			t[base] += acc * complex(1e-9, 0) // keep state bounded
		}
		a.mu[l].Unlock()
	}
}

// RunOneIteration executes a single rotation + compute iteration and
// returns its wall-clock time; used by iteration-driven tuners (PICS)
// that change parameters between iterations.
func (a *App) RunOneIteration() (time.Duration, error) {
	start := time.Now()
	if err := a.runRotation(); err != nil {
		return 0, err
	}
	a.runCompute()
	return time.Since(start), nil
}

// RunIterations executes the configured number of iterations, recording
// per-iteration metrics.
func (a *App) RunIterations() (Result, error) {
	res := Result{Config: a.cfg}
	rec := metrics.NewPhaseRecorder(a.rt)
	start := time.Now()
	for it := 0; it < a.cfg.Iterations; it++ {
		if err := a.runRotation(); err != nil {
			return res, fmt.Errorf("parquet: iteration %d rotation: %w", it, err)
		}
		a.runCompute()
		p := rec.EndPhase(fmt.Sprintf("iteration %d", it+1))
		res.Iterations = append(res.Iterations, IterationResult{
			Phase:           p,
			RotationParcels: a.RotationParcelsPerLocality(),
		})
	}
	res.Total = time.Since(start)
	res.Checksum = a.Checksum()
	for i := 0; i < a.rt.Localities(); i++ {
		s := a.rt.Locality(i).Port().Stats()
		res.MessagesSent += s.MessagesSent
		res.ParcelsSent += s.ParcelsSent
	}
	return res, nil
}

// AppliedRows returns how many rotation rows locality l has folded in.
func (a *App) AppliedRows(l int) int64 {
	a.mu[l].Lock()
	defer a.mu[l].Unlock()
	return a.applied[l]
}

// Checksum reduces all tensors to one float for cross-run comparison.
func (a *App) Checksum() float64 {
	sum := 0.0
	for l := range a.tensors {
		a.mu[l].Lock()
		for _, v := range a.tensors[l] {
			sum += math.Abs(real(v)) + math.Abs(imag(v))
		}
		a.mu[l].Unlock()
	}
	return sum
}

// Run executes a parquet run on a fresh runtime.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	model := cfg.CostModel
	if (model == network.CostModel{}) {
		model = ScaledCostModel(cfg.Nc)
	}
	rt := runtime.New(runtime.Config{
		Localities:         cfg.Localities,
		WorkersPerLocality: cfg.WorkersPerLocality,
		CostModel:          model,
	})
	defer rt.Shutdown()
	app := NewApp(rt, cfg)
	if err := rt.EnableCoalescing(Action, cfg.Params); err != nil {
		return Result{}, err
	}
	return app.RunIterations()
}
