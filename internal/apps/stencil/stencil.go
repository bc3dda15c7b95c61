// Package stencil implements a third evaluation application beyond the
// paper's two: a 2-D heat-diffusion solver (5-point stencil) whose grid
// is row-partitioned across localities, with per-step halo exchange sent
// as many small parcels.
//
// The paper motivates its work with "fine grained communication patterns
// when dealing with a large scale distributed application": here the
// fine grain is explicit — each halo row is split into chunks of a few
// cells and every chunk travels as its own parcel, the way a
// task-decomposed stencil naturally produces boundary traffic. The
// communication pattern differs from both the toy app (one hot
// destination) and parquet (all-to-all broadcast): traffic is
// nearest-neighbor and bidirectional on a ring, giving the coalescing
// layer and the adaptive tuner a third regime to handle.
//
// The distributed solver is verified against a serial reference: both
// perform identical floating-point operations per cell, so results match
// exactly.
package stencil

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/coalescing"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/serialization"
)

// Action is the halo-exchange action name.
const Action = "stencil/halo"

// Config parameterizes a stencil run.
type Config struct {
	// Localities is the number of nodes in the ring (default 4).
	Localities int
	// WorkersPerLocality sizes the schedulers (default 4).
	WorkersPerLocality int
	// RowsPerLocality and Cols set each locality's grid block
	// (defaults 32 × 128). The global grid is periodic vertically.
	RowsPerLocality int
	Cols            int
	// Steps is the number of diffusion steps (default 20).
	Steps int
	// ChunkCells is how many boundary cells travel per parcel
	// (default 4): smaller chunks = finer-grained communication.
	ChunkCells int
	// Alpha is the diffusion coefficient (default 0.2; must keep the
	// explicit scheme stable: alpha <= 0.25).
	Alpha float64
	// Params are the coalescing parameters for the halo action.
	Params coalescing.Params
	// CostModel overrides the fabric model; zero selects
	// network.DefaultCostModel().
	CostModel network.CostModel
}

func (c Config) withDefaults() Config {
	if c.Localities <= 0 {
		c.Localities = 4
	}
	if c.WorkersPerLocality <= 0 {
		c.WorkersPerLocality = 4
	}
	if c.RowsPerLocality <= 0 {
		c.RowsPerLocality = 32
	}
	if c.Cols <= 0 {
		c.Cols = 128
	}
	if c.Steps <= 0 {
		c.Steps = 20
	}
	if c.ChunkCells <= 0 {
		c.ChunkCells = 4
	}
	if c.Alpha <= 0 || c.Alpha > 0.25 {
		c.Alpha = 0.2
	}
	if c.Params.NParcels == 0 {
		c.Params = coalescing.Params{NParcels: 16, Interval: 2 * time.Millisecond}
	}
	return c
}

// sides of a halo parcel.
const (
	sideTop    = 0 // row sent downward, becomes the receiver's top ghost
	sideBottom = 1 // row sent upward, becomes the receiver's bottom ghost
)

// App is one stencil solver bound to a runtime.
type App struct {
	rt  *runtime.Runtime
	cfg Config

	mu sync.Mutex
	// grid[l] is locality l's block, rows*cols cells, double buffered.
	grid, next [][]float64
	// ghostTop/ghostBottom[l][step%2] hold the ghost rows per step
	// parity: a neighbor may run one step ahead of us (it only needs our
	// halo, which we sent when entering our current step), so its
	// next-step halo chunks accumulate in the other parity's buffers
	// while we still compute.
	ghostTop, ghostBottom [][2][]float64
	// received[l][parity] counts ghost cells landed for that parity.
	received [][2]int
	step     []int // current step per locality
}

// NewApp allocates the grid and registers the halo action.
func NewApp(rt *runtime.Runtime, cfg Config) *App {
	cfg = cfg.withDefaults()
	a := &App{
		rt:          rt,
		cfg:         cfg,
		grid:        make([][]float64, cfg.Localities),
		next:        make([][]float64, cfg.Localities),
		ghostTop:    make([][2][]float64, cfg.Localities),
		ghostBottom: make([][2][]float64, cfg.Localities),
		received:    make([][2]int, cfg.Localities),
		step:        make([]int, cfg.Localities),
	}
	n := cfg.RowsPerLocality * cfg.Cols
	for l := 0; l < cfg.Localities; l++ {
		a.grid[l] = make([]float64, n)
		a.next[l] = make([]float64, n)
		for par := 0; par < 2; par++ {
			a.ghostTop[l][par] = make([]float64, cfg.Cols)
			a.ghostBottom[l][par] = make([]float64, cfg.Cols)
		}
		// Initial condition: a hot spot in each block, deterministic.
		for i := range a.grid[l] {
			a.grid[l][i] = initialCell(l, i, cfg.Cols)
		}
	}
	rt.MustRegisterAction(Action, a.haloAction)
	return a
}

// initialCell gives the deterministic initial temperature of a cell.
func initialCell(l, idx, cols int) float64 {
	r := idx / cols
	c := idx % cols
	if r == 5 && c >= cols/4 && c < 3*cols/4 {
		return float64(100 + 10*l)
	}
	return float64((l*31+c)%7) * 0.5
}

// haloAction stores a received ghost chunk.
func (a *App) haloAction(ctx *runtime.Context, args []byte) ([]byte, error) {
	r := serialization.NewReader(args)
	step := int(r.Uvarint())
	side := int(r.U8())
	offset := int(r.Uvarint())
	vals := r.F64Slice()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("stencil: bad halo parcel: %w", err)
	}
	if offset+len(vals) > a.cfg.Cols {
		return nil, fmt.Errorf("stencil: halo chunk out of range: %d+%d", offset, len(vals))
	}
	l := ctx.Locality
	par := step % 2
	a.mu.Lock()
	defer a.mu.Unlock()
	if step != a.step[l] && step != a.step[l]+1 {
		return nil, fmt.Errorf("stencil: halo for step %d arrived during step %d", step, a.step[l])
	}
	dst := a.ghostTop[l][par]
	if side == sideBottom {
		dst = a.ghostBottom[l][par]
	}
	copy(dst[offset:], vals)
	a.received[l][par] += len(vals)
	return nil, nil
}

// exchange sends this locality's boundary rows to its ring neighbors as
// ChunkCells-sized parcels for the given step.
func (a *App) exchange(l, step int) error {
	L := a.cfg.Localities
	cols := a.cfg.Cols
	rows := a.cfg.RowsPerLocality
	up := (l - 1 + L) % L
	down := (l + 1) % L
	loc := a.rt.Locality(l)

	a.mu.Lock()
	top := append([]float64{}, a.grid[l][:cols]...)
	bottom := append([]float64{}, a.grid[l][(rows-1)*cols:]...)
	a.mu.Unlock()

	send := func(dst, side int, row []float64) error {
		for off := 0; off < cols; off += a.cfg.ChunkCells {
			end := off + a.cfg.ChunkCells
			if end > cols {
				end = cols
			}
			w := serialization.NewWriter(16 + 8*(end-off))
			w.Uvarint(uint64(step))
			w.U8(uint8(side))
			w.Uvarint(uint64(off))
			w.F64Slice(row[off:end])
			if err := loc.Apply(dst, Action, w.Bytes()); err != nil {
				return err
			}
		}
		return nil
	}
	// The top row goes up and becomes the upper neighbor's bottom ghost;
	// the bottom row goes down and becomes the lower neighbor's top ghost.
	if err := send(up, sideBottom, top); err != nil {
		return err
	}
	return send(down, sideTop, bottom)
}

// waitHalos blocks until both ghost rows of the step have fully arrived.
func (a *App) waitHalos(l, step int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	par := step % 2
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.received[l][par] < 2*a.cfg.Cols {
		if time.Now().After(deadline) {
			return fmt.Errorf("stencil: locality %d stalled at step %d with %d/%d ghost cells",
				l, step, a.received[l][par], 2*a.cfg.Cols)
		}
		a.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		a.mu.Lock()
	}
	return nil
}

// compute advances locality l one step using its block and ghosts.
func (a *App) compute(l, step int) {
	cfg := a.cfg
	cols, rows, alpha := cfg.Cols, cfg.RowsPerLocality, cfg.Alpha
	par := step % 2
	a.mu.Lock()
	g, nx := a.grid[l], a.next[l]
	top, bottom := a.ghostTop[l][par], a.ghostBottom[l][par]
	a.mu.Unlock()

	at := func(r, c int) float64 {
		switch {
		case r < 0:
			return top[c]
		case r >= rows:
			return bottom[c]
		default:
			return g[r*cols+c]
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			left := at(r, (c-1+cols)%cols)
			right := at(r, (c+1)%cols)
			upv := at(r-1, c)
			downv := at(r+1, c)
			center := g[r*cols+c]
			nx[r*cols+c] = center + alpha*(left+right+upv+downv-4*center)
		}
	}
	a.mu.Lock()
	a.grid[l], a.next[l] = a.next[l], a.grid[l]
	a.received[l][par] = 0
	a.step[l]++
	a.mu.Unlock()
}

// Result summarises a stencil run.
type Result struct {
	Config       Config
	Total        time.Duration
	Phases       []metrics.Phase
	Checksum     float64
	MessagesSent int64
	ParcelsSent  int64
}

// Run executes the configured number of steps on an existing app,
// recording per-step-group metrics (one phase per quarter of the run).
func (a *App) Run() (Result, error) {
	cfg := a.cfg
	res := Result{Config: cfg}
	rec := metrics.NewPhaseRecorder(a.rt)
	start := time.Now()
	phaseEvery := cfg.Steps / 4
	if phaseEvery == 0 {
		phaseEvery = cfg.Steps
	}
	for step := 0; step < cfg.Steps; step++ {
		errCh := make(chan error, cfg.Localities)
		for l := 0; l < cfg.Localities; l++ {
			go func(l int) {
				if err := a.exchange(l, step); err != nil {
					errCh <- err
					return
				}
				if err := a.waitHalos(l, step, 60*time.Second); err != nil {
					errCh <- err
					return
				}
				a.compute(l, step)
				errCh <- nil
			}(l)
		}
		for l := 0; l < cfg.Localities; l++ {
			if err := <-errCh; err != nil {
				return res, fmt.Errorf("stencil: step %d: %w", step, err)
			}
		}
		if (step+1)%phaseEvery == 0 {
			res.Phases = append(res.Phases, rec.EndPhase(fmt.Sprintf("steps ..%d", step+1)))
		}
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

// Checksum sums the whole grid.
func (a *App) Checksum() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	sum := 0.0
	for _, g := range a.grid {
		for _, v := range g {
			sum += v
		}
	}
	return sum
}

// Run executes a stencil run on a fresh runtime.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	model := cfg.CostModel
	if (model == network.CostModel{}) {
		model = network.DefaultCostModel()
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
	return app.Run()
}

// SerialReference computes the same global grid serially for Steps steps
// and returns its checksum, for verification against the distributed run.
func SerialReference(cfg Config) float64 {
	cfg = cfg.withDefaults()
	L, rows, cols, alpha := cfg.Localities, cfg.RowsPerLocality, cfg.Cols, cfg.Alpha
	total := L * rows
	g := make([]float64, total*cols)
	nx := make([]float64, total*cols)
	for l := 0; l < L; l++ {
		for i := 0; i < rows*cols; i++ {
			g[l*rows*cols+i] = initialCell(l, i, cols)
		}
	}
	for step := 0; step < cfg.Steps; step++ {
		for r := 0; r < total; r++ {
			for c := 0; c < cols; c++ {
				left := g[r*cols+(c-1+cols)%cols]
				right := g[r*cols+(c+1)%cols]
				upv := g[((r-1+total)%total)*cols+c]
				downv := g[((r+1)%total)*cols+c]
				center := g[r*cols+c]
				nx[r*cols+c] = center + alpha*(left+right+upv+downv-4*center)
			}
		}
		g, nx = nx, g
	}
	sum := 0.0
	for _, v := range g {
		sum += v
	}
	return sum
}
