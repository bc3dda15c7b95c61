// Stencil demo: a 2-D heat-diffusion solver with fine-grained halo
// exchange — a third communication pattern (nearest-neighbor ring) beyond
// the paper's two applications. The run compares no coalescing, a static
// choice, and the adaptive overhead tuner on identical workloads, and
// verifies every variant against the serial reference solver.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/adaptive"
	"repro/internal/apps/stencil"
	"repro/internal/coalescing"
	"repro/internal/runtime"
)

func main() {
	cfg := stencil.Config{
		Localities:      3,
		RowsPerLocality: 16,
		Cols:            96,
		Steps:           80,
		ChunkCells:      4,
	}
	want := stencil.SerialReference(cfg)
	fmt.Printf("2-D heat stencil: %d×%d per locality × %d localities, %d steps, %d-cell halo chunks\n",
		cfg.RowsPerLocality, cfg.Cols, cfg.Localities, cfg.Steps, cfg.ChunkCells)
	fmt.Printf("serial reference checksum: %.6f\n\n", want)
	fmt.Printf("%-28s %12s %10s %12s %10s\n", "variant", "total", "n_oh", "messages", "correct")

	run := func(name string, params coalescing.Params, tune bool) {
		rt := runtime.New(runtime.Config{
			Localities:         cfg.Localities,
			WorkersPerLocality: 4,
		})
		defer rt.Shutdown()
		app := stencil.NewApp(rt, cfg)
		if err := rt.EnableCoalescing(stencil.Action, params); err != nil {
			log.Fatal(err)
		}
		var tuner *adaptive.MultiTuner
		if tune {
			tuner = adaptive.NewMultiTuner(rt, stencil.Action, adaptive.MultiTunerConfig{
				SampleInterval: 25 * time.Millisecond,
				MaxNParcels:    64,
			})
			tuner.Start()
			defer tuner.Stop()
		}
		res, err := app.Run()
		if err != nil {
			log.Fatal(err)
		}
		oh := 0.0
		for _, p := range res.Phases {
			oh += p.NetworkOverhead()
		}
		if len(res.Phases) > 0 {
			oh /= float64(len(res.Phases))
		}
		correct := "yes"
		if res.Checksum != want {
			correct = "NO"
		}
		suffix := ""
		if tune {
			final, _ := rt.CoalescingParams(stencil.Action)
			suffix = fmt.Sprintf("  (tuner settled at nparcels=%d after %d decisions)",
				final.NParcels, len(tuner.Decisions()))
		}
		fmt.Printf("%-28s %12v %10.4f %12d %10s%s\n",
			name, res.Total.Round(time.Millisecond), oh, res.MessagesSent, correct, suffix)
	}

	run("no coalescing", coalescing.Params{NParcels: 1, Interval: 2 * time.Millisecond}, false)
	run("static nparcels=16", coalescing.Params{NParcels: 16, Interval: 2 * time.Millisecond}, false)
	run("adaptive (start at 1)", coalescing.Params{NParcels: 1, Interval: 2 * time.Millisecond}, true)
}
