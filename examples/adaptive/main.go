// Adaptive tuning demo: the capability the paper's methodology targets.
// A toy-style workload starts with coalescing effectively disabled
// (1 parcel per message); a MultiTuner watches the instantaneous
// network-overhead counter and retunes the parameter while the
// application runs. The decision log shows the controller climbing toward
// heavier coalescing as the overhead falls, action-wide and for each
// destination that dominated a window.
package main

import (
	"fmt"
	"log"
	"time"

	amc "repro"
	"repro/internal/lco"
)

func main() {
	rt := amc.NewRuntime(amc.RuntimeConfig{Localities: 2, WorkersPerLocality: 4})
	defer rt.Shutdown()

	rt.MustRegisterAction("ping", func(*amc.Context, []byte) ([]byte, error) {
		return nil, nil
	})
	start := amc.CoalescingParams{NParcels: 1, Interval: 2 * time.Millisecond}
	if err := rt.EnableCoalescing("ping", start); err != nil {
		log.Fatal(err)
	}

	tuner := amc.NewMultiTuner(rt, "ping", amc.MultiTunerConfig{
		SampleInterval: 25 * time.Millisecond,
		MaxNParcels:    256,
	})
	tuner.Start()
	defer tuner.Stop()

	rec := amc.NewPhaseRecorder(rt)
	for phase := 1; phase <= 4; phase++ {
		futures := make([]*lco.Future[[]byte], 0, 6000)
		for i := 0; i < 6000; i++ {
			f, err := rt.Locality(0).Async(1, "ping", nil)
			if err != nil {
				log.Fatal(err)
			}
			futures = append(futures, f)
		}
		if err := lco.WaitAll(futures); err != nil {
			log.Fatal(err)
		}
		p := rec.EndPhase(fmt.Sprintf("phase %d", phase))
		params, _ := rt.CoalescingParams("ping")
		fmt.Printf("phase %d: wall=%-12v n_oh=%.4f  current %s\n",
			phase, p.Wall.Round(time.Microsecond), p.NetworkOverhead(), params)
	}
	tuner.Stop()

	fmt.Println("\ntuner decisions:")
	for i, d := range tuner.Decisions() {
		fmt.Printf("  %2d. %s\n", i+1, d)
	}
	// A window of only requests or only responses has one dominant
	// destination, which the tuner climbs on its own override.
	final, dests, _ := tuner.Settled()
	fmt.Printf("\nstarted at %s, settled at %s\n", start, final)
	for _, d := range tuner.TrackedDests() {
		if p, ok := dests[d]; ok {
			fmt.Printf("destination %d settled at %s\n", d, p)
		}
	}
}
