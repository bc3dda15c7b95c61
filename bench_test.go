package amc_test

// One benchmark per table/figure of the paper's evaluation. Each bench
// runs the corresponding experiment at quick scale (the same code paths
// as cmd/amc-repro, which runs them at the default/full scales) and
// reports the figure's headline quantity as a custom metric alongside the
// usual ns/op:
//
//	BenchmarkTimerAccuracy        — §II-B flush-timer firing error (µs)
//	BenchmarkFig4ToyCorrelation   — Fig. 4 Pearson r (overhead vs time)
//	BenchmarkFig5ToyPhaseTimes    — Fig. 5 speedup of max vs no coalescing
//	BenchmarkFig6ParquetIterations— Fig. 6 best parcels-per-message
//	BenchmarkFig7ParquetCorrelation — Fig. 7 Pearson r
//	BenchmarkFig8ParquetSweep     — Fig. 8 worst/best ratio over the grid
//	BenchmarkFig9Instantaneous    — Fig. 9 overhead swing across phases
//	BenchmarkRSDStability         — §IV-C relative standard deviation (%)
//	BenchmarkAdaptiveTuner        — extension: tuned vs static-worst ratio
//	BenchmarkCoalescingStrategies — ablation: message reduction factor
//
// Micro-benchmarks for the substrates (serialization, coalescer puts,
// counter updates, timer churn, fabric sends) follow below; they isolate
// the per-message costs the macro experiments aggregate.

import (
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/coalescing"
	"repro/internal/counters"
	"repro/internal/experiment"
	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/serialization"
	"repro/internal/timer"
)

func BenchmarkTimerAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.TimerAccuracy(100)
		b.ReportMetric(float64(res.MeanError())/float64(time.Microsecond), "µs-mean-error")
	}
}

func BenchmarkFig4ToyCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig4(experiment.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Pearson, "pearson-r")
	}
}

func BenchmarkFig5ToyPhaseTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig5(experiment.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		first := res.Rows[0].Cumulative
		last := res.Rows[len(res.Rows)-1].Cumulative
		speedup := float64(first[len(first)-1]) / float64(last[len(last)-1])
		b.ReportMetric(speedup, "speedup-max-vs-none")
	}
}

func BenchmarkFig6ParquetIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig6(experiment.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.BestNParcels()), "best-nparcels")
	}
}

func BenchmarkFig7ParquetCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.ParquetGrid(experiment.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Pearson, "pearson-r")
	}
}

func BenchmarkFig8ParquetSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.ParquetGrid(experiment.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		var worst, bestT time.Duration
		bestT = 1 << 62
		for _, p := range res.Points {
			if p.AvgIteration > worst {
				worst = p.AvgIteration
			}
			if p.AvgIteration < bestT {
				bestT = p.AvgIteration
			}
		}
		b.ReportMetric(float64(worst)/float64(bestT), "worst/best")
	}
}

func BenchmarkFig9Instantaneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig9(experiment.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		run := res.Runs[1] // starts suboptimal, improves
		swing := run.Overheads[0] - run.Overheads[len(run.Overheads)-1]
		b.ReportMetric(swing, "overhead-swing")
	}
}

func BenchmarkRSDStability(b *testing.B) {
	s := experiment.QuickScale()
	s.RSDRuns = 4
	for i := 0; i < b.N; i++ {
		res, err := experiment.RSD(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RSD, "rsd-%")
	}
}

func BenchmarkAdaptiveTuner(b *testing.B) {
	s := experiment.QuickScale()
	s.ToyParcelsPerPhase = 2500
	s.ToyPhases = 3
	for i := 0; i < b.N; i++ {
		res, err := experiment.Adaptive(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.StaticWorst)/float64(res.Tuned), "worst/tuned")
	}
}

func BenchmarkCoalescingStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Strategies(experiment.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		// Message-reduction factor of the paper's scheme vs none.
		b.ReportMetric(float64(rows[0].Messages)/float64(rows[1].Messages), "msg-reduction")
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkSerializationParcelBundle(b *testing.B) {
	parcels := make([]*parcel.Parcel, 16)
	for i := range parcels {
		parcels[i] = &parcel.Parcel{
			Dest:         agas.MakeGID(1, uint64(i+1)),
			Action:       "bench/action",
			Args:         make([]byte, 64),
			Continuation: agas.MakeGID(0, uint64(i+1)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := parcel.EncodeBundle(parcels)
		if _, err := parcel.DecodeBundle(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializationComplexSlice(b *testing.B) {
	vs := make([]complex128, 512)
	for i := range vs {
		vs[i] = complex(float64(i), -float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := serialization.NewWriter(512 * 16)
		w.C128Slice(vs)
		r := serialization.NewReader(w.Bytes())
		if got := r.C128Slice(); len(got) != 512 {
			b.Fatal("bad round trip")
		}
	}
}

type nullEnqueuer struct{}

func (nullEnqueuer) EnqueueMessage(int, []*parcel.Parcel) {}

func BenchmarkCoalescerPut(b *testing.B) {
	svc := timer.NewService(timer.ServiceOptions{})
	defer svc.Stop()
	c := coalescing.New(nullEnqueuer{}, coalescing.Params{NParcels: 64, Interval: time.Second},
		coalescing.Options{TimerService: svc, Action: "bench"})
	defer c.Close()
	p := &parcel.Parcel{Dest: agas.MakeGID(1, 1), DestLocality: 1, Action: "bench"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(p)
	}
}

func BenchmarkCounterUpdates(b *testing.B) {
	raw := counters.NewRaw(counters.Path{Object: "bench", Name: "raw"})
	avg := counters.NewAverage(counters.Path{Object: "bench", Name: "avg"})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			raw.Inc()
			avg.Record(1.5)
		}
	})
}

func BenchmarkTimerStartStop(b *testing.B) {
	svc := timer.NewService(timer.ServiceOptions{})
	defer svc.Stop()
	t := svc.NewTimer(func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Start(time.Second)
		t.Stop()
	}
}

func BenchmarkSimFabricSend(b *testing.B) {
	f := network.NewSimFabric(2, network.CostModel{})
	defer f.Close()
	f.SetHandler(1, func(int, []byte) {})
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Send(0, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseBypassAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.SparseBypass(experiment.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.WithoutBypass)/float64(res.WithBypass), "nobypass/bypass")
	}
}

func BenchmarkStencilExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Stencil(experiment.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup(), "finest-chunk-speedup")
	}
}
