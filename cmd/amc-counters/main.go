// Command amc-counters runs a short toy workload and prints performance
// counters matching a query, mirroring HPX's --hpx:print-counter /
// --hpx:list-counters interface that the paper's methodology is built on.
// With -interval it samples the queries periodically while the workload
// runs and emits the time series as CSV instead — the analog of
// --hpx:print-counter-interval, and the raw data stream an adaptive
// controller consumes (the instantaneous measurements of the paper's
// Section IV-D).
//
// Examples:
//
//	amc-counters -list
//	amc-counters -query '/coalescing{*}/count/parcels@*'
//	amc-counters -query '/threads{locality#1}/background-overhead' -parcels 20000
//	amc-counters -histogram toy/get_cplx
//	amc-counters -interval 10ms -parcels 50000 \
//	    -query '/threads{*}/background-overhead@*' \
//	    -query '/coalescing{*}/count/messages@*' > series.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/apps/toy"
	"repro/internal/coalescing"
	"repro/internal/counters"
	"repro/internal/lco"
	"repro/internal/runtime"
)

type queryList []string

func (q *queryList) String() string     { return fmt.Sprint(*q) }
func (q *queryList) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	var queries queryList
	list := flag.Bool("list", false, "list all counter names (--hpx:list-counters)")
	flag.Var(&queries, "query", "counter query, * wildcards allowed (repeatable; default /coalescing{*}/count/parcels@*, or a sampling set with -interval)")
	histAction := flag.String("histogram", "", "print the parcel-arrival histogram for this action")
	interval := flag.Duration("interval", 0, "sample the queries at this interval while the workload runs and print CSV")
	parcels := flag.Int("parcels", 5000, "workload parcels to generate")
	nparcels := flag.Int("nparcels", 16, "coalescing queue length")
	wait := flag.Duration("wait", 2*time.Millisecond, "coalescing wait time")
	flag.Parse()
	if len(queries) == 0 {
		queries = queryList{"/coalescing{*}/count/parcels@*"}
		if *interval > 0 {
			queries = queryList{
				"/threads{*}/background-overhead@*",
				"/threads{*}/idle-rate@*",
				"/coalescing{*}/count/messages@*",
			}
		}
	}

	rt := runtime.New(runtime.Config{Localities: 2, WorkersPerLocality: 4})
	defer rt.Shutdown()
	toy.Register(rt)
	params := coalescing.Params{NParcels: *nparcels, Interval: *wait}
	if err := rt.EnableCoalescing(toy.Action, params); err != nil {
		fatal(err)
	}
	reg := rt.Counters()
	var sampler *counters.Sampler
	if *interval > 0 {
		sampler = counters.NewSampler(reg, queries, *interval)
		sampler.Start()
	}

	// Generate traffic so the counters have something to report.
	futures := make([]*lco.Future[[]byte], 0, *parcels)
	for i := 0; i < *parcels; i++ {
		f, err := rt.Locality(0).Async(1, toy.Action, nil)
		if err != nil {
			fatal(err)
		}
		futures = append(futures, f)
	}
	if err := lco.WaitAll(futures); err != nil {
		fatal(err)
	}

	switch {
	case sampler != nil:
		sampler.Stop()
		if err := sampler.WriteCSV(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sampled %d points at %v intervals\n", len(sampler.Samples()), *interval)
	case *list:
		for _, name := range reg.Discover() {
			fmt.Println(name)
		}
	case *histAction != "":
		q := fmt.Sprintf("/coalescing{*}/time/parcel-arrival-histogram@%s", *histAction)
		cs, err := reg.Query(q)
		if err != nil {
			fatal(err)
		}
		if len(cs) == 0 {
			fatal(fmt.Errorf("no histogram counters match %q", q))
		}
		for _, c := range cs {
			hc, ok := c.(*counters.HistogramCounter)
			if !ok {
				continue
			}
			fmt.Printf("%s\n%s\n", c.Path(), hc.Histogram())
		}
	default:
		for _, q := range queries {
			cs, err := reg.Query(q)
			if err != nil {
				fatal(err)
			}
			if len(cs) == 0 {
				fatal(fmt.Errorf("no counters match %q", q))
			}
			for _, c := range cs {
				fmt.Printf("%-70s [%s] %g\n", c.Path(), c.Kind(), c.Value())
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "amc-counters: %v\n", err)
	os.Exit(1)
}
