// Command experiments regenerates every table in EXPERIMENTS.md: one
// experiment per paper artifact (Theorems 1–5, equations 6–7, Figure 4,
// Figure 5, Sections 3.1, 4.1 and 4.4, and the related-work baselines).
//
// Experiments run on a deterministic parallel runner: each experiment
// draws its randomness from an independent seed stream derived from
// -seed, so the tables on stdout are byte-identical for every -jobs
// value. The per-experiment timing summary goes to stderr, where it
// cannot perturb reproducible output.
//
// Observability: -trace records the instrumented experiments' channel
// uses, supervision events and kernel spans as JSONL (also
// byte-identical for every -jobs value; analyze with tracecap),
// -metrics writes the runner's per-experiment metrics in Prometheus
// text format, and -pprof captures CPU and heap profiles.
//
// Usage:
//
//	experiments [-only E3,E8] [-jobs 8] [-timeout 30s] [-seed 1]
//	            [-symbols 20000] [-coded 200] [-quanta 200000]
//	            [-ablations] [-summary=false]
//	            [-trace out.jsonl] [-metrics out.prom] [-pprof dir]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		only       = fs.String("only", "", "comma-separated experiment subset (E1..E13, A1..A5)")
		seed       = fs.Uint64("seed", 1, "master random seed (per-experiment seeds are derived streams)")
		symbols    = fs.Int("symbols", 20000, "message length for protocol simulations")
		coded      = fs.Int("coded", 200, "message length for coding experiments")
		quanta     = fs.Int("quanta", 200000, "scheduler simulation quanta")
		ablations  = fs.Bool("ablations", false, "also run the ablation studies A1..A5")
		jobs       = fs.Int("jobs", 0, "max concurrent experiments (0 = GOMAXPROCS); does not affect output")
		timeout    = fs.Duration("timeout", 0, "per-experiment wall-time limit (0 = none)")
		summary    = fs.Bool("summary", true, "print the runner timing summary to stderr")
		inject     = fs.String("inject", "", "fault-injection spec for E13's custom regime, e.g. 'outage=0.2;jam=0.1'")
		traceOut   = fs.String("trace", "", "write the instrumented experiments' JSONL trace to this file")
		metricsOut = fs.String("metrics", "", "write per-experiment runner metrics (Prometheus text) to this file")
		pprofDir   = fs.String("pprof", "", "write cpu.pprof and heap.pprof for this run into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofDir != "" {
		stop, perr := obs.StartProfiles(*pprofDir)
		if perr != nil {
			return perr
		}
		defer func() {
			if e := stop(); e != nil && err == nil {
				err = e
			}
		}()
	}
	cfg := experiments.Config{
		Symbols:      *symbols,
		CodedSymbols: *coded,
		Quanta:       *quanta,
		Seed:         *seed,
		Inject:       *inject,
	}
	var ids []string
	for _, id := range strings.Split(*only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			ids = append(ids, id)
		}
	}
	exps := experiments.Registry()
	wantAblations := *ablations
	for _, id := range ids {
		if strings.HasPrefix(id, "A") {
			wantAblations = true
		}
	}
	if wantAblations {
		exps = append(exps, experiments.AblationRegistry()...)
	}
	var traceSet *obs.TraceSet
	if *traceOut != "" {
		traceSet = obs.NewTraceSet()
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	results, err := experiments.Run(context.Background(), cfg, exps, experiments.RunOptions{
		Jobs:    *jobs,
		Timeout: *timeout,
		Only:    ids,
		Trace:   traceSet,
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	tables, err := experiments.Tables(results)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Format(os.Stdout); err != nil {
			return err
		}
	}
	if traceSet != nil {
		if err := writeFile(*traceOut, traceSet.WriteTo); err != nil {
			return err
		}
	}
	if reg != nil {
		if err := writeFile(*metricsOut, func(w io.Writer) (int64, error) { reg.WriteProm(w); return 0, nil }); err != nil {
			return err
		}
	}
	if *summary {
		if err := experiments.Summary(results).Format(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path, streams content into it, and surfaces the
// Close error (the write may be buffered by the OS).
func writeFile(path string, write func(io.Writer) (int64, error)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
