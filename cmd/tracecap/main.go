// Command tracecap analyzes a JSONL channel-use trace recorded by
// chansim, experiments or the capacity server (the obs tracer format):
// it tallies the Definition 1 events, re-estimates the channel
// parameters (Pd, Pi, Ps) with Wilson 95% intervals, and summarizes
// supervision activity and kernel spans found in the trace.
//
// Usage:
//
//	tracecap run.jsonl
//	tracecap < run.jsonl
//	tracecap -n 4 -pd 0.1 -pi 0.05 -ps 0.02 run.jsonl
//
// When the assumed channel parameters are given (-pd/-pi/-ps with -n),
// tracecap compares them against the trace-driven estimate — reporting
// whether the assumed point falls inside every observed interval — and
// prints the paper's capacity bounds at both parameter points, so a
// drifted or fault-injected channel shows up as an "assumed vs.
// observed" capacity gap.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracecap:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("tracecap", flag.ContinueOnError)
	var (
		n  = fs.Int("n", 0, "bits per symbol for the assumed-vs-observed bounds comparison (0 = skip)")
		pd = fs.Float64("pd", -1, "assumed deletion probability (with -n)")
		pi = fs.Float64("pi", 0, "assumed insertion probability (with -n)")
		ps = fs.Float64("ps", 0, "assumed substitution probability (with -n)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := stdin
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("want at most one trace file, got %d arguments", fs.NArg())
	}
	sum, err := obs.ReadTrace(in)
	if err != nil {
		return err
	}
	if sum.Events == 0 {
		return fmt.Errorf("empty trace")
	}

	fmt.Fprintf(out, "trace events:        %d\n", sum.Events)
	est := sum.Estimate()
	if est.Uses > 0 {
		fmt.Fprintf(out, "channel uses:        %d (T %d, S %d, D %d, I %d, injected %d)\n",
			est.Uses, sum.Transmits, sum.Substitutes, sum.Deletes, sum.Inserts, sum.Injected)
		fmt.Fprintf(out, "observed Pd:         %.4f [%.4f, %.4f]\n", est.Pd, est.PdLo, est.PdHi)
		fmt.Fprintf(out, "observed Pi:         %.4f [%.4f, %.4f]\n", est.Pi, est.PiLo, est.PiHi)
		fmt.Fprintf(out, "observed Ps:         %.4f [%.4f, %.4f]\n", est.Ps, est.PsLo, est.PsHi)
	}
	if sum.Chunks > 0 {
		// The lines chansim -inject prints for the same run.
		fmt.Fprintf(out, "chunks:              %d (failed: %d)\n", sum.Chunks, sum.FailedChunks)
		fmt.Fprintf(out, "attempts:            %d (retries: %d, backoff uses: %d)\n",
			sum.Attempts, sum.Retries, sum.BackoffUses)
		fmt.Fprintf(out, "resyncs:             %d\n", sum.Resyncs)
	}
	if len(sum.Spans) > 0 {
		names := make([]string, 0, len(sum.Spans))
		for name := range sum.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := sum.Spans[name]
			fmt.Fprintf(out, "spans %-14s %d", name+":", st.Count)
			keys := make([]string, 0, len(st.Sums))
			for k := range st.Sums {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(out, "  sum(%s)=%g", k, st.Sums[k])
			}
			fmt.Fprintln(out)
		}
	}

	if *n == 0 {
		return nil
	}
	if est.Uses == 0 {
		return fmt.Errorf("trace has no channel uses; cannot compare bounds")
	}
	if *pd < 0 {
		return fmt.Errorf("-n set without -pd; the comparison needs the assumed parameters")
	}
	assumed := channel.Params{N: *n, Pd: *pd, Pi: *pi, Ps: *ps}
	ab, err := core.ComputeBounds(assumed)
	if err != nil {
		return fmt.Errorf("assumed parameters: %w", err)
	}
	verdict := "agrees with"
	if !est.Contains(*pd, *pi, *ps) {
		verdict = "REJECTS"
	}
	fmt.Fprintf(out, "assumed (Pd,Pi,Ps):  (%.4f, %.4f, %.4f) — trace %s the assumed point\n",
		*pd, *pi, *ps, verdict)
	fmt.Fprintf(out, "assumed upper:       %.4f bits/use (lower %.4f per-use)\n", ab.Upper, ab.LowerPerUse)
	observed := channel.Params{N: *n, Pd: est.Pd, Pi: est.Pi, Ps: est.Ps}
	if err := observed.Validate(); err != nil {
		fmt.Fprintf(out, "observed bounds:     n/a (%v)\n", err)
		return nil
	}
	ob, err := core.ComputeBounds(observed)
	if err != nil {
		fmt.Fprintf(out, "observed bounds:     n/a (%v)\n", err)
		return nil
	}
	fmt.Fprintf(out, "observed upper:      %.4f bits/use (lower %.4f per-use)\n", ob.Upper, ob.LowerPerUse)
	return nil
}
