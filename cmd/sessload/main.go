// Command sessload is the deterministic load generator and acceptance
// gate for the streaming session subsystem (internal/session): it
// simulates large populations of concurrent covert-channel sessions
// from seeded Definition 1 channel models, injects a mid-run drift
// regime through the faultinject stack, and asserts that the online
// estimators converge to the planted parameters and the change-point
// detector flags the drift within a bounded delay.
//
// Modes:
//
//	sessload -mode run -sessions 100000 -assert
//	                                  # simulate 10^5 sessions, drift a
//	                                  # tenth of them, assert
//	                                  # convergence/detection
//	sessload -mode cluster -assert    # the fixed session fault
//	                                  # scenario: a 3-node sharded
//	                                  # cluster, 48 sessions x 9 rounds
//	                                  # x 40 events ingested through
//	                                  # every node, session owner n2
//	                                  # killed before round 3 and
//	                                  # restarted before round 6; assert
//	                                  # single ownership, honest 502s
//	                                  # for writes and reads during the
//	                                  # outage, and every event applied
//	                                  # exactly once
//
// Everything the report prints is a pure function of the flags: the
// per-session channels, the drift walks, and the batch schedule all
// derive from -seed, and the output is byte-identical at any -jobs
// count (wall-clock timing goes to a separate "timing:" line so the
// deterministic report stays diffable). Cluster mode reads only -seed
// and -assert and refuses every other flag.
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/session"

	"flag"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sessload:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("sessload", flag.ContinueOnError)
	var (
		mode      = fs.String("mode", "run", "mode: run | cluster")
		sessions  = fs.Int("sessions", 0, "run mode: concurrent simulated sessions (0 = default 1000)")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		jobs      = fs.Int("jobs", 0, "run mode: worker goroutines (0 = GOMAXPROCS); any value yields byte-identical output")
		cleanUses = fs.Int("clean-uses", 0, "run mode: uses per session before drift onset (0 = default 1200)")
		driftUses = fs.Int("drift-uses", 0, "run mode: uses per drifted session after onset (0 = default 1200)")
		driftEvr  = fs.Int("drift-every", 0, "run mode: every k-th session drifts (0 = default 10, negative = no drift)")
		inject    = fs.String("inject", "", "run mode: faultinject spec for the drift regime (default drift=0.25)")
		batch     = fs.Int("batch", 0, "run mode: events per ingest batch (0 = default 400)")
		maxDelay  = fs.Int64("max-delay", 0, "run mode: assert's max allowed detection delay in uses (0 = drift window)")
		assert    = fs.Bool("assert", false, "fail on any acceptance bound (run: convergence, detection, false alarms; cluster: the harness gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *mode {
	case "run":
		cfg := session.LoadConfig{
			Sessions:       *sessions,
			Seed:           *seed,
			Jobs:           *jobs,
			CleanUses:      *cleanUses,
			DriftUses:      *driftUses,
			DriftEvery:     *driftEvr,
			Inject:         *inject,
			Batch:          *batch,
			MaxDetectDelay: *maxDelay,
		}
		start := time.Now()
		rep, err := session.Run(cfg)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		rep.Format(out)
		fmt.Fprintf(out, "timing: wall=%v events/s=%.0f\n",
			wall.Round(time.Millisecond), float64(rep.EventsTotal)/wall.Seconds())
		if *assert {
			if err := rep.Assert(); err != nil {
				return err
			}
			fmt.Fprintln(out, "sessload-assert: convergence, drift detection and false-alarm bounds all hold")
		}
		return nil

	case "cluster":
		var unread []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mode", "seed", "assert":
			default:
				unread = append(unread, "-"+f.Name)
			}
		})
		if len(unread) > 0 {
			return fmt.Errorf("cluster mode runs one fixed scenario and reads no %s", strings.Join(unread, ", "))
		}
		rep, err := cluster.RunSessionHarness(cluster.SessionHarnessOptions{Seed: *seed, Out: out})
		if err != nil {
			return err
		}
		rep.Format(out)
		if *assert {
			if err := rep.Assert(); err != nil {
				return err
			}
			fmt.Fprintln(out, "cluster-assert: session ownership, outage honesty, exactly-once ingest and recovery all hold")
		}
		return nil

	default:
		return fmt.Errorf("unknown mode %q (want run or cluster)", *mode)
	}
}
