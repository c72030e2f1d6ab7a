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
//	                                  # the fixed drift scenario over
//	                                  # 10^5 sessions: 1200 clean uses
//	                                  # each, every 10th session then
//	                                  # 1200 uses under drift=0.25, in
//	                                  # batches of 400; assert
//	                                  # convergence and detection within
//	                                  # the 1200-use drift window
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
// Everything the report prints is a pure function of -sessions and
// -seed: the per-session channels and the drift walks derive from
// -seed, and the output is byte-identical at any -jobs count
// (wall-clock timing goes to a separate "timing:" line so the
// deterministic report stays diffable). Run mode reads only -sessions,
// -seed, -jobs and -assert; the scenario's sizes are constants of
// internal/session. Cluster mode reads only -seed and -assert and
// refuses every other flag.
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
		mode     = fs.String("mode", "run", "mode: run | cluster")
		sessions = fs.Int("sessions", 0, "run mode: concurrent simulated sessions (0 = default 1000)")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		jobs     = fs.Int("jobs", 0, "run mode: worker goroutines (0 = GOMAXPROCS); any value yields byte-identical output")
		assert   = fs.Bool("assert", false, "fail on any acceptance bound (run: convergence, detection, false alarms; cluster: the harness gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *mode {
	case "run":
		start := time.Now()
		rep, err := session.Run(session.LoadConfig{Sessions: *sessions, Seed: *seed, Jobs: *jobs})
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
