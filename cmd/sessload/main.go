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
//	sessload -mode cluster -assert    # 3-node sharded cluster: ingest
//	                                  # through every node, kill and
//	                                  # restart a session owner
//	                                  # mid-run, assert single
//	                                  # ownership, honest 502s during
//	                                  # the outage, and full recovery
//
// Everything the report prints is a pure function of the flags: the
// per-session channels, the drift walks, and the batch schedule all
// derive from -seed, and the output is byte-identical at any -jobs
// count (wall-clock timing goes to a separate "timing:" line so the
// deterministic report stays diffable).
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
		sessions  = fs.Int("sessions", 0, "concurrent simulated sessions (0 = the mode's default: 1000 in run mode, 48 in cluster mode)")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		jobs      = fs.Int("jobs", 0, "worker goroutines (0 = GOMAXPROCS); any value yields byte-identical output")
		cleanUses = fs.Int("clean-uses", 0, "uses per session before drift onset (0 = default 1200)")
		driftUses = fs.Int("drift-uses", 0, "uses per drifted session after onset (0 = default 1200)")
		driftEvr  = fs.Int("drift-every", 0, "every k-th session drifts (0 = default 10, negative = no drift)")
		inject    = fs.String("inject", "", "faultinject spec for the drift regime (default drift=0.25)")
		batch     = fs.Int("batch", 0, "events per ingest batch (0 = default 400)")
		maxDelay  = fs.Int64("max-delay", 0, "assert: max allowed detection delay in uses (0 = drift window)")
		assert    = fs.Bool("assert", false, "fail on any acceptance bound (convergence, detection, false alarms)")

		clusterFlag = fs.String("cluster", "n1,n2,n3", "cluster mode: comma-separated member names")
		rounds      = fs.Int("rounds", 0, "cluster mode: batch rounds per session (0 = default 9)")
		perBatch    = fs.Int("events-per-batch", 0, "cluster mode: events per batch (0 = default 40)")
		killAfter   = fs.Int("kill-after", 0, "cluster mode: kill a node before this round (0 = rounds/3, negative = no fault)")
		restart     = fs.Int("restart-after", 0, "cluster mode: restart the killed node before this round (0 = 2*rounds/3, negative = leave it down)")
		killNode    = fs.String("kill-node", "", "cluster mode: member to kill (default: middle of sorted names)")
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
		var names []string
		for _, n := range strings.Split(*clusterFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) < 2 {
			return fmt.Errorf("-cluster %q names fewer than 2 members", *clusterFlag)
		}
		rep, err := cluster.RunSessionHarness(cluster.SessionHarnessOptions{
			Nodes:          names,
			Sessions:       *sessions,
			Rounds:         *rounds,
			EventsPerBatch: *perBatch,
			Seed:           *seed,
			KillNode:       *killNode,
			KillAfter:      *killAfter,
			RestartAfter:   *restart,
			Out:            out,
		})
		if err != nil {
			return err
		}
		rep.Format(out)
		if *assert {
			if err := rep.Assert(); err != nil {
				return err
			}
			fmt.Fprintln(out, "cluster-assert: session ownership, outage honesty and recovery all hold")
		}
		return nil

	default:
		return fmt.Errorf("unknown mode %q (want run or cluster)", *mode)
	}
}
