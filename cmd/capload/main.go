// Command capload is the deterministic load harness for capserverd
// (see internal/capserver): a seeded request generator with mixed
// endpoint workloads, reporting throughput, latency percentiles and
// cache hit rate.
//
// Modes:
//
//	capload -selfhost -mode smoke        # start a server in-process,
//	                                     # hit every endpoint, assert
//	                                     # 200 + valid JSON, shut down
//	capload -selfhost -mode load         # seeded mixed-workload run
//	capload -addr http://127.0.0.1:8080 -mode load -requests 2000 -c 16
//
//	capload -mode cluster -assert        # the fixed fault scenario: an
//	                                     # in-process 3-node traced
//	                                     # cluster over a shared result
//	                                     # store, 90 requests, n2 killed
//	                                     # before request 30 and
//	                                     # restarted before request 60;
//	                                     # assert byte identity vs a
//	                                     # single-node oracle, a client
//	                                     # failover, the fault counters,
//	                                     # a non-empty store,
//	                                     # post-restart convergence,
//	                                     # spans from n2 and exact
//	                                     # trace reconciliation
//	capload -mode cluster -trace-dir /tmp/run -assert
//	                                     # same run, also writing the
//	                                     # per-node span files and
//	                                     # counters.json for cmd/capstat
//
// The request sequence (endpoints, parameter points, order) is a pure
// function of -seed, so two runs against equivalent servers issue the
// same workload; in cluster mode the dispatch choices are seeded too,
// so a failing fault run replays bit-for-bit. Cluster mode reads only
// -seed, -assert and -trace-dir and refuses every other flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/capserver"
	"repro/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capload:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("capload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "base URL of a running capserverd (e.g. http://127.0.0.1:8080)")
		selfhost = fs.Bool("selfhost", false, "start a capserver in-process on an ephemeral port")
		mode     = fs.String("mode", "load", "mode: load | smoke | cluster")
		requests = fs.Int("requests", 400, "total requests (load mode)")
		conc     = fs.Int("c", 8, "concurrent client workers (load mode)")
		seed     = fs.Uint64("seed", 1, "request-sequence seed")
		unique   = fs.Int("unique", 16, "distinct parameter points per endpoint (load mode)")
		mixFlag  = fs.String("mix", "bounds=0.7,predict=0.2,simulate=0.1", "endpoint weights (load mode)")
		exactN   = fs.Int("exact-n", 0, "bounds requests carry exact_n=<v> so misses pay real compute (load mode; 0 = none)")
		workers  = fs.Int("workers", 0, "selfhost: compute workers (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 64, "selfhost: compute queue depth")
		cacheSz  = fs.Int("cache", 1024, "selfhost: LRU cache entries")

		assert   = fs.Bool("assert", false, "cluster mode: fail on any harness assertion (byte identity, fault counters, convergence, trace reconciliation)")
		traceDir = fs.String("trace-dir", "", "cluster mode: write per-node trace JSONL and counters.json here for capstat")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *mode == "cluster" {
		var unread []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mode", "seed", "assert", "trace-dir":
			default:
				unread = append(unread, "-"+f.Name)
			}
		})
		if len(unread) > 0 {
			return fmt.Errorf("cluster mode runs one fixed scenario and reads no %s", strings.Join(unread, ", "))
		}
		return runCluster(cluster.HarnessOptions{Seed: *seed, TraceDir: *traceDir, Out: out}, *assert, out)
	}

	// Zero selects a size's default; a negative one is a mistake (and
	// would make capserver.New panic under -selfhost).
	for _, name := range []string{"requests", "c", "unique", "exact-n", "workers", "queue", "cache"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return fmt.Errorf("-%s %s is negative", name, v)
		}
	}
	base := strings.TrimRight(*addr, "/")
	if *selfhost {
		if base != "" {
			return fmt.Errorf("-selfhost and -addr are mutually exclusive")
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		p, err := cluster.StartProc(l, cluster.ProcConfig{
			Server: capserver.Config{Workers: *workers, QueueDepth: *queue, CacheEntries: *cacheSz},
		})
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = p.Shutdown(ctx)
		}()
		base = p.URL()
		fmt.Fprintf(out, "selfhost server on %s\n", base)
	}
	if base == "" {
		return fmt.Errorf("need -addr or -selfhost")
	}

	switch *mode {
	case "smoke":
		if err := capserver.Smoke(base); err != nil {
			return err
		}
		fmt.Fprintln(out, "smoke: every endpoint returned 200 with valid JSON")
		return nil
	case "load":
		mix, err := parseMix(*mixFlag)
		if err != nil {
			return err
		}
		report, err := capserver.RunLoad(capserver.LoadOptions{
			BaseURL:     base,
			Requests:    *requests,
			Concurrency: *conc,
			Seed:        *seed,
			Unique:      *unique,
			Mix:         mix,
			ExactN:      *exactN,
		})
		if err != nil {
			return err
		}
		report.Format(out)
		return nil
	default:
		return fmt.Errorf("unknown mode %q (want load, smoke or cluster)", *mode)
	}
}

// runCluster drives the multi-node fault harness scenario.
func runCluster(o cluster.HarnessOptions, assert bool, out *os.File) error {
	rep, err := cluster.RunHarness(o)
	if err != nil {
		return err
	}
	rep.Format(out)
	if assert {
		if err := rep.Assert(); err != nil {
			return err
		}
		fmt.Fprintln(out, "cluster-assert: byte identity, fault counters, convergence and trace reconciliation all hold")
	}
	return nil
}

// parseMix parses "bounds=0.7,predict=0.2,simulate=0.1".
func parseMix(s string) (map[string]float64, error) {
	mix := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix item %q is not endpoint=weight", part)
		}
		name = strings.TrimSpace(name)
		switch name {
		case "bounds", "predict", "simulate":
		default:
			return nil, fmt.Errorf("mix endpoint %q unknown (want bounds, predict or simulate)", name)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix item %q: bad weight", part)
		}
		if w > 0 {
			mix[name] = w
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("mix %q selects no endpoints", s)
	}
	return mix, nil
}
