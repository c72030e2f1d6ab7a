// Command capserverd serves the repository's capacity-estimation
// kernels over HTTP (see internal/capserver and DESIGN.md §8):
// /v1/bounds, /v1/predict, /v1/simulate, /v1/experiments, plus
// /healthz, /v1/healthz, /v1/readyz, /metrics, /v1/health/alerts and
// /debug/pprof. The alert engine samples the registry every
// -health-tick and evaluates its rules (-health-rules overrides the
// built-in set; watch the fleet with cmd/capwatch).
//
// Usage:
//
//	capserverd -addr 127.0.0.1:8080
//	capserverd -addr 127.0.0.1:0 -workers 8 -queue 128 -cache 4096
//
// With -cluster the daemon joins a static capserver cluster (DESIGN.md
// §11): shardable requests it does not own are forwarded to their
// owner on a consistent-hash ring, with hedging, bounded retry and
// degradation to local compute; -store points every member at a shared
// content-addressed result store so any node serves any cached point
// without a hop and a restarted node warm-starts from disk:
//
//	capserverd -addr 127.0.0.1:8081 -self n1 -store /var/cache/capest \
//	           -cluster n1=http://10.0.0.1:8081,n2=http://10.0.0.2:8081,n3=http://10.0.0.3:8081
//
// SIGINT/SIGTERM trigger a graceful shutdown: /v1/readyz flips to 503
// immediately, the listener closes, in-flight requests complete
// (bounded by -drain), and every admitted computation finishes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/capserver"
	"repro/internal/cluster"
	"repro/internal/health"
	"repro/internal/obs"
)

// onListen, when non-nil, observes the bound address (tests hook it to
// learn the ephemeral port).
var onListen func(net.Addr)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "capserverd:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled, then shuts down gracefully.
func run(ctx context.Context, args []string, logw *os.File) error {
	fs := flag.NewFlagSet("capserverd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		workers = fs.Int("workers", 0, "compute workers (0 = GOMAXPROCS)")
		queue   = fs.Int("queue", 64, "compute queue depth (full queue => 429)")
		cache   = fs.Int("cache", 1024, "LRU result cache entries")
		timeout = fs.Duration("timeout", 30*time.Second, "per-request deadline")
		drain   = fs.Duration("drain", 30*time.Second, "graceful shutdown budget")
		maxSym  = fs.Int("max-symbols", 200000, "largest simulate/trace message length served (experiments cap at 20000)")

		sessTTL = fs.Duration("session-ttl", 0, "evict streaming sessions idle this long (0 = default 15m, negative = never)")
		maxSess = fs.Int("max-sessions", 0, "cap on concurrently live streaming sessions (0 = default 1<<20)")

		healthTick  = fs.Duration("health-tick", 5*time.Second, "alert-engine sampling interval (0 or negative = no background ticks)")
		healthRules = fs.String("health-rules", "", "alert rule file (empty = built-in default rules; see internal/health)")

		storeDir    = fs.String("store", "", "content-addressed result store directory (shared across cluster members)")
		clusterFlag = fs.String("cluster", "", "static cluster membership: n1=http://host1:8081,n2=http://host2:8081,...")
		self        = fs.String("self", "", "this node's member name within -cluster")
		hedgeDelay  = fs.Duration("hedge-delay", 0, "forwarding hedge delay (0 = default, negative = no hedging)")
		peerBackoff = fs.Duration("peer-backoff", 0, "base backoff between peer retries (0 = default)")
		traceFile   = fs.String("trace", "", "append request-trace JSONL here (cluster mode; analyze with capstat)")
		traceSeed   = fs.Uint64("trace-seed", 1, "trace-ID incarnation seed; bump on every restart of this member")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Zero selects a size's default; a negative one is a mistake, not
	// another way to say zero. (-session-ttl, -health-tick and
	// -hedge-delay give negatives a meaning of their own.)
	for _, name := range []string{"workers", "queue", "cache", "max-symbols", "max-sessions", "timeout"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return fmt.Errorf("-%s %s is negative", name, v)
		}
	}
	if (*clusterFlag == "") != (*self == "") {
		return fmt.Errorf("-cluster and -self must be set together")
	}
	if *traceFile != "" && *clusterFlag == "" {
		return fmt.Errorf("-trace records cluster request spans and needs -cluster")
	}

	// User-supplied rules are parsed and validated here, where the
	// error can name the file and line; capserver.New would only be
	// able to panic.
	var rules []*health.Rule
	if *healthRules != "" {
		raw, err := os.ReadFile(*healthRules)
		if err != nil {
			return err
		}
		rules, err = health.ParseRules(string(raw))
		if err != nil {
			return fmt.Errorf("%s: %w", *healthRules, err)
		}
		probeTick := *healthTick
		if probeTick <= 0 {
			probeTick = 5 * time.Second
		}
		if _, err := health.NewEngine(health.Config{
			Rules:        rules,
			TickInterval: probeTick,
		}); err != nil {
			return fmt.Errorf("%s: %w", *healthRules, err)
		}
		fmt.Fprintf(logw, "capserverd: %d alert rules from %s\n", len(rules), *healthRules)
	}

	cfg := cluster.ProcConfig{
		Server: capserver.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			CacheEntries:   *cache,
			RequestTimeout: *timeout,
			MaxSymbols:     *maxSym,

			SessionTTL:  *sessTTL,
			MaxSessions: *maxSess,

			HealthTick:  *healthTick,
			HealthRules: rules,
		},
		StoreDir: *storeDir,
	}
	// In cluster mode the node router sits in front of the capserver
	// mux; standalone, capserver serves itself.
	var (
		tracer   *obs.Tracer
		traceOut *os.File
	)
	if *clusterFlag != "" {
		mem, err := cluster.ParseMembership(*clusterFlag)
		if err != nil {
			return err
		}
		if *traceFile != "" {
			traceOut, err = os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer traceOut.Close() // error paths; the drain below checks Close
			tracer = obs.NewTracer(traceOut)
			fmt.Fprintf(logw, "capserverd: tracing requests to %s (seed %d)\n", *traceFile, *traceSeed)
		}
		cfg.Cluster = cluster.Config{
			Self:        *self,
			Membership:  mem,
			HedgeDelay:  *hedgeDelay,
			PeerBackoff: *peerBackoff,
			Tracer:      tracer,
			TraceSeed:   *traceSeed,
		}
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	p, err := cluster.StartProc(l, cfg)
	if err != nil {
		return err
	}
	if p.Store != nil {
		fmt.Fprintf(logw, "capserverd: result store at %s\n", p.Store.Dir())
	}
	if p.Node != nil {
		fmt.Fprintf(logw, "capserverd: cluster member %s of %v\n", *self, cfg.Cluster.Membership.Names())
	}
	fmt.Fprintf(logw, "capserverd: listening on http://%s\n", l.Addr())
	if onListen != nil {
		onListen(l.Addr())
	}

	// A Serve failure before the signal ends the run with its error.
	select {
	case <-p.Done():
	case <-ctx.Done():
		fmt.Fprintf(logw, "capserverd: shutting down (draining up to %v)\n", *drain)
	}
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = p.Shutdown(sctx)
	if traceOut != nil {
		// The tracer buffers spans and keeps its first write error, so
		// only a checked flush and close tell whether the trace is whole.
		err = errors.Join(err, tracer.Flush(), traceOut.Close())
	}
	return err
}
