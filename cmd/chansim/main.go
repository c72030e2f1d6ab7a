// Command chansim runs a synchronization protocol over a simulated
// deletion–insertion covert channel and compares the measured
// information rate with the paper's analytic bounds.
//
// Usage:
//
//	chansim -proto arq     -n 4 -pd 0.25
//	chansim -proto counter -n 4 -pd 0.2 -pi 0.1
//	chansim -proto syncvar -n 4 -psender 0.5
//	chansim -proto event   -n 4 -miss 0.2
//	chansim -proto counter -n 4 -pd 0.1 -inject "outage=0.2;jam=0.1"
//	chansim -proto counter -n 4 -pd 0.1 -trace run.jsonl
//
// With -inject the channel is wrapped in the given fault-injection
// stack and the protocol runs under syncproto.RunSupervised, the
// supervision policy /v1/simulate and E13 share (per-attempt deadlines,
// bounded backoff, Counter resync); the report then carries a
// supervision block. Injection applies to the channel-backed
// protocols (arq, counter, naive, delayed); syncvar and event have no
// channel to inject into.
//
// Observability: -trace records every channel use (and, with -inject,
// the supervision state machine) as a JSONL trace — a pure function of
// the seed, so reruns are byte-identical; analyze it with tracecap.
// The report then also prints the observed (Pd, Pi, Ps) estimate with
// Wilson 95% intervals next to the assumed parameters. -metrics writes
// run counters in Prometheus text format; -pprof captures CPU and heap
// profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/syncproto"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chansim:", err)
		os.Exit(1)
	}
}

// obsSink bundles the optional observability outputs of one run.
type obsSink struct {
	tracer    *obs.Tracer
	traceFile *os.File
	rec       *obs.ChannelRecorder
	reg       *obs.Registry
	metrics   string // exposition output path; "" = disabled
	proto     string
	start     time.Time
}

// close flushes the trace, writes the metrics exposition and reports
// the observed-parameter block.
func (s *obsSink) close() error {
	if s == nil {
		return nil
	}
	if s.rec != nil && s.rec.Uses() > 0 {
		est := s.rec.Estimate()
		c := s.rec.Counts()
		fmt.Printf("observed uses:       %d (T %d, S %d, D %d, I %d, injected %d)\n",
			est.Uses, c.Transmits, c.Substitutes, c.Deletes, c.Inserts, c.Injected)
		fmt.Printf("observed Pd:         %.4f [%.4f, %.4f]\n", est.Pd, est.PdLo, est.PdHi)
		fmt.Printf("observed Pi:         %.4f [%.4f, %.4f]\n", est.Pi, est.PiLo, est.PiHi)
		fmt.Printf("observed Ps:         %.4f [%.4f, %.4f]\n", est.Ps, est.PsLo, est.PsHi)
	}
	if s.tracer != nil {
		if err := s.tracer.Close(); err != nil {
			s.traceFile.Close()
			return err
		}
		if err := s.traceFile.Close(); err != nil {
			return err
		}
	}
	if s.metrics != "" {
		if s.rec != nil {
			c := s.rec.Counts()
			kinds := s.reg.CounterVec("chansim_uses_total", "kind")
			kinds.With("transmit").Add(c.Transmits)
			kinds.With("substitute").Add(c.Substitutes)
			kinds.With("delete").Add(c.Deletes)
			kinds.With("insert").Add(c.Inserts)
			s.reg.Counter("chansim_injected_total").Add(c.Injected)
		}
		s.reg.LatencyVec("chansim_run_ms", "proto").Observe(s.proto, time.Since(s.start))
		f, err := os.Create(s.metrics)
		if err != nil {
			return err
		}
		s.reg.WriteProm(f)
		return f.Close()
	}
	return nil
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("chansim", flag.ContinueOnError)
	var (
		proto      = fs.String("proto", "counter", "protocol: arq | counter | syncvar | event | naive | delayed")
		n          = fs.Int("n", 4, "bits per symbol")
		pd         = fs.Float64("pd", 0.2, "deletion probability")
		pi         = fs.Float64("pi", 0, "insertion probability")
		ps         = fs.Float64("ps", 0, "substitution probability of a transmitted symbol")
		psender    = fs.Float64("psender", 0.5, "sender activation probability (syncvar)")
		miss       = fs.Float64("miss", 0.2, "per-tick miss probability (event)")
		delay      = fs.Int("delay", 1, "feedback latency in channel uses (delayed)")
		symbols    = fs.Int("symbols", 50000, "message length in symbols")
		seed       = fs.Uint64("seed", 1, "random seed")
		inject     = fs.String("inject", "", "fault-injection spec, e.g. 'outage=0.2;jam=0.1'; runs the protocol supervised")
		traceOut   = fs.String("trace", "", "write a JSONL channel-use trace to this file (analyze with tracecap)")
		metricsOut = fs.String("metrics", "", "write run metrics (Prometheus text) to this file")
		pprofDir   = fs.String("pprof", "", "write cpu.pprof and heap.pprof for this run into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 || *n > 16 {
		return fmt.Errorf("symbol width %d out of [1,16]", *n)
	}
	if *symbols < 1 {
		return fmt.Errorf("message length %d, want >= 1", *symbols)
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
	sink := &obsSink{metrics: *metricsOut, proto: *proto, start: time.Now()}
	if *metricsOut != "" {
		sink.reg = obs.NewRegistry()
	}
	if *traceOut != "" {
		f, cerr := os.Create(*traceOut)
		if cerr != nil {
			return cerr
		}
		sink.tracer = obs.NewTracer(f)
		sink.traceFile = f
	}

	if *inject != "" && (*proto == "syncvar" || *proto == "event") {
		return fmt.Errorf("-inject applies to channel-backed protocols (arq, counter, naive, delayed); %q has no channel to inject into", *proto)
	}
	msg := make([]uint32, *symbols)
	src := rng.New(*seed + 1)
	for i := range msg {
		msg[i] = src.Symbol(*n)
	}

	var (
		res    syncproto.Result
		params = channel.Params{N: *n, Pd: *pd, Pi: *pi, Ps: *ps}
	)
	switch *proto {
	case "arq", "counter", "naive", "delayed":
		// The ARQ analyses assume a deletion-only, noiseless channel;
		// hostility is injected on top of it.
		chParams := params
		if *proto == "arq" || *proto == "delayed" {
			if *pi != 0 {
				return fmt.Errorf("proto %s analyzes a deletion-only channel; pi must be 0, got %v", *proto, *pi)
			}
			chParams.Ps = 0
		}
		if *inject == "" && *pd == 1 && *proto != "naive" {
			return fmt.Errorf("-pd 1 deletes every use, so unsupervised %s never delivers a symbol and never returns; add -inject to run it under supervision", *proto)
		}
		ch, cerr := channel.NewDeletionInsertion(chParams, rng.New(*seed))
		if cerr != nil {
			return cerr
		}
		var (
			use      channel.UseChannel = ch
			spec     faultinject.Spec
			stack    *faultinject.Stack
			injected func() int64
		)
		if *inject != "" {
			if spec, cerr = faultinject.ParseSpec(*inject); cerr != nil {
				return cerr
			}
			if stack, cerr = spec.Build(ch, *n, rng.NewStream(*seed, 2)); cerr != nil {
				return cerr
			}
			use, injected = stack, stack.Injected
		}
		if sink.tracer != nil || sink.metrics != "" {
			if sink.rec, cerr = obs.NewChannelRecorder(use, sink.tracer, injected); cerr != nil {
				return cerr
			}
			use = sink.rec
		}
		if stack != nil {
			sres, rerr := syncproto.RunSupervised(*proto, use, *n, *delay,
				syncproto.SupervisorConfig{Tracer: sink.tracer}, msg)
			if rerr != nil {
				return rerr
			}
			stack.EmitSummary(sink.tracer)
			printSupervised(*proto, spec, *n, sres, stack.Injected())
			return sink.close()
		}
		p, cerr := syncproto.NewProtocol(*proto, use, *n, *delay)
		if cerr != nil {
			return cerr
		}
		res, err = p.Run(msg)
	case "syncvar":
		sv, cerr := syncproto.NewSyncVar(*n, *psender, rng.New(*seed))
		if cerr != nil {
			return cerr
		}
		res, err = sv.Run(msg)
	case "event":
		ce, cerr := syncproto.NewCommonEvent(*n, *miss, *miss, rng.New(*seed))
		if cerr != nil {
			return cerr
		}
		res, err = ce.Run(msg)
	default:
		return fmt.Errorf("unknown protocol %q (want arq, counter, syncvar, event, naive or delayed)", *proto)
	}
	if err != nil {
		return err
	}

	fmt.Printf("protocol:            %s\n", *proto)
	fmt.Printf("message symbols:     %d (N = %d bits)\n", res.MessageSymbols, *n)
	fmt.Printf("channel uses:        %d\n", res.Uses)
	fmt.Printf("sender operations:   %d\n", res.SenderOps)
	fmt.Printf("delivered slots:     %d\n", res.Delivered)
	fmt.Printf("slot errors:         %d (rate %.4f)\n", res.SymbolErrors, res.ErrorRate())
	fmt.Printf("skipped symbols:     %d\n", res.SkippedSymbols)
	fmt.Printf("measured rate:       %.4f bits/use (%.4f bits/sender-op)\n",
		res.InfoRatePerUse(), res.InfoRatePerSenderOp())

	if *proto == "arq" || *proto == "counter" {
		b, berr := core.ComputeBounds(params)
		if berr != nil {
			return berr
		}
		fmt.Printf("Theorem 1/4 upper:   %.4f bits/use\n", b.Upper)
		fmt.Printf("Theorem 5 lower:     %.4f (paper norm.), %.4f (per-use)\n", b.LowerT5, b.LowerPerUse)
		if sink.rec != nil && sink.rec.Uses() > 0 {
			est := sink.rec.Estimate()
			obsParams := channel.Params{N: *n, Pd: est.Pd, Pi: est.Pi, Ps: est.Ps}
			if obsParams.Validate() == nil {
				if ob, oerr := core.ComputeBounds(obsParams); oerr == nil {
					fmt.Printf("observed upper:      %.4f bits/use (bounds at the trace-estimated parameters)\n", ob.Upper)
				}
			}
		}
	}
	return sink.close()
}

// printSupervised reports a supervised run (-inject).
func printSupervised(proto string, spec faultinject.Spec, n int, res syncproto.SupervisedResult, injected int64) {
	fmt.Printf("protocol:            %s (supervised)\n", proto)
	fmt.Printf("fault spec:          %s\n", spec)
	fmt.Printf("message symbols:     %d (N = %d bits)\n", res.MessageSymbols, n)
	fmt.Printf("channel uses:        %d (injected faults: %d)\n", res.Uses, injected)
	fmt.Printf("delivered slots:     %d\n", res.Delivered)
	fmt.Printf("slot errors:         %d (rate %.4f)\n", res.SymbolErrors, res.ErrorRate())
	fmt.Printf("measured rate:       %.4f bits/use\n", res.InfoRatePerUse())
	fmt.Printf("supervision status:  %s\n", res.Status)
	fmt.Printf("chunks:              %d (failed: %d)\n", res.Chunks, res.FailedChunks)
	fmt.Printf("attempts:            %d (retries: %d, backoff uses: %d)\n",
		res.Attempts, res.Retries, res.BackoffUses)
	fmt.Printf("resyncs:             %d\n", res.Resyncs)
}
