package experiments

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/syncproto"
)

// E13HostileRegimes measures how the synchronization protocols degrade
// when the channel stops being the stationary, exactly-known object
// the paper (and every other experiment here) assumes. Each protocol
// runs under syncproto.Supervisor — per-attempt deadlines in channel
// uses, bounded deterministic backoff, Counter-based resync on
// divergence — over fault-injected channels: outage windows (Pd -> 1)
// at several duty fractions and parameter drift at several magnitudes.
//
// The point is graceful degradation: under every regime every
// protocol must finish with an honestly reported (lower) rate and a
// Degraded status rather than wedging or erroring. The degradation
// curves quantify how much rate each synchronization mechanism loses
// per unit of hostility.
func E13HostileRegimes(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:    "E13",
		Title: "hostile regimes: supervised protocol degradation under fault injection",
		Header: []string{
			"proto", "regime", "status", "attempts", "retries", "resyncs",
			"rate(b/use)", "vs-clean",
		},
		Notes: []string{
			"clean rows calibrate each protocol's supervised rate on the stationary channel;",
			"expected shape: rates fall monotonically with outage fraction / drift magnitude,",
			"status turns degraded (never failed/error) and vs-clean ~ (1-fraction) for the",
			"feedback protocols; supervised naive converges to the counter fallback's rate",
		},
	}

	type regime struct {
		name string
		spec string // faultinject spec; "" = clean calibration run
	}
	regimes := []regime{
		{"clean", ""},
		{"outage=0.1", "outage=0.1"},
		{"outage=0.2", "outage=0.2"},
		{"outage=0.4", "outage=0.4"},
		{"drift=0.05", "drift=0.05"},
		{"drift=0.15", "drift=0.15"},
	}
	if cfg.Inject != "" {
		if _, err := faultinject.ParseSpec(cfg.Inject); err != nil {
			return Table{}, err
		}
		regimes = append(regimes, regime{"custom:" + cfg.Inject, cfg.Inject})
	}

	protos := []string{"naive", "arq", "delayedarq", "counter", "event"}
	for pi, proto := range protos {
		cleanRate := 0.0
		for ri, reg := range regimes {
			// Every cell draws from its own stream of the experiment
			// seed, so rows are independent and the table is a pure
			// function of cfg.Seed.
			src := rng.NewStream(cfg.Seed, uint64(1+pi*100+ri))
			cfg.Tracer.Event("cell", obs.S("proto", proto), obs.S("regime", reg.name))
			res, err := runHostileCell(cfg, proto, reg.spec, cleanRate, src)
			if err != nil {
				return Table{}, err
			}
			t.Uses += int64(res.Uses)
			rate := res.InfoRatePerUse()
			if reg.spec == "" {
				cleanRate = rate
			}
			ratio := "-"
			if reg.spec != "" && cleanRate > 0 {
				ratio = f3(rate / cleanRate)
			}
			t.Rows = append(t.Rows, []string{
				proto, reg.name, res.Status.String(),
				fmt.Sprint(res.Attempts), fmt.Sprint(res.Retries), fmt.Sprint(res.Resyncs),
				f4(rate), ratio,
			})
		}
	}
	return t, nil
}

// runHostileCell runs one (protocol, regime) cell under the shared
// supervision policy. cleanRate is the clean calibration information
// rate (bits per use); a hostile run achieving less than 90% of it is
// reported Degraded even if it needed no retries — honest reporting of
// a quietly degraded channel. It is 0 for the calibration run itself.
func runHostileCell(cfg Config, proto, spec string, cleanRate float64, src *rng.Source) (syncproto.SupervisedResult, error) {
	const (
		n     = 4
		delay = 2
	)
	msg := make([]uint32, cfg.Symbols)
	msgSrc := src.Split()
	for i := range msg {
		msg[i] = msgSrc.Symbol(n)
	}
	scfg := syncproto.SupervisorConfig{DegradedRateFloor: 0.9 * cleanRate, Tracer: cfg.Tracer}

	parsed, err := faultinject.ParseSpec(spec)
	if err != nil {
		return syncproto.SupervisedResult{}, err
	}

	// The common-event mechanism has no channel to inject faults into:
	// its non-synchrony lives in the per-tick miss probabilities. An
	// outage (neither party scheduled) or drift of magnitude m maps to
	// an extra per-tick miss of the regime's total magnitude. Without a
	// channel there is no meter, so no attempt deadline either.
	if proto == "event" {
		miss := 0.05
		for _, item := range parsed {
			miss = 1 - (1-miss)*(1-item.Value)
		}
		ce, err := syncproto.NewCommonEvent(n, miss, miss, src.Split())
		if err != nil {
			return syncproto.SupervisedResult{}, err
		}
		sup, err := syncproto.NewSupervisor(ce, nil, nil, scfg)
		if err != nil {
			return syncproto.SupervisedResult{}, err
		}
		return sup.Run(msg)
	}

	// Channel-backed protocols: base channel -> fault stack -> meter.
	// The table labels delayed ARQ "delayedarq".
	if proto == "delayedarq" {
		proto = "delayed"
	}
	params := channel.Params{N: n, Pd: 0.05, Pi: 0.02}
	if proto == "arq" || proto == "delayed" {
		// The ARQ analysis assumes a deletion-only channel; hostility
		// is then injected on top of it.
		params.Pi = 0
	}
	base, err := channel.NewDeletionInsertion(params, src.Split())
	if err != nil {
		return syncproto.SupervisedResult{}, err
	}
	stack, err := parsed.Build(base, n, src.Split())
	if err != nil {
		return syncproto.SupervisedResult{}, err
	}
	// Per-use event recording sits between the fault stack and the
	// meter, attributing each use to the stack's injected-override
	// count. The recorder is wrapped in only when tracing, so the
	// disabled hot path is the bare stack.
	var ch channel.UseChannel = stack
	if cfg.Tracer != nil {
		if ch, err = obs.NewChannelRecorder(stack, cfg.Tracer, stack.Injected); err != nil {
			return syncproto.SupervisedResult{}, err
		}
	}
	res, err := syncproto.RunSupervised(proto, ch, n, delay, scfg, msg)
	if err != nil {
		return res, err
	}
	// Close the cell with the fault layers' final injected counts.
	stack.EmitSummary(cfg.Tracer)
	return res, nil
}
