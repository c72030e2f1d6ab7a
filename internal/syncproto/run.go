package syncproto

import (
	"fmt"

	"repro/internal/obs"
)

// NewProtocol returns the named channel-backed protocol over ch with
// n-bit symbols: "arq", "counter", "naive" or "delayed". nominalPd and
// delay configure DelayedARQ and are ignored by the others. It is the
// one name-to-protocol switch behind chansim, /v1/simulate, /v1/trace
// and E13; the caveats of the Over constructors apply.
func NewProtocol(name string, ch UseChannel, n int, nominalPd float64, delay int) (Protocol, error) {
	var (
		p   Protocol
		err error
	)
	switch name {
	case "arq":
		p, err = NewARQOver(ch, n)
	case "counter":
		p, err = NewCounterOver(ch, n)
	case "naive":
		p, err = NewNaiveOver(ch, n)
	case "delayed":
		p, err = NewDelayedARQOver(ch, n, nominalPd, delay)
	default:
		return nil, fmt.Errorf("syncproto: unknown protocol %q (want arq, counter, naive or delayed)", name)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Supervision returns the supervision policy every fault-injected run
// applies: 256-symbol chunks, up to 4 attempts per chunk and protocol,
// backoff starting at 32 burned uses, and Counter fallback above a 25%
// chunk error rate. floor is the DegradedRateFloor (0 = none) and tr
// records the state machine (nil = off). The attempt deadline depends
// on the channel and protocol, so RunSupervised sets it.
func Supervision(floor float64, tr *obs.Tracer) SupervisorConfig {
	return SupervisorConfig{
		ChunkSymbols:      256,
		MaxAttempts:       4,
		BackoffBase:       32,
		ErrorThreshold:    0.25,
		DegradedRateFloor: floor,
		Tracer:            tr,
	}
}

// RunSupervised transfers msg with the named protocol (see NewProtocol)
// over ch under cfg, normally Supervision's policy. ch is wrapped in a
// UseMeter, a Counter over the same meter is the resync fallback, and
// each attempt's deadline is 8 chunks' worth of uses: a generous
// multiple of a clean chunk's cost, so only a wedged attempt (a long
// outage window, a drift excursion) is aborted and retried. DelayedARQ
// pays 1+delay uses per send, so its deadline scales by that factor.
func RunSupervised(name string, ch UseChannel, n int, nominalPd float64, delay int, cfg SupervisorConfig, msg []uint32) (SupervisedResult, error) {
	meter, err := NewUseMeter(ch)
	if err != nil {
		return SupervisedResult{}, err
	}
	active, err := NewProtocol(name, meter, n, nominalPd, delay)
	if err != nil {
		return SupervisedResult{}, err
	}
	resync, err := NewCounterOver(meter, n)
	if err != nil {
		return SupervisedResult{}, err
	}
	cfg = cfg.withDefaults()
	cfg.AttemptUses = 8 * cfg.ChunkSymbols
	if name == "delayed" {
		cfg.AttemptUses *= 1 + delay
	}
	sup, err := NewSupervisor(active, resync, meter, cfg)
	if err != nil {
		return SupervisedResult{}, err
	}
	return sup.Run(msg)
}
