package syncproto

import "fmt"

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

// RunSupervised transfers msg with the named protocol (see NewProtocol)
// over ch under the supervision policy, with cfg's rate floor and
// tracer. ch is wrapped in a UseMeter, and a Counter over the same
// meter is the resync fallback.
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
	sup, err := NewSupervisor(active, resync, meter, cfg)
	if err != nil {
		return SupervisedResult{}, err
	}
	return sup.Run(msg)
}
