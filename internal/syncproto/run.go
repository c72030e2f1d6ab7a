package syncproto

import (
	"fmt"

	"repro/internal/channel"
)

// NewProtocol returns the named channel-backed protocol over ch with
// n-bit symbols: "arq", "counter", "naive" or "delayed" (ARQ with the
// given feedback delay, which the others ignore). It is the one
// name-to-protocol switch behind chansim, /v1/simulate, /v1/trace and
// E13.
func NewProtocol(name string, ch channel.UseChannel, n, delay int) (Protocol, error) {
	var (
		p   Protocol
		err error
	)
	switch name {
	case "arq":
		p, err = NewARQ(ch, n, 0)
	case "counter":
		p, err = NewCounter(ch, n)
	case "naive":
		p, err = NewNaive(ch, n)
	case "delayed":
		p, err = NewARQ(ch, n, delay)
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
func RunSupervised(name string, ch channel.UseChannel, n, delay int, cfg SupervisorConfig, msg []uint32) (SupervisedResult, error) {
	meter, err := NewUseMeter(ch)
	if err != nil {
		return SupervisedResult{}, err
	}
	active, err := NewProtocol(name, meter, n, delay)
	if err != nil {
		return SupervisedResult{}, err
	}
	resync, err := NewCounter(meter, n)
	if err != nil {
		return SupervisedResult{}, err
	}
	sup, err := NewSupervisor(active, resync, meter, cfg)
	if err != nil {
		return SupervisedResult{}, err
	}
	return sup.Run(msg)
}
