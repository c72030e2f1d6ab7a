package syncproto

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/faultinject"
	"repro/internal/rng"
)

// superMsg builds a deterministic n-bit message.
func superMsg(seed uint64, symbols, n int) []uint32 {
	src := rng.New(seed)
	msg := make([]uint32, symbols)
	for i := range msg {
		msg[i] = src.Symbol(n)
	}
	return msg
}

// meteredChannel builds params -> DeletionInsertion -> UseMeter.
func meteredChannel(t *testing.T, params channel.Params, seed uint64) *UseMeter {
	t.Helper()
	ch, err := channel.NewDeletionInsertion(params, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewUseMeter(ch)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSupervisorCleanRunIsOK(t *testing.T) {
	const n = 4
	meter := meteredChannel(t, channel.Params{N: n, Pd: 0.1, Pi: 0.05}, 1)
	counter, err := NewCounterOver(meter, n)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(counter, nil, meter, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	msg := superMsg(2, 4000, n)
	res, err := sup.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK {
		t.Fatalf("status = %v (retries %d, resyncs %d, failed %d), want ok",
			res.Status, res.Retries, res.Resyncs, res.FailedChunks)
	}
	if res.Delivered != len(msg) {
		t.Errorf("delivered %d of %d symbols", res.Delivered, len(msg))
	}
	if int64(res.Uses) != meter.Total() {
		t.Errorf("aggregate uses %d != meter total %d", res.Uses, meter.Total())
	}
	if res.InfoRatePerUse() <= 0 {
		t.Errorf("info rate %v, want > 0", res.InfoRatePerUse())
	}
}

func TestSupervisorMatchesUnsupervisedOnCleanChannel(t *testing.T) {
	const n = 4
	msg := superMsg(3, 8000, n)
	params := channel.Params{N: n, Pd: 0.15, Pi: 0.05}

	plainCh, err := channel.NewDeletionInsertion(params, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewCounterOver(plainCh, n)
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := plain.Run(msg)
	if err != nil {
		t.Fatal(err)
	}

	meter := meteredChannel(t, params, 7)
	counter, err := NewCounterOver(meter, n)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(counter, nil, meter, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	supRes, err := sup.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	// Chunking changes where each chunk's rng draws land, so compare
	// rates statistically rather than exactly.
	lo, hi := plainRes.ThroughputPerUse()*0.95, plainRes.ThroughputPerUse()*1.05
	if got := supRes.ThroughputPerUse(); got < lo || got > hi {
		t.Errorf("supervised throughput %v outside 5%% of unsupervised %v", got, plainRes.ThroughputPerUse())
	}
}

func TestSupervisorFailsWhenChannelIsDead(t *testing.T) {
	const n = 4
	// Pd = 1: nothing is ever delivered; every protocol attempt must
	// hit its deadline and the run must end Failed, not hang.
	meter := meteredChannel(t, channel.Params{N: n, Pd: 1}, 4)
	arq, err := NewARQOver(meter, n)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := NewCounterOver(meter, n)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(arq, counter, meter, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 2
	msg := superMsg(5, chunks*chunkSymbols, n)
	res, err := sup.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFailed {
		t.Fatalf("status = %v, want failed", res.Status)
	}
	if res.Delivered != 0 {
		t.Errorf("delivered %d symbols over a dead channel", res.Delivered)
	}
	if res.FailedChunks != chunks {
		t.Errorf("failed chunks = %d, want %d", res.FailedChunks, chunks)
	}
	// Each chunk: maxAttempts ARQ attempts + maxAttempts fallback
	// attempts, all failed.
	if want := chunks * 2 * maxAttempts; res.Attempts != want || res.Retries != want {
		t.Errorf("attempts = %d retries = %d, want %d and %d", res.Attempts, res.Retries, want, want)
	}
	// Backoff burns 32, 64 and 128 uses between the four attempts of
	// each protocol pass, two passes per chunk.
	if want := int64(chunks * 2 * (32 + 64 + 128)); res.BackoffUses != want {
		t.Errorf("backoff uses = %d, want %d", res.BackoffUses, want)
	}
	// Every attempt runs to its deadline of attemptChunks chunks' uses.
	if want := int64(res.Attempts*attemptChunks*chunkSymbols) + res.BackoffUses; int64(res.Uses) != want {
		t.Errorf("uses = %d, want %d", res.Uses, want)
	}
}

// TestSupervisorDelayedARQDeadline checks that a delayed ARQ attempt
// gets 1+delay times the deadline: on a dead channel every attempt runs
// to it.
func TestSupervisorDelayedARQDeadline(t *testing.T) {
	const n, delay = 4, 2
	meter := meteredChannel(t, channel.Params{N: n, Pd: 1}, 4)
	darq, err := NewDelayedARQOver(meter, n, 0.5, delay)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(darq, nil, meter, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sup.Run(superMsg(5, chunkSymbols, n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFailed || res.Attempts != maxAttempts {
		t.Fatalf("status %v after %d attempts, want failed after %d", res.Status, res.Attempts, maxAttempts)
	}
	if want := int64(maxAttempts*attemptChunks*chunkSymbols*(1+delay)) + res.BackoffUses; int64(res.Uses) != want {
		t.Errorf("uses = %d, want %d", res.Uses, want)
	}
}

func TestSupervisorResyncsOnDivergence(t *testing.T) {
	const n = 4
	meter := meteredChannel(t, channel.Params{N: n, Pd: 0.1, Pi: 0.05}, 9)
	naive, err := NewNaiveOver(meter, n)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := NewCounterOver(meter, n)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(naive, counter, meter, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	msg := superMsg(10, 8000, n)
	res, err := sup.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want exactly 1 (naive diverges, counter holds)", res.Resyncs)
	}
	if res.Status != StatusDegraded {
		t.Fatalf("status = %v, want degraded", res.Status)
	}
	// The fallback must rescue the transfer: the aggregate error rate
	// has to sit far below naive's (which approaches 1 - 1/M on a
	// drifting positional read) because all but the first chunk ran
	// over the counter protocol.
	if res.ErrorRate() > 0.3 {
		t.Errorf("aggregate error rate %v: fallback did not rescue the run", res.ErrorRate())
	}
	if res.InfoRatePerUse() <= 0 {
		t.Errorf("info rate %v, want > 0", res.InfoRatePerUse())
	}
}

func TestSupervisorDegradedUnderOutage(t *testing.T) {
	const n = 4
	// runCounter builds base channel -> optional outage -> meter ->
	// counter -> supervisor and runs one supervised transfer.
	runCounter := func(outageFraction, floor float64) SupervisedResult {
		t.Helper()
		base, err := channel.NewDeletionInsertion(channel.Params{N: n, Pd: 0.05, Pi: 0.02}, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		var ch UseChannel = base
		if outageFraction > 0 {
			out, err := faultinject.NewOutage(base, faultinject.OutageConfig{Fraction: outageFraction}, rng.New(14))
			if err != nil {
				t.Fatal(err)
			}
			ch = out
		}
		meter, err := NewUseMeter(ch)
		if err != nil {
			t.Fatal(err)
		}
		counter, err := NewCounterOver(meter, n)
		if err != nil {
			t.Fatal(err)
		}
		sup, err := NewSupervisor(counter, nil, meter, SupervisorConfig{DegradedRateFloor: floor})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sup.Run(superMsg(15, 8000, n))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := runCounter(0, 0)
	if clean.Status != StatusOK {
		t.Fatalf("clean calibration run status = %v, want ok", clean.Status)
	}
	res := runCounter(0.2, 0.9*clean.InfoRatePerUse())
	if res.Status != StatusDegraded {
		t.Fatalf("status = %v under 20%% outage, want degraded (rate %v vs clean %v)",
			res.Status, res.InfoRatePerUse(), clean.InfoRatePerUse())
	}
	if res.InfoRatePerUse() <= 0 {
		t.Errorf("info rate %v under outage, want strictly positive", res.InfoRatePerUse())
	}
	if res.Delivered != 8000 {
		t.Errorf("delivered %d of 8000: outage must slow the counter protocol, not lose data", res.Delivered)
	}
}

func TestSupervisorDeterministicReplay(t *testing.T) {
	run := func() SupervisedResult {
		const n = 4
		base, err := channel.NewDeletionInsertion(channel.Params{N: n, Pd: 0.05, Pi: 0.02}, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := faultinject.ParseSpec("outage=0.3;jam=0.1")
		if err != nil {
			t.Fatal(err)
		}
		stack, err := spec.Build(base, n, rng.New(22))
		if err != nil {
			t.Fatal(err)
		}
		meter, err := NewUseMeter(stack)
		if err != nil {
			t.Fatal(err)
		}
		arq, err := NewARQOver(meter, n)
		if err != nil {
			t.Fatal(err)
		}
		counter, err := NewCounterOver(meter, n)
		if err != nil {
			t.Fatal(err)
		}
		sup, err := NewSupervisor(arq, counter, meter, SupervisorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sup.Run(superMsg(23, 4000, n))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("supervised run is not replayable:\n%+v\n%+v", a, b)
	}
}

func TestSupervisorPropagatesRealPanics(t *testing.T) {
	meter := meteredChannel(t, channel.Params{N: 4, Pd: 0.1}, 1)
	sup, err := NewSupervisor(panicProtocol{}, nil, meter, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-budget panic was swallowed by the supervisor")
		}
	}()
	sup.Run(superMsg(1, 10, 4))
}

// panicProtocol panics with a non-sentinel value.
type panicProtocol struct{}

func (panicProtocol) Run([]uint32) (Result, error) { panic("unrelated bug") }

func TestSupervisorConfigErrors(t *testing.T) {
	meter := meteredChannel(t, channel.Params{N: 4, Pd: 0.1}, 1)
	if _, err := NewSupervisor(nil, nil, meter, SupervisorConfig{}); err == nil {
		t.Error("nil protocol accepted")
	}
}

func TestSupervisorEmptyMessage(t *testing.T) {
	meter := meteredChannel(t, channel.Params{N: 4, Pd: 0.1}, 1)
	counter, err := NewCounterOver(meter, 4)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(counter, nil, meter, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sup.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOK || res.Chunks != 0 {
		t.Errorf("empty message: status %v chunks %d, want ok and 0", res.Status, res.Chunks)
	}
}
