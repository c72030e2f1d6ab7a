package syncproto

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/rng"
)

func randomMessage(seed uint64, count, width int) []uint32 {
	src := rng.New(seed)
	msg := make([]uint32, count)
	for i := range msg {
		msg[i] = src.Symbol(width)
	}
	return msg
}

func mustChannel(t *testing.T, p channel.Params, seed uint64) *channel.DeletionInsertion {
	t.Helper()
	ch, err := channel.NewDeletionInsertion(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestNewARQValidation(t *testing.T) {
	if _, err := NewARQ(nil, 2, 0); err == nil {
		t.Error("expected error for nil channel")
	}
	if _, err := NewARQ(mustChannel(t, channel.Params{N: 2}, 1), 0, 0); err == nil {
		t.Error("expected error for symbol width")
	}
}

func TestARQDeliversExactly(t *testing.T) {
	arq, err := NewARQ(mustChannel(t, channel.Params{N: 4, Pd: 0.3}, 2), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := randomMessage(3, 2000, 4)
	res, err := arq.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(msg) || res.SymbolErrors != 0 || res.SkippedSymbols != 0 {
		t.Fatalf("ARQ result %+v: want exact delivery", res)
	}
	if res.ErrorRate() != 0 {
		t.Fatalf("ARQ error rate %v, want 0", res.ErrorRate())
	}
}

func TestARQAchievesErasureCapacity(t *testing.T) {
	// Theorem 3 (experiment E2): measured information rate per channel
	// use must approach N*(1-Pd).
	for _, pd := range []float64{0, 0.1, 0.25, 0.5} {
		p := channel.Params{N: 4, Pd: pd}
		arq, err := NewARQ(mustChannel(t, p, 4), p.N, 0)
		if err != nil {
			t.Fatal(err)
		}
		msg := randomMessage(5, 20000, 4)
		res, err := arq.Run(msg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.FeedbackDeletionCapacity(p)
		if err != nil {
			t.Fatal(err)
		}
		got := res.InfoRatePerUse()
		// MI estimation bias and finite-run variance allow a few percent.
		if math.Abs(got-want) > 0.05*4 {
			t.Errorf("Pd=%v: measured rate %v, want ~%v", pd, got, want)
		}
	}
}

func TestARQRejectsInvalidSymbols(t *testing.T) {
	arq, err := NewARQ(mustChannel(t, channel.Params{N: 2}, 6), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arq.Run([]uint32{4}); err == nil {
		t.Fatal("expected alphabet error")
	}
}

// delayedRate is the rate ARQ with a feedback delay achieves,
// N(1-Pd)/(1+delay) (experiment A5).
func delayedRate(t *testing.T, p channel.Params, delay int) float64 {
	t.Helper()
	capacity, err := core.FeedbackDeletionCapacity(p)
	if err != nil {
		t.Fatal(err)
	}
	return capacity / float64(1+delay)
}

func TestNewDelayedARQValidation(t *testing.T) {
	if _, err := NewARQ(nil, 2, 1); err == nil {
		t.Error("expected error for nil channel")
	}
	if _, err := NewARQ(mustChannel(t, channel.Params{N: 2}, 1), 2, -1); err == nil {
		t.Error("expected error for negative feedback delay")
	}
	if _, err := NewARQ(mustChannel(t, channel.Params{N: 2}, 1), 2, 1); err != nil {
		t.Errorf("delay 1 over a deletion channel: %v", err)
	}
}

func TestDelayedARQMatchesPrediction(t *testing.T) {
	p := channel.Params{N: 4, Pd: 0.2}
	msg := randomMessage(4, 10000, 4)
	for _, delay := range []int{1, 3, 9} {
		a, err := NewARQ(mustChannel(t, p, uint64(5+delay)), p.N, delay)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(msg)
		if err != nil {
			t.Fatal(err)
		}
		want := delayedRate(t, p, delay)
		got := res.InfoRatePerUse()
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("delay %d: rate %v, predicted %v", delay, got, want)
		}
	}
}

// TestDelayedARQSoakPredictionAccuracy is the long-run version of the
// prediction check: at 100k symbols per cell the finite-sample noise is
// small enough that a systematic accounting bug anywhere in the
// (1+delay)-use bookkeeping — not just bad luck — is what a >5%
// deviation from N(1-Pd)/(1+delay) would mean. Skipped under -short.
func TestDelayedARQSoakPredictionAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: ~1M simulated uses per cell")
	}
	const symbols = 100000
	for _, pd := range []float64{0.1, 0.3} {
		p := channel.Params{N: 4, Pd: pd}
		for _, delay := range []int{0, 1, 2, 4, 8} {
			msg := randomMessage(uint64(31+delay), symbols, 4)
			a, err := NewARQ(mustChannel(t, p, uint64(17+delay)), p.N, delay)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Run(msg)
			if err != nil {
				t.Fatal(err)
			}
			want := delayedRate(t, p, delay)
			got := res.InfoRatePerUse()
			if dev := math.Abs(got-want) / want; dev > 0.05 {
				t.Errorf("pd %.1f delay %d: measured %.4f vs predicted %.4f (%.1f%% off, want <= 5%%)",
					pd, delay, got, want, 100*dev)
			}
			if res.SymbolErrors != 0 {
				t.Errorf("pd %.1f delay %d: %d symbol errors, ARQ must be error-free",
					pd, delay, res.SymbolErrors)
			}
		}
	}
}

func TestDelayedARQRateDecreasesWithDelay(t *testing.T) {
	p := channel.Params{N: 4, Pd: 0.1}
	msg := randomMessage(6, 5000, 4)
	prev := math.Inf(1)
	for _, delay := range []int{0, 2, 5} {
		a, err := NewARQ(mustChannel(t, p, 7), p.N, delay)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(msg)
		if err != nil {
			t.Fatal(err)
		}
		rate := res.InfoRatePerUse()
		if rate >= prev {
			t.Fatalf("rate did not decrease with delay %d: %v >= %v", delay, rate, prev)
		}
		prev = rate
	}
}

func TestDelayedARQRejectsInvalidSymbols(t *testing.T) {
	a, err := NewARQ(mustChannel(t, channel.Params{N: 2}, 9), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run([]uint32{4}); err == nil {
		t.Fatal("expected alphabet error")
	}
}

func TestNewCounterValidation(t *testing.T) {
	if _, err := NewCounter(nil, 4); err == nil {
		t.Error("expected error for nil channel")
	}
	if _, err := NewCounter(mustChannel(t, channel.Params{N: 4}, 1), 17); err == nil {
		t.Error("expected error for symbol width")
	}
}

func TestCounterDeletionOnlyMatchesARQ(t *testing.T) {
	// With Pi = 0 the counter protocol reduces to ARQ behaviour.
	p := channel.Params{N: 4, Pd: 0.2}
	c, err := NewCounter(mustChannel(t, p, 7), p.N)
	if err != nil {
		t.Fatal(err)
	}
	msg := randomMessage(8, 10000, 4)
	res, err := c.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SymbolErrors != 0 || res.SkippedSymbols != 0 {
		t.Fatalf("deletion-only counter run had errors: %+v", res)
	}
	want := 4 * (1 - p.Pd)
	if math.Abs(res.InfoRatePerUse()-want) > 0.2 {
		t.Fatalf("rate %v, want ~%v", res.InfoRatePerUse(), want)
	}
}

func TestCounterInducedSubstitutionRate(t *testing.T) {
	// Appendix A: the converted channel's substitution probability per
	// delivered slot is alpha*Pi/(1-Pd) under per-use accounting.
	p := channel.Params{N: 4, Pd: 0.2, Pi: 0.1}
	c, err := NewCounter(mustChannel(t, p, 9), p.N)
	if err != nil {
		t.Fatal(err)
	}
	msg := randomMessage(10, 40000, 4)
	res, err := c.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := core.Alpha(4) * p.Pi / (1 - p.Pd)
	if math.Abs(res.ErrorRate()-wantErr) > 0.01 {
		t.Errorf("slot error rate %v, want ~%v", res.ErrorRate(), wantErr)
	}
	if res.SkippedSymbols == 0 {
		t.Error("expected skipped symbols with Pi > 0")
	}
}

func TestCounterMeasuredRateMatchesPerUseBound(t *testing.T) {
	// Experiment E3 core claim: the protocol's measured information
	// rate per channel use matches core.LowerBoundPerUse.
	for _, tc := range []struct{ pd, pi float64 }{
		{0.1, 0.05}, {0.2, 0.1}, {0.3, 0.2},
	} {
		p := channel.Params{N: 4, Pd: tc.pd, Pi: tc.pi}
		c, err := NewCounter(mustChannel(t, p, 11), p.N)
		if err != nil {
			t.Fatal(err)
		}
		msg := randomMessage(12, 40000, 4)
		res, err := c.Run(msg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.LowerBoundPerUse(p)
		if err != nil {
			t.Fatal(err)
		}
		got := res.InfoRatePerUse()
		if math.Abs(got-want) > 0.1 {
			t.Errorf("Pd=%v Pi=%v: measured %v, want ~%v", tc.pd, tc.pi, got, want)
		}
		upper, err := core.UpperBound(p)
		if err != nil {
			t.Fatal(err)
		}
		if got > upper+0.05 {
			t.Errorf("Pd=%v Pi=%v: measured %v exceeds Theorem 1 bound %v", tc.pd, tc.pi, got, upper)
		}
	}
}

func TestCounterSenderOpNormalization(t *testing.T) {
	// The paper's Theorem 5 coefficient (1-Pd)/(1-Pi) corresponds to
	// per-sender-operation accounting; check the measured per-op rate
	// sits near the printed bound (within the small substitution-rate
	// difference documented in DESIGN.md).
	p := channel.Params{N: 8, Pd: 0.15, Pi: 0.08}
	c, err := NewCounter(mustChannel(t, p, 13), p.N)
	if err != nil {
		t.Fatal(err)
	}
	msg := randomMessage(14, 30000, 8)
	res, err := c.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := core.LowerBoundTheorem5(p)
	if err != nil {
		t.Fatal(err)
	}
	got := res.InfoRatePerSenderOp()
	if math.Abs(got-paper)/paper > 0.05 {
		t.Fatalf("per-sender-op rate %v vs paper bound %v", got, paper)
	}
}

func TestCounterRejectsInvalidSymbols(t *testing.T) {
	c, err := NewCounter(mustChannel(t, channel.Params{N: 2}, 15), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run([]uint32{9}); err == nil {
		t.Fatal("expected alphabet error")
	}
}

func TestSyncVarValidation(t *testing.T) {
	if _, err := NewSyncVar(0, 0.5, rng.New(1)); err == nil {
		t.Error("expected width error")
	}
	if _, err := NewSyncVar(4, 0, rng.New(1)); err == nil {
		t.Error("expected pSender error")
	}
	if _, err := NewSyncVar(4, 1, rng.New(1)); err == nil {
		t.Error("expected pSender error")
	}
	if _, err := NewSyncVar(4, 0.5, nil); err == nil {
		t.Error("expected nil source error")
	}
}

func TestSyncVarPerfectDelivery(t *testing.T) {
	s, err := NewSyncVar(4, 0.5, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	msg := randomMessage(17, 3000, 4)
	res, err := s.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(msg) || res.SymbolErrors != 0 {
		t.Fatalf("sync-var result %+v: want perfect delivery", res)
	}
	// Expected cost: 1/p + 1/(1-p) activations per symbol = 4 at p=0.5.
	perSymbol := float64(res.Uses) / float64(len(msg))
	if math.Abs(perSymbol-4) > 0.3 {
		t.Fatalf("activations per symbol %v, want ~4", perSymbol)
	}
}

func TestSyncVarAsymmetricScheduling(t *testing.T) {
	// Starving one side raises the cost: 1/0.1 + 1/0.9 ~ 11.1.
	s, err := NewSyncVar(4, 0.1, rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	msg := randomMessage(19, 2000, 4)
	res, err := s.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	perSymbol := float64(res.Uses) / float64(len(msg))
	if math.Abs(perSymbol-11.11) > 1 {
		t.Fatalf("activations per symbol %v, want ~11.1", perSymbol)
	}
}

func TestSyncVarRejectsInvalidSymbols(t *testing.T) {
	s, err := NewSyncVar(2, 0.5, rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]uint32{4}); err == nil {
		t.Fatal("expected alphabet error")
	}
}

func TestCommonEventValidation(t *testing.T) {
	if _, err := NewCommonEvent(0, 0, 0, rng.New(1)); err == nil {
		t.Error("expected width error")
	}
	if _, err := NewCommonEvent(4, -0.1, 0, rng.New(1)); err == nil {
		t.Error("expected missS error")
	}
	if _, err := NewCommonEvent(4, 0, 1.1, rng.New(1)); err == nil {
		t.Error("expected missR error")
	}
	if _, err := NewCommonEvent(4, 0, 0, nil); err == nil {
		t.Error("expected nil source error")
	}
}

func TestCommonEventPerfectAttendance(t *testing.T) {
	ce, err := NewCommonEvent(4, 0, 0, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	msg := randomMessage(22, 2000, 4)
	res, err := ce.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(msg) || res.SymbolErrors != 0 {
		t.Fatalf("perfect attendance result %+v", res)
	}
	if math.Abs(res.InfoRatePerUse()-4) > 0.05 {
		t.Fatalf("rate %v, want ~4", res.InfoRatePerUse())
	}
}

func TestCommonEventNeverBeatsFeedback(t *testing.T) {
	// Figure 4 / experiment E7: at matched deletion parameters the
	// common-event mechanism must not exceed the ARQ feedback rate.
	for _, miss := range []float64{0.1, 0.25, 0.4} {
		ce, err := NewCommonEvent(4, miss, miss, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		msg := randomMessage(24, 20000, 4)
		resCE, err := ce.Run(msg)
		if err != nil {
			t.Fatal(err)
		}
		arqRate := 4 * (1 - miss) // Theorem 3 capacity at Pd = miss
		if resCE.InfoRatePerUse() > arqRate+0.05 {
			t.Errorf("miss=%v: common-event rate %v exceeds feedback rate %v",
				miss, resCE.InfoRatePerUse(), arqRate)
		}
	}
}

func TestCommonEventSenderPathOrdering(t *testing.T) {
	// Figure 4(b): adding the sender-to-E path makes the mechanism
	// error-free and strictly better than the plain mechanism, while
	// staying below pure feedback ARQ.
	for _, miss := range []float64{0.1, 0.3} {
		msg := randomMessage(31, 15000, 4)
		plain, err := NewCommonEvent(4, miss, miss, rng.New(32))
		if err != nil {
			t.Fatal(err)
		}
		resPlain, err := plain.Run(msg)
		if err != nil {
			t.Fatal(err)
		}
		enriched, err := NewCommonEvent(4, miss, miss, rng.New(33))
		if err != nil {
			t.Fatal(err)
		}
		resEnriched, err := enriched.RunWithSenderPath(msg)
		if err != nil {
			t.Fatal(err)
		}
		if resEnriched.SymbolErrors != 0 {
			t.Fatalf("miss=%v: enriched mechanism had %d errors", miss, resEnriched.SymbolErrors)
		}
		if resEnriched.InfoRatePerUse() <= resPlain.InfoRatePerUse() {
			t.Errorf("miss=%v: sender path did not help (%v vs %v)",
				miss, resEnriched.InfoRatePerUse(), resPlain.InfoRatePerUse())
		}
		arqRate := 4 * (1 - miss)
		if resEnriched.InfoRatePerUse() > arqRate+0.05 {
			t.Errorf("miss=%v: enriched mechanism %v beat feedback %v",
				miss, resEnriched.InfoRatePerUse(), arqRate)
		}
	}
}

func TestCommonEventSenderPathValidation(t *testing.T) {
	ce, err := NewCommonEvent(2, 0.1, 0.1, rng.New(34))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.RunWithSenderPath([]uint32{7}); err == nil {
		t.Fatal("expected alphabet error")
	}
}

func TestCommonEventRejectsInvalidSymbols(t *testing.T) {
	ce, err := NewCommonEvent(2, 0.1, 0.1, rng.New(25))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.Run([]uint32{5}); err == nil {
		t.Fatal("expected alphabet error")
	}
}

func TestResultAccessorsZero(t *testing.T) {
	var r Result
	if r.ThroughputPerUse() != 0 || r.InfoRatePerUse() != 0 ||
		r.InfoRatePerSenderOp() != 0 || r.ErrorRate() != 0 {
		t.Fatal("zero Result should report zero rates")
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Uses: 100, SenderOps: 80, Delivered: 60, SymbolErrors: 6, MutualInfoPerSlot: 2}
	if got := r.ThroughputPerUse(); got != 0.6 {
		t.Errorf("ThroughputPerUse = %v", got)
	}
	if got := r.InfoRatePerUse(); got != 1.2 {
		t.Errorf("InfoRatePerUse = %v", got)
	}
	if got := r.InfoRatePerSenderOp(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("InfoRatePerSenderOp = %v", got)
	}
	if got := r.ErrorRate(); got != 0.1 {
		t.Errorf("ErrorRate = %v", got)
	}
}
