package syncproto

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/obs"
)

// Protocol is any synchronization protocol runner in this package:
// Naive, ARQ, DelayedARQ, Counter, CommonEvent and SyncVar all
// satisfy it.
type Protocol interface {
	Run(msg []uint32) (Result, error)
}

// budgetExhausted is the panic sentinel the UseMeter throws when an
// attempt's use budget runs out. The protocols' transmission loops are
// not preemptible (they loop until the channel delivers), so the meter
// unwinds them from inside the channel; the Supervisor recovers the
// sentinel and converts it into a failed attempt. Any other panic is
// re-thrown untouched.
type budgetExhausted struct{}

// UseMeter wraps a per-use channel, counting total uses and optionally
// enforcing a per-attempt budget. It is the supervision point that
// turns "deadline" into a channel-use quantity rather than wall time,
// keeping supervised runs deterministic.
type UseMeter struct {
	inner  UseChannel
	total  int64
	budget int64 // remaining uses this attempt; < 0 means unlimited
}

// NewUseMeter wraps inner with an unlimited budget.
func NewUseMeter(inner UseChannel) (*UseMeter, error) {
	if inner == nil {
		return nil, fmt.Errorf("syncproto: nil channel")
	}
	return &UseMeter{inner: inner, budget: -1}, nil
}

// Use forwards one use, enforcing the budget.
func (m *UseMeter) Use(queued uint32) channel.Use {
	if m.budget == 0 {
		panic(budgetExhausted{})
	}
	if m.budget > 0 {
		m.budget--
	}
	m.total++
	return m.inner.Use(queued)
}

// Total returns the number of uses served, including burned ones.
func (m *UseMeter) Total() int64 { return m.total }

// SetBudget arms the per-attempt budget: the next n uses succeed, the
// n+1-th panics with the budget sentinel.
func (m *UseMeter) SetBudget(n int64) { m.budget = n }

// ClearBudget disarms the budget.
func (m *UseMeter) ClearBudget() { m.budget = -1 }

// Burn consumes n uses from the wrapped channel, bypassing the budget.
// The supervisor backs off by burning uses — the channel (and any
// fault regime riding on it) keeps evolving while the sender waits,
// which is what a deterministic, wall-clock-free backoff means here.
func (m *UseMeter) Burn(n int64) {
	for i := int64(0); i < n; i++ {
		m.total++
		m.inner.Use(0)
	}
}

// Status classifies a supervised run.
type Status int

const (
	// StatusOK: every chunk completed first try with clean error rates
	// and (if configured) an achieved rate above the floor.
	StatusOK Status = iota
	// StatusDegraded: the run completed and delivered data, but needed
	// retries, resynchronization or chunk skips, or the achieved
	// quality fell below the configured thresholds. The reported rate
	// is the honestly achieved one.
	StatusDegraded
	// StatusFailed: nothing was delivered.
	StatusFailed
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDegraded:
		return "degraded"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// The supervision policy of every supervised run. All quantities are
// counted in channel uses or chunks, never wall time, so supervised
// runs replay byte-identically.
const (
	// chunkSymbols is the supervision granularity: the message is
	// transferred in chunks of this many symbols, each supervised
	// independently.
	chunkSymbols = 256
	// maxAttempts bounds attempts per chunk per protocol.
	maxAttempts = 4
	// backoffBase is the number of uses burned after the first failed
	// attempt; each further failure doubles it.
	backoffBase = 32
	// errorThreshold is the chunk symbol-error rate above which the
	// supervisor falls back from the active protocol to the resync
	// protocol.
	errorThreshold = 0.25
	// attemptChunks is the per-attempt deadline in chunks' worth of
	// uses: a generous multiple of a clean chunk's cost, so only a
	// wedged attempt (a long outage window, a drift excursion) is
	// aborted and retried.
	attemptChunks = 8
)

// SupervisorConfig holds the supervision settings that differ between
// callers; the rest of the policy is fixed (see chunkSymbols).
type SupervisorConfig struct {
	// DegradedRateFloor marks the run Degraded when the achieved
	// information rate (bits per channel use) falls below this floor
	// (0 = disabled). Callers typically set it from a clean
	// calibration run. Bounding the information rate rather than raw
	// throughput matters under insertion-heavy regimes, which keep
	// slots flowing while quietly destroying their information
	// content.
	DegradedRateFloor float64
	// Tracer, when non-nil, records the supervision state machine as
	// structured events: chunk starts (with the protocol phase),
	// attempts, backoff burns, resyncs, abandoned chunks and a final
	// summary. Every recorded field is a deterministic count, so
	// supervised traces replay byte-identically.
	Tracer *obs.Tracer
}

// SupervisedResult is the aggregate accounting of a supervised run.
type SupervisedResult struct {
	// Result aggregates the per-chunk accounting. MutualInfoPerSlot is
	// the delivered-slot-weighted mean of the chunk measurements; Uses
	// includes aborted attempts and backoff burns when a meter is
	// attached, because those uses were really consumed.
	Result
	// Status classifies the run.
	Status Status
	// Chunks is the number of supervised chunks.
	Chunks int
	// Attempts is the total number of protocol attempts.
	Attempts int
	// Retries is the number of failed attempts: every attempt that hit
	// its deadline, including a protocol's last attempt on a chunk,
	// which is not retried.
	Retries int
	// Resyncs counts active->fallback transitions.
	Resyncs int
	// FailedChunks is the number of chunks abandoned after every
	// attempt (their symbols are never delivered).
	FailedChunks int
	// BackoffUses is the number of channel uses burned backing off.
	BackoffUses int64
}

// Supervisor runs a protocol chunk by chunk with per-attempt deadlines
// (in channel uses), bounded deterministic exponential backoff, and
// fallback to a resynchronization protocol when the measured error
// rate diverges. It exists so that hostile channel regimes degrade a
// transfer instead of wedging or silently corrupting it: the result
// reports the honestly achieved rate plus a Status classifying the
// run.
//
// The supervisor state machine (see DESIGN.md §7); FALLBACK is final:
//
//	ACTIVE   --chunk error rate > threshold-->            FALLBACK
//	ACTIVE   --attempts exhausted, fallback succeeds-->   FALLBACK
//	any      --attempts exhausted on both protocols-->    chunk skipped
type Supervisor struct {
	cfg    SupervisorConfig
	active Protocol
	resync Protocol // fallback; nil = no fallback
	meter  *UseMeter
	// attemptUses is the per-attempt deadline in channel uses (0 =
	// none, without a meter).
	attemptUses int64
}

// NewSupervisor builds a supervisor for the active protocol. resync is
// the fallback protocol (typically a Counter over the same metered
// channel; nil disables fallback). meter must be the UseMeter the
// protocols run over for deadlines and backoff to work; nil disables
// both (chunking, retry accounting and degradation detection still
// apply). Each attempt's deadline is attemptChunks chunks' worth of
// metered uses. DelayedARQ accounts 1+delay uses per send, so its
// deadline is 1+delay times longer, although the meter sees only the
// one channel use of each send.
func NewSupervisor(active, resync Protocol, meter *UseMeter, cfg SupervisorConfig) (*Supervisor, error) {
	if active == nil {
		return nil, fmt.Errorf("syncproto: nil protocol")
	}
	s := &Supervisor{cfg: cfg, active: active, resync: resync, meter: meter}
	if meter != nil {
		s.attemptUses = attemptChunks * chunkSymbols
		if d, ok := active.(*DelayedARQ); ok {
			s.attemptUses *= int64(1 + d.delay)
		}
	}
	return s, nil
}

// runAttempt executes one attempt, converting a budget-sentinel panic
// into ok = false.
func (s *Supervisor) runAttempt(p Protocol, chunk []uint32) (res Result, ok bool, err error) {
	if s.attemptUses > 0 {
		s.meter.SetBudget(s.attemptUses)
		defer s.meter.ClearBudget()
	}
	defer func() {
		if r := recover(); r != nil {
			if _, isBudget := r.(budgetExhausted); isBudget {
				ok = false
				return
			}
			panic(r)
		}
	}()
	res, err = p.Run(chunk)
	return res, err == nil, err
}

// tryChunk drives one chunk through up to maxAttempts attempts of one
// protocol, backing off between failures. Alongside the chunk result
// it returns the attempt's accounting uses that never touched the
// channel (DelayedARQ's idle feedback slots), which the meter cannot
// see but the aggregate Uses must include. chunkIdx labels the trace
// events.
func (s *Supervisor) tryChunk(p Protocol, chunk []uint32, chunkIdx int, sup *SupervisedResult) (Result, int, bool, error) {
	backoff := int64(backoffBase)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		sup.Attempts++
		s.cfg.Tracer.Event("attempt", obs.I("chunk", int64(chunkIdx)), obs.I("attempt", int64(attempt+1)))
		var before int64
		if s.meter != nil {
			before = s.meter.Total()
		}
		res, ok, err := s.runAttempt(p, chunk)
		if err != nil {
			// A protocol error (as opposed to a deadline) is a caller
			// mistake — invalid symbols, misconfiguration — and
			// retrying cannot fix it.
			return Result{}, 0, false, err
		}
		if ok {
			idle := 0
			if s.meter != nil {
				if d := res.Uses - int(s.meter.Total()-before); d > 0 {
					idle = d
				}
			}
			return res, idle, true, nil
		}
		sup.Retries++
		if s.meter != nil && attempt < maxAttempts-1 {
			s.meter.Burn(backoff)
			sup.BackoffUses += backoff
			s.cfg.Tracer.Event("backoff", obs.I("chunk", int64(chunkIdx)), obs.I("uses", backoff))
			backoff *= 2
		}
	}
	return Result{}, 0, false, nil
}

// Run transfers the message under supervision.
func (s *Supervisor) Run(msg []uint32) (SupervisedResult, error) {
	sup := SupervisedResult{}
	sup.MessageSymbols = len(msg)
	var startUses int64
	if s.meter != nil {
		startUses = s.meter.Total()
	}
	var (
		onFallback bool
		miWeighted float64
		sumUses    int
		idleUses   int
	)
	for start := 0; start < len(msg); start += chunkSymbols {
		end := start + chunkSymbols
		if end > len(msg) {
			end = len(msg)
		}
		chunk := msg[start:end]
		chunkIdx := sup.Chunks
		sup.Chunks++

		proto := s.active
		phase := "active"
		if onFallback {
			proto = s.resync
			phase = "fallback"
		}
		s.cfg.Tracer.Event("chunk", obs.I("chunk", int64(chunkIdx)), obs.S("proto", phase))
		res, idle, ok, err := s.tryChunk(proto, chunk, chunkIdx, &sup)
		if err != nil {
			return SupervisedResult{}, err
		}
		if !ok && !onFallback && s.resync != nil {
			// The active protocol could not finish the chunk within
			// its deadlines; resynchronize via the fallback.
			res, idle, ok, err = s.tryChunk(s.resync, chunk, chunkIdx, &sup)
			if err != nil {
				return SupervisedResult{}, err
			}
			if ok {
				onFallback = true
				sup.Resyncs++
				s.cfg.Tracer.Event("resync", obs.I("chunk", int64(chunkIdx)))
			}
		}
		if !ok {
			sup.FailedChunks++
			s.cfg.Tracer.Event("chunkfail", obs.I("chunk", int64(chunkIdx)))
			continue
		}

		// Aggregate the chunk accounting.
		sup.SenderOps += res.SenderOps
		sup.Delivered += res.Delivered
		sup.SymbolErrors += res.SymbolErrors
		sup.SkippedSymbols += res.SkippedSymbols
		miWeighted += res.MutualInfoPerSlot * float64(res.Delivered)
		sumUses += res.Uses
		idleUses += idle

		// Divergence detection.
		if !onFallback && s.resync != nil && res.ErrorRate() > errorThreshold {
			onFallback = true
			sup.Resyncs++
			s.cfg.Tracer.Event("resync", obs.I("chunk", int64(chunkIdx)))
		}
	}

	if s.meter != nil {
		// Channel uses (including aborted attempts and backoff burns)
		// plus accounting-only idle uses the meter cannot observe.
		sup.Uses = int(s.meter.Total()-startUses) + idleUses
	} else {
		sup.Uses = sumUses
	}
	if sup.Delivered > 0 {
		sup.MutualInfoPerSlot = miWeighted / float64(sup.Delivered)
	}

	switch {
	case len(msg) == 0:
		sup.Status = StatusOK
	case sup.Delivered == 0:
		sup.Status = StatusFailed
	case sup.Retries > 0 || sup.Resyncs > 0 || sup.FailedChunks > 0,
		sup.ErrorRate() > errorThreshold,
		s.cfg.DegradedRateFloor > 0 && sup.InfoRatePerUse() < s.cfg.DegradedRateFloor:
		sup.Status = StatusDegraded
	default:
		sup.Status = StatusOK
	}
	s.cfg.Tracer.Event("sup",
		obs.S("status", sup.Status.String()),
		obs.I("chunks", int64(sup.Chunks)),
		obs.I("attempts", int64(sup.Attempts)),
		obs.I("retries", int64(sup.Retries)),
		obs.I("resyncs", int64(sup.Resyncs)),
		obs.I("failed", int64(sup.FailedChunks)),
		obs.I("uses", int64(sup.Uses)),
		obs.I("backoff_uses", sup.BackoffUses))
	return sup, nil
}
