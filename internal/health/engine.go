package health

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Schema identifies the alerts document format.
const Schema = "capest/health-alerts/v1"

// AlertsPath is the capserver route serving the engine's alert state.
const AlertsPath = "/v1/health/alerts"

// State is a rule's position in the hysteresis cycle.
type State int

const (
	// StateInactive: not breaching (or resolved).
	StateInactive State = iota
	// StatePending: breaching, but for fewer than `for k` ticks.
	StatePending
	// StateFiring: breached for k consecutive ticks and not yet clear.
	StateFiring
)

// String returns the state's wire name.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	}
	return "inactive"
}

// Transition is one alert state change, the unit of the deterministic
// alert timeline: same snapshot sequence, same transitions.
type Transition struct {
	// Tick is when the transition happened.
	Tick int64 `json:"tick"`
	// Rule names the rule.
	Rule string `json:"rule"`
	// From and To are state wire names.
	From string `json:"from"`
	To   string `json:"to"`
	// Value is the evaluated left side at the transition, formatted
	// with %.6g ("" when the transition came from an unknown state,
	// which never happens today but keeps the field honest).
	Value string `json:"value"`
}

// Format renders the transition as one stable log line.
func (t Transition) Format() string {
	return fmt.Sprintf("tick=%d rule=%s %s->%s value=%s", t.Tick, t.Rule, t.From, t.To, t.Value)
}

// FormatTransitions renders a transition log, one line each — the
// byte-identical artifact the harness asserts on.
func FormatTransitions(w io.Writer, ts []Transition) {
	for _, t := range ts {
		fmt.Fprintln(w, t.Format())
	}
}

// Alert is one rule's current state in the alerts document.
type Alert struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	State    string `json:"state"`
	// SinceTick is when the rule entered its current state (-1 while a
	// rule has never transitioned).
	SinceTick int64 `json:"since_tick"`
	// Value is the last evaluated left side (%.6g; "" if the last
	// evaluation was unknown).
	Value string `json:"value,omitempty"`
	// Threshold renders the rule's right side.
	Threshold string `json:"threshold"`
	// Expr is the rule body as written.
	Expr string `json:"expr"`
}

// AlertsDoc is the JSON served at /v1/health/alerts and federated into
// /v1/cluster/status: alerts sorted by rule name, counts up front. It
// contains ticks, never wall-clock time, so two engines fed the same
// snapshots serialize byte-identically.
type AlertsDoc struct {
	Schema  string  `json:"schema"`
	Tick    int64   `json:"tick"`
	Firing  int     `json:"firing"`
	Pending int     `json:"pending"`
	Alerts  []Alert `json:"alerts"`
}

// Config configures an Engine.
type Config struct {
	// Rules is the rule set (required non-empty).
	Rules []*Rule
	// Retention is the snapshot ring capacity (default 128).
	Retention int
	// TickInterval is the nominal spacing of snapshots, used only to
	// convert rule windows to tick counts and rates to per-second
	// (default 5s). It never enters a serialized artifact.
	TickInterval time.Duration
	// StateGauge, when set, receives each rule's state as a 0/1/2
	// sample per tick (the capserver_alert_state{rule=...} family).
	StateGauge *obs.GaugeVec
	// MaxTransitions bounds the retained transition log (default 256;
	// oldest dropped first).
	MaxTransitions int
}

// ruleState is one rule's evaluation state.
type ruleState struct {
	rule         *Rule
	windows      []int // window lengths in ticks
	state        State
	since        int64
	breachStreak int
	clearStreak  int
	lastValue    string
}

// Engine evaluates a rule set against a snapshot ring, one tick at a
// time. Safe for concurrent use: Tick, Alerts and Transitions lock.
type Engine struct {
	mu          sync.Mutex
	ring        *Ring
	tickSeconds float64
	states      []*ruleState
	gauge       *obs.GaugeVec
	tick        int64 // next tick index
	transitions []Transition
	maxTrans    int
	dropped     int64
}

// NewEngine validates the config and returns an engine at tick 0.
func NewEngine(cfg Config) (*Engine, error) {
	if len(cfg.Rules) == 0 {
		return nil, fmt.Errorf("health: no rules")
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 5 * time.Second
	}
	if cfg.TickInterval < 0 {
		return nil, fmt.Errorf("health: negative tick interval")
	}
	// An unset retention sizes itself to the rule set: a fast tick turns
	// `over 1m` into hundreds of ticks, and a ring that cannot hold a
	// rule's own window would be a config error the user never wrote.
	// Explicit retention stays an error when too small.
	windows := make([][]int, len(cfg.Rules))
	maxWindow := 0
	for i, ru := range cfg.Rules {
		if err := ru.validate(); err != nil {
			return nil, fmt.Errorf("health: %w", err)
		}
		windows[i] = ru.windowTicks(cfg.TickInterval)
		for _, w := range windows[i] {
			if w > maxWindow {
				maxWindow = w
			}
		}
	}
	if cfg.Retention == 0 {
		cfg.Retention = 128
		if maxWindow+1 > cfg.Retention {
			cfg.Retention = maxWindow + 1
		}
	}
	if cfg.Retention < 2 {
		return nil, fmt.Errorf("health: retention %d < 2", cfg.Retention)
	}
	if cfg.MaxTransitions == 0 {
		cfg.MaxTransitions = 256
	}
	e := &Engine{
		ring:        NewRing(cfg.Retention),
		tickSeconds: cfg.TickInterval.Seconds(),
		gauge:       cfg.StateGauge,
		maxTrans:    cfg.MaxTransitions,
	}
	for i, ru := range cfg.Rules {
		for _, w := range windows[i] {
			if w > cfg.Retention-1 {
				return nil, fmt.Errorf("health: rule %q window %d ticks exceeds retention %d",
					ru.Name, w, cfg.Retention)
			}
		}
		e.states = append(e.states, &ruleState{rule: ru, windows: windows[i], since: -1})
	}
	return e, nil
}

// Ring exposes the engine's snapshot ring for read-side queries.
func (e *Engine) Ring() *Ring {
	return e.ring
}

// Tick ingests one registry snapshot at the next tick index and
// evaluates every rule, returning the transitions this tick caused (in
// rule order).
func (e *Engine) Tick(data obs.RegistrySnapshot) []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	tick := e.tick
	e.tick++
	e.ring.Push(NewSnapshot(tick, data))

	var out []Transition
	for _, st := range e.states {
		if tr, ok := e.eval(st, tick); ok {
			out = append(out, tr)
		}
		if e.gauge != nil {
			e.gauge.With(st.rule.Name).Set(int64(st.state))
		}
	}
	if len(out) > 0 {
		e.transitions = append(e.transitions, out...)
		if over := len(e.transitions) - e.maxTrans; over > 0 {
			e.dropped += int64(over)
			e.transitions = append(e.transitions[:0:0], e.transitions[over:]...)
		}
	}
	return out
}

// eval advances one rule's hysteresis state machine for the snapshot
// just pushed. Unknown evaluations (cold ring, absent series, no
// observations in the window) reset both streaks and hold the current
// state: an alert neither fires nor resolves on missing data.
func (e *Engine) eval(st *ruleState, tick int64) (Transition, bool) {
	ru := st.rule
	lhs, rhs := 0.0, 0.0
	known := true
	breachedAll := true
	for i, w := range st.windows {
		l, ok := ru.LHS.Eval(e.ring, w, e.tickSeconds)
		if !ok {
			known = false
			break
		}
		r, ok := ru.RHS.Eval(e.ring, w, e.tickSeconds)
		if !ok {
			known = false
			break
		}
		if i == 0 {
			lhs, rhs = l, r
		}
		if !ru.breached(l, r) {
			breachedAll = false
		}
	}
	if !known {
		st.breachStreak, st.clearStreak = 0, 0
		st.lastValue = ""
		return Transition{}, false
	}
	st.lastValue = strconv.FormatFloat(lhs, 'g', 6, 64)

	from := st.state
	switch {
	case breachedAll:
		st.clearStreak = 0
		st.breachStreak++
		if st.breachStreak >= ru.For {
			st.state = StateFiring
		} else if st.state == StateInactive {
			st.state = StatePending
		}
	default:
		st.breachStreak = 0
		switch st.state {
		case StatePending:
			st.state = StateInactive
			st.clearStreak = 0
		case StateFiring:
			// Resolve only from strictly inside the safe zone; the
			// hysteresis band between clear and the main threshold
			// holds the alert firing.
			if ru.safe(lhs, rhs) {
				st.clearStreak++
				if st.clearStreak >= ru.ClearFor {
					st.state = StateInactive
					st.clearStreak = 0
				}
			} else {
				st.clearStreak = 0
			}
		}
	}
	if st.state == from {
		return Transition{}, false
	}
	st.since = tick
	return Transition{
		Tick: tick, Rule: ru.Name,
		From: from.String(), To: st.state.String(),
		Value: st.lastValue,
	}, true
}

// Alerts returns the current alerts document, rules sorted by name.
func (e *Engine) Alerts() AlertsDoc {
	e.mu.Lock()
	defer e.mu.Unlock()
	doc := AlertsDoc{Schema: Schema, Tick: e.tick - 1, Alerts: make([]Alert, 0, len(e.states))}
	for _, st := range e.states {
		switch st.state {
		case StateFiring:
			doc.Firing++
		case StatePending:
			doc.Pending++
		}
		doc.Alerts = append(doc.Alerts, Alert{
			Rule:      st.rule.Name,
			Severity:  st.rule.Severity,
			State:     st.state.String(),
			SinceTick: st.since,
			Value:     st.lastValue,
			Threshold: st.rule.RHS.String(),
			Expr:      st.rule.Source,
		})
	}
	sort.Slice(doc.Alerts, func(i, j int) bool { return doc.Alerts[i].Rule < doc.Alerts[j].Rule })
	return doc
}

// Firing returns the number of rules currently firing.
func (e *Engine) Firing() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	for _, st := range e.states {
		if st.state == StateFiring {
			n++
		}
	}
	return n
}

// Transitions returns a copy of the retained transition log (oldest
// first; at most MaxTransitions — Dropped counts what fell off).
func (e *Engine) Transitions() []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Transition(nil), e.transitions...)
}

// Dropped returns how many transitions the bounded log has discarded.
func (e *Engine) Dropped() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// StateGaugeVec registers the conventional per-rule alert-state gauge
// family on reg and returns it, with its HELP text, so every embedding
// server exposes the same family the same way.
func StateGaugeVec(reg *obs.Registry) *obs.GaugeVec {
	reg.Help("capserver_alert_state",
		"Per-rule alert state: 0 inactive, 1 pending, 2 firing.")
	return reg.GaugeVec("capserver_alert_state", "rule")
}
