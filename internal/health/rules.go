package health

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// The rule language, one rule per line:
//
//	rule <name>: <expr> <op> <rhs> [over <w>[,<w>...]] [for <k>]
//	     [clear <num>] [clearfor <c>] [severity <word>]
//
// with '#' comments and blank lines ignored. <expr> is one of
//
//	value(<series>)        latest sample
//	rate(<series>)         counter-reset-aware per-second rate over the window
//	increase(<series>)     counter-reset-aware increase over the window
//	ratio(<a>,<b>)         a/b — windowed increases under `over`, latest values otherwise
//	p50(<series>) p99(<series>)  windowed latency quantile from bucket deltas
//
// where <series> is the fully rendered series name exactly as the
// exposition prints it, label block included — e.g.
// capserver_latency_ms{endpoint="bounds"} — with no spaces. <rhs> is a
// number or another expr (so `observed < assumed_bound` rules compare
// two live series). `over` windows are durations (5m, 1h); with more
// than one, ALL windows must breach — multi-window burn-rate. `for k`
// requires k consecutive breaching ticks before firing (pending in
// between). `clear` sets a separate clear threshold (hysteresis: the
// band between clear and the main threshold holds the current state)
// and `clearfor c` requires c consecutive safe ticks before a firing
// rule resolves. `severity` is a free word, default "warn".

// exprFn discriminates rule expressions.
type exprFn int

const (
	fnValue exprFn = iota + 1
	fnRate
	fnIncrease
	fnRatio
	fnP50
	fnP99
)

// windowed reports whether the expression consumes the `over` window.
func (f exprFn) windowed() bool { return f != fnValue }

// Expr is one side of a rule comparison: a literal number or a
// function over one or two series.
type Expr struct {
	// Num is the literal value when IsNum.
	Num   float64
	IsNum bool

	Fn exprFn
	A  string // first series argument
	B  string // second series argument (ratio only)
}

// Eval evaluates the expression against a ring. window is in ticks;
// non-windowed expressions ignore it.
func (e *Expr) Eval(r *Ring, window int, tickSeconds float64) (float64, bool) {
	if e.IsNum {
		return e.Num, true
	}
	switch e.Fn {
	case fnValue:
		return r.Value(e.A)
	case fnRate:
		return r.Rate(e.A, window, tickSeconds)
	case fnIncrease:
		return r.Increase(e.A, window)
	case fnRatio:
		return r.Ratio(e.A, e.B, window)
	case fnP50:
		return r.Quantile(e.A, window, 0.5)
	case fnP99:
		return r.Quantile(e.A, window, 0.99)
	}
	return 0, false
}

// String renders the expression in rule-language syntax.
func (e *Expr) String() string {
	if e.IsNum {
		return strconv.FormatFloat(e.Num, 'g', -1, 64)
	}
	name := map[exprFn]string{
		fnValue: "value", fnRate: "rate", fnIncrease: "increase",
		fnRatio: "ratio", fnP50: "p50", fnP99: "p99",
	}[e.Fn]
	if e.Fn == fnRatio {
		return name + "(" + e.A + "," + e.B + ")"
	}
	return name + "(" + e.A + ")"
}

// Rule is one parsed alert rule.
type Rule struct {
	// Name identifies the rule; unique within a set.
	Name string
	// Severity is a free-form label ("warn", "page", ...).
	Severity string
	// LHS op RHS is the breach condition. Op is "<", ">", "<=" or ">=".
	LHS, RHS Expr
	Op       string
	// Windows are the `over` durations; empty means a single implicit
	// window (1 tick for windowed expressions).
	Windows []time.Duration
	// For is the consecutive breaching ticks required to fire (>= 1).
	For int
	// Clear, when set, is the hysteresis clear threshold: a firing rule
	// resolves only once the value sits on the safe side of Clear (not
	// merely of the main threshold) for ClearFor consecutive ticks.
	Clear    float64
	HasClear bool
	// ClearFor is the consecutive safe ticks required to resolve (>= 1).
	ClearFor int
	// Source is the expression text after "rule <name>:", for display.
	Source string
}

// breached applies the rule's comparison.
func (ru *Rule) breached(lhs, rhs float64) bool {
	switch ru.Op {
	case "<":
		return lhs < rhs
	case ">":
		return lhs > rhs
	case "<=":
		return lhs <= rhs
	case ">=":
		return lhs >= rhs
	}
	return false
}

// safe reports whether lhs sits strictly on the safe side of the clear
// threshold — the hysteresis band between clear and the main threshold
// is neither breached nor safe.
func (ru *Rule) safe(lhs, rhs float64) bool {
	clear := rhs
	if ru.HasClear {
		clear = ru.Clear
	}
	switch ru.Op {
	case "<", "<=":
		return lhs > clear
	default:
		return lhs < clear
	}
}

// validate checks what evaluation and rendering need of a rule however
// it was built. The name becomes a label value and a ` rule=<name> `
// timeline token, so it may hold no Unicode space or control character,
// brace or quote. A numeric threshold or clear value must be finite:
// every comparison with NaN is false, so a NaN threshold never fires
// and a NaN clear value never resolves, and ±Inf thresholds can never
// be crossed.
func (ru *Rule) validate() error {
	if ru.Name == "" || strings.ContainsAny(ru.Name, "{}\"") ||
		strings.IndexFunc(ru.Name, func(r rune) bool { return unicode.IsSpace(r) || unicode.IsControl(r) }) >= 0 {
		return fmt.Errorf("bad rule name %q", ru.Name)
	}
	if ru.RHS.IsNum && (math.IsNaN(ru.RHS.Num) || math.IsInf(ru.RHS.Num, 0)) {
		return fmt.Errorf("rule %q: threshold %v is not finite", ru.Name, ru.RHS.Num)
	}
	if ru.HasClear && (math.IsNaN(ru.Clear) || math.IsInf(ru.Clear, 0)) {
		return fmt.Errorf("rule %q: clear threshold %v is not finite", ru.Name, ru.Clear)
	}
	return nil
}

// windowTicks converts the rule's windows into tick counts (ceil,
// minimum 1). An empty Windows list yields the implicit single
// 1-tick window.
func (ru *Rule) windowTicks(tick time.Duration) []int {
	if len(ru.Windows) == 0 {
		return []int{1}
	}
	ts := make([]int, len(ru.Windows))
	for i, w := range ru.Windows {
		n := int(math.Ceil(float64(w) / float64(tick)))
		if n < 1 {
			n = 1
		}
		ts[i] = n
	}
	return ts
}

// ParseRules parses a rule file. Errors carry the 1-based line number.
func ParseRules(text string) ([]*Rule, error) {
	var rules []*Rule
	seen := make(map[string]bool)
	for i, line := range strings.Split(text, "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		ru, err := parseRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		if seen[ru.Name] {
			return nil, fmt.Errorf("line %d: duplicate rule %q", i+1, ru.Name)
		}
		seen[ru.Name] = true
		rules = append(rules, ru)
	}
	return rules, nil
}

// parseRule parses one non-empty rule line.
func parseRule(line string) (*Rule, error) {
	rest, ok := strings.CutPrefix(line, "rule ")
	if !ok {
		return nil, fmt.Errorf("expected `rule <name>: ...`, got %q", line)
	}
	name, body, ok := strings.Cut(rest, ":")
	if !ok {
		return nil, fmt.Errorf("missing `:` after rule name")
	}
	name = strings.TrimSpace(name)
	body = strings.TrimSpace(body)
	ru := &Rule{Name: name, Severity: "warn", For: 1, ClearFor: 1, Source: body}

	fields := strings.Fields(body)
	if len(fields) < 3 {
		return nil, fmt.Errorf("rule body needs `<expr> <op> <rhs>`")
	}
	lhs, err := parseExpr(fields[0])
	if err != nil {
		return nil, err
	}
	if lhs.IsNum {
		return nil, fmt.Errorf("left side must be an expression, got number %s", fields[0])
	}
	op := fields[1]
	switch op {
	case "<", ">", "<=", ">=":
	default:
		return nil, fmt.Errorf("bad comparison %q (want < > <= >=)", op)
	}
	rhs, err := parseExpr(fields[2])
	if err != nil {
		return nil, err
	}
	ru.LHS, ru.Op, ru.RHS = lhs, op, rhs

	for i := 3; i < len(fields); i += 2 {
		if i+1 >= len(fields) {
			return nil, fmt.Errorf("clause %q missing its argument", fields[i])
		}
		arg := fields[i+1]
		switch fields[i] {
		case "over":
			for _, w := range strings.Split(arg, ",") {
				d, err := time.ParseDuration(w)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("bad window %q", w)
				}
				ru.Windows = append(ru.Windows, d)
			}
		case "for":
			k, err := strconv.Atoi(arg)
			if err != nil || k < 1 {
				return nil, fmt.Errorf("bad for-count %q", arg)
			}
			ru.For = k
		case "clear":
			c, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("bad clear threshold %q", arg)
			}
			ru.Clear, ru.HasClear = c, true
		case "clearfor":
			c, err := strconv.Atoi(arg)
			if err != nil || c < 1 {
				return nil, fmt.Errorf("bad clearfor-count %q", arg)
			}
			ru.ClearFor = c
		case "severity":
			ru.Severity = arg
		default:
			return nil, fmt.Errorf("unknown clause %q", fields[i])
		}
	}
	if len(ru.Windows) > 0 && !ru.LHS.Fn.windowed() {
		return nil, fmt.Errorf("value() ignores `over`; drop the clause or use rate/increase")
	}
	if ru.HasClear && !ru.RHS.IsNum {
		return nil, fmt.Errorf("`clear` needs a numeric threshold on the right side")
	}
	if err := ru.validate(); err != nil {
		return nil, err
	}
	return ru, nil
}

// parseExpr parses a number or fn(args) token (no spaces inside).
func parseExpr(tok string) (Expr, error) {
	if n, err := strconv.ParseFloat(tok, 64); err == nil {
		return Expr{Num: n, IsNum: true}, nil
	}
	open := strings.IndexByte(tok, '(')
	if open < 0 || !strings.HasSuffix(tok, ")") {
		return Expr{}, fmt.Errorf("bad expression %q (want a number or fn(series))", tok)
	}
	fn, ok := map[string]exprFn{
		"value": fnValue, "rate": fnRate, "increase": fnIncrease,
		"ratio": fnRatio, "p50": fnP50, "p99": fnP99,
	}[tok[:open]]
	if !ok {
		return Expr{}, fmt.Errorf("unknown function %q", tok[:open])
	}
	args, err := splitArgs(tok[open+1 : len(tok)-1])
	if err != nil {
		return Expr{}, fmt.Errorf("%q: %w", tok, err)
	}
	e := Expr{Fn: fn}
	switch {
	case fn == fnRatio && len(args) == 2:
		e.A, e.B = args[0], args[1]
	case fn != fnRatio && len(args) == 1:
		e.A = args[0]
	default:
		return Expr{}, fmt.Errorf("%q: wrong argument count", tok)
	}
	for _, a := range args {
		if a == "" {
			return Expr{}, fmt.Errorf("%q: empty series name", tok)
		}
	}
	return e, nil
}

// splitArgs splits on top-level commas, respecting quoted label values
// (commas inside a {label="a,b"} block do not separate arguments) and
// backslash escapes within quotes.
func splitArgs(s string) ([]string, error) {
	var args []string
	var b strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote && c == '\\' && i+1 < len(s):
			b.WriteByte(c)
			i++
			b.WriteByte(s[i])
			continue
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			args = append(args, b.String())
			b.Reset()
			continue
		}
		b.WriteByte(c)
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	args = append(args, b.String())
	return args, nil
}

// DefaultRules is the rule set capserverd ships with: conservative
// thresholds over families every capserver exposes (cluster families
// evaluate as unknown on standalone nodes, which holds state rather
// than firing). The windows assume the default 5s health tick.
const DefaultRules = `# capserverd built-in health rules (see DESIGN.md §14)
rule queue-rejects: rate(capserver_queue_rejected_total) > 1 over 1m for 3 clear 0.1 severity page
rule compute-panics: increase(capserver_compute_panics_total) > 0 over 5m severity page
rule degraded-routing: rate(cluster_degraded_total) > 0.5 over 1m,5m for 2 clear 0.05 severity page
rule peer-errors: rate(cluster_peer_errors_total) > 2 over 1m for 3 clear 0.2 severity warn
rule session-false-alarm: value(capserver_session_false_alarm_ppm) > 20000 for 3 clear 10000 severity warn
rule session-pressure: ratio(capserver_sessions_active,capserver_sessions_limit) > 0.9 for 2 clear 0.8 severity warn
rule latency-bounds-p99: p99(capserver_latency_ms{endpoint="bounds"}) > 1000 over 5m for 2 clear 500 severity warn
`

// MustDefaultRules parses DefaultRules; the rules_test locks that it
// never fails.
func MustDefaultRules() []*Rule {
	rules, err := ParseRules(DefaultRules)
	if err != nil {
		panic("health: DefaultRules do not parse: " + err.Error())
	}
	return rules
}
