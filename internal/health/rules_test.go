package health

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode"
)

func TestParseRuleFull(t *testing.T) {
	rules, err := ParseRules(`
# comment
rule degraded: rate(cluster_degraded_total) > 0.5 over 1m,5m for 2 clear 0.05 clearfor 3 severity page
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("got %d rules", len(rules))
	}
	ru := rules[0]
	if ru.Name != "degraded" || ru.Severity != "page" || ru.Op != ">" {
		t.Errorf("header: %+v", ru)
	}
	if ru.LHS.Fn != fnRate || ru.LHS.A != "cluster_degraded_total" {
		t.Errorf("lhs: %+v", ru.LHS)
	}
	if !ru.RHS.IsNum || ru.RHS.Num != 0.5 {
		t.Errorf("rhs: %+v", ru.RHS)
	}
	if len(ru.Windows) != 2 || ru.Windows[0] != time.Minute || ru.Windows[1] != 5*time.Minute {
		t.Errorf("windows: %v", ru.Windows)
	}
	if ru.For != 2 || !ru.HasClear || ru.Clear != 0.05 || ru.ClearFor != 3 {
		t.Errorf("hysteresis: %+v", ru)
	}
	// 5s tick: 1m = 12 ticks, 5m = 60 ticks.
	if ws := ru.windowTicks(5 * time.Second); ws[0] != 12 || ws[1] != 60 {
		t.Errorf("windowTicks: %v", ws)
	}
}

func TestParseRuleLabeledSeries(t *testing.T) {
	rules, err := ParseRules(
		`rule p99: p99(capserver_latency_ms{endpoint="bounds"}) > 1000 over 5m`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rules[0].LHS.A; got != `capserver_latency_ms{endpoint="bounds"}` {
		t.Errorf("series = %q", got)
	}
	// A quoted label value containing a comma must not split ratio args.
	rules, err = ParseRules(
		`rule r: ratio(a_total{k="x,y"},b_total) < 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].LHS.A != `a_total{k="x,y"}` || rules[0].LHS.B != "b_total" {
		t.Errorf("ratio args: %q / %q", rules[0].LHS.A, rules[0].LHS.B)
	}
}

func TestParseRuleExprRHS(t *testing.T) {
	rules, err := ParseRules(
		`rule capacity: value(observed_capacity_mbits) < value(assumed_lower_bound_mbits) for 3`)
	if err != nil {
		t.Fatal(err)
	}
	ru := rules[0]
	if ru.RHS.IsNum || ru.RHS.Fn != fnValue || ru.RHS.A != "assumed_lower_bound_mbits" {
		t.Errorf("rhs: %+v", ru.RHS)
	}
	if ru.RHS.String() != "value(assumed_lower_bound_mbits)" {
		t.Errorf("rhs render: %q", ru.RHS.String())
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, bad := range []string{
		`not a rule`,
		`rule x value(a) > 1`,                        // missing colon
		`rule bad name: value(a) > 1`,                // space in name
		`rule x: 3 > value(a)`,                       // numeric lhs
		`rule x: value(a) = 1`,                       // bad op
		`rule x: frob(a) > 1`,                        // unknown fn
		`rule x: value(a) > 1 over 5m`,               // value() with window
		`rule x: value(a) > 1 for 0`,                 // for < 1
		`rule x: value(a) > 1 over banana`,           // bad duration
		`rule x: value(a) > 1 wibble 2`,              // unknown clause
		`rule x: value(a) > 1 severity`,              // missing argument
		`rule x: ratio(a) > 1`,                       // arity
		`rule x: value(a,b) > 1`,                     // arity
		`rule x: value(a{k=") > 1`,                   // unterminated quote
		`rule x: value(a) < value(b) clear 1`,        // clear with expr rhs
		"rule x: value(a) > 1\nrule x: value(a) > 2", // duplicate name
		`rule a: value(x) > 5 clear NaN`,             // NaN clear never resolves
		`rule b: value(x) > NaN`,                     // NaN threshold never fires
		`rule x: value(a) > +Inf`,                    // unreachable threshold
		`rule x: value(a) < -Inf`,                    // unreachable threshold
		`rule x: value(a) > 1 clear Inf`,             // infinite clear
		"rule a\vb: value(a) > 1",                    // vertical tab in name
		"rule a\u00a0b: value(a) > 1",                // no-break space in name
		"rule a\x01b: value(a) > 1",                  // control byte in name
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("parsed without error: %q", bad)
		}
	}

	// NewEngine applies the same checks to rules built in code.
	good := func() *Rule {
		return &Rule{Name: "r", LHS: Expr{Fn: fnValue, A: "x"}, Op: ">", RHS: Expr{Num: 1, IsNum: true}, For: 1, ClearFor: 1}
	}
	if _, err := NewEngine(Config{Rules: []*Rule{good()}}); err != nil {
		t.Fatalf("NewEngine rejected a valid rule: %v", err)
	}
	for _, mutate := range []func(*Rule){
		func(ru *Rule) { ru.RHS.Num = math.NaN() },
		func(ru *Rule) { ru.RHS.Num = math.Inf(-1) },
		func(ru *Rule) { ru.Clear, ru.HasClear = math.NaN(), true },
		func(ru *Rule) { ru.Name = "a\u00a0b" },
		func(ru *Rule) { ru.Name = "a\x01b" },
	} {
		ru := good()
		mutate(ru)
		if _, err := NewEngine(Config{Rules: []*Rule{ru}}); err == nil {
			t.Errorf("NewEngine accepted %+v", ru)
		}
	}
}

func TestParseRuleLineNumbers(t *testing.T) {
	_, err := ParseRules("rule a: value(x) > 1\n\n# fine\nrule b: nope")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %v does not carry line 4", err)
	}
}

func TestDefaultRulesParse(t *testing.T) {
	rules := MustDefaultRules()
	if len(rules) < 5 {
		t.Fatalf("only %d default rules", len(rules))
	}
	// Defaults must fit the default engine config (retention 128 at the
	// default 5s tick), or capserverd would refuse to start.
	if _, err := NewEngine(Config{Rules: rules}); err != nil {
		t.Errorf("default rules rejected by default engine config: %v", err)
	}
}

// FuzzParseRules checks the parser of an operator-supplied rule file:
// it never panics, every accepted rule has finite thresholds and a name
// free of space and control runes, and `rule <Name>: <Source>`
// re-parses to an equal rule.
func FuzzParseRules(f *testing.F) {
	f.Add(DefaultRules)
	f.Add(`rule r: ratio(a_total{k="x,y"},b_total) < 0.5 over 1m,5m for 2 clear 0.6 clearfor 3 severity page`)
	f.Add(`rule a: value(x) > 5 clear NaN`)
	f.Add(`rule b: value(x) > NaN`)
	f.Add(`rule c: value(x) > +Inf`)
	f.Add("rule a\vb: value(x) > 1")
	f.Add("rule a\u00a0b: value(x) > 1")
	f.Add("rule a\x01b: value(x) > 1")
	f.Fuzz(func(t *testing.T, text string) {
		rules, err := ParseRules(text)
		if err != nil {
			return
		}
		for _, ru := range rules {
			if strings.IndexFunc(ru.Name, func(r rune) bool { return unicode.IsSpace(r) || unicode.IsControl(r) }) >= 0 {
				t.Fatalf("accepted rule name %q", ru.Name)
			}
			for _, v := range []float64{ru.RHS.Num, ru.Clear} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("rule %q accepted with non-finite threshold %v", ru.Name, v)
				}
			}
			again, err := ParseRules("rule " + ru.Name + ": " + ru.Source)
			if err != nil || len(again) != 1 {
				t.Fatalf("rule %q does not re-parse: %v", ru.Name, err)
			}
			if !sameRule(ru, again[0]) {
				t.Fatalf("re-parse changed the rule: %+v vs %+v", ru, again[0])
			}
		}
	})
}

// sameRule compares two rules field by field, floats by their bits.
func sameRule(a, b *Rule) bool {
	sameExpr := func(x, y Expr) bool {
		return x.IsNum == y.IsNum && math.Float64bits(x.Num) == math.Float64bits(y.Num) &&
			x.Fn == y.Fn && x.A == y.A && x.B == y.B
	}
	return a.Name == b.Name && a.Severity == b.Severity && a.Op == b.Op &&
		sameExpr(a.LHS, b.LHS) && sameExpr(a.RHS, b.RHS) &&
		slices.Equal(a.Windows, b.Windows) && a.For == b.For &&
		a.HasClear == b.HasClear && math.Float64bits(a.Clear) == math.Float64bits(b.Clear) &&
		a.ClearFor == b.ClearFor && a.Source == b.Source
}
