package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// fastConfig keeps every experiment quick under `go test`.
func fastConfig() Config {
	return Config{Symbols: 5000, CodedSymbols: 100, Quanta: 50000, Seed: 1}
}

func cell(t *testing.T, tab Table, row int, col string) float64 {
	t.Helper()
	idx := -1
	for i, h := range tab.Header {
		if h == col {
			idx = i
			break
		}
	}
	if idx == -1 {
		t.Fatalf("%s: no column %q in %v", tab.ID, col, tab.Header)
	}
	v, err := strconv.ParseFloat(tab.Rows[row][idx], 64)
	if err != nil {
		t.Fatalf("%s row %d col %q: %v", tab.ID, row, col, err)
	}
	return v
}

func TestE1ShapeBoundMatchesErasureMI(t *testing.T) {
	tab, err := E1UpperBound(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(tab.Rows))
	}
	for r := range tab.Rows {
		ratio := cell(t, tab, r, "ratio")
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("row %d: MI/bound ratio %v outside [0.95, 1.05]", r, ratio)
		}
	}
}

func TestE2ShapeARQMeetsCapacity(t *testing.T) {
	tab, err := E2FeedbackARQ(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		want := cell(t, tab, r, "C=N(1-Pd)")
		got := cell(t, tab, r, "measured(bits/use)")
		if want > 0.05 && (got < want*0.9 || got > want*1.1) {
			t.Errorf("row %d: measured %v vs capacity %v", r, got, want)
		}
		if errs := cell(t, tab, r, "errors"); errs != 0 {
			t.Errorf("row %d: ARQ had %v errors", r, errs)
		}
	}
}

func TestE3ShapeCounterBetweenBounds(t *testing.T) {
	tab, err := E3CounterProtocol(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		upper := cell(t, tab, r, "C_upper")
		perUse := cell(t, tab, r, "C_perUse")
		meas := cell(t, tab, r, "meas/use")
		if meas > upper*1.03 {
			t.Errorf("row %d: measured %v exceeds upper bound %v", r, meas, upper)
		}
		if perUse > 0.1 && (meas < perUse*0.85 || meas > perUse*1.15) {
			t.Errorf("row %d: measured %v far from per-use bound %v", r, meas, perUse)
		}
		slotErr := cell(t, tab, r, "slotErr")
		predErr := cell(t, tab, r, "predErr")
		if predErr > 0.02 && (slotErr < predErr*0.8 || slotErr > predErr*1.2) {
			t.Errorf("row %d: slot error %v far from prediction %v", r, slotErr, predErr)
		}
	}
}

func TestE4ShapeMonotoneConvergence(t *testing.T) {
	tab, err := E4Convergence(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col < len(tab.Header); col++ {
		prev := -1.0
		for r := range tab.Rows {
			v, err := strconv.ParseFloat(tab.Rows[r][col], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev-1e-9 {
				t.Errorf("column %q not monotone at row %d", tab.Header[col], r)
			}
			if v > 1+1e-9 {
				t.Errorf("ratio %v exceeds 1", v)
			}
			prev = v
		}
		if prev < 0.85 {
			t.Errorf("column %q final ratio %v not near 1", tab.Header[col], prev)
		}
	}
}

func TestE5ShapeClosedFormMatchesBA(t *testing.T) {
	tab, err := E5BlahutArimoto(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		diff, err := strconv.ParseFloat(tab.Rows[r][4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if diff > 1e-5 {
			t.Errorf("row %d: closed form vs BA differ by %v", r, diff)
		}
	}
}

func TestE6ShapeCodedRatesBelowFeedbackBound(t *testing.T) {
	tab, err := E6NoSyncCoding(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 schemes", len(tab.Rows))
	}
	for r := range tab.Rows {
		rate := cell(t, tab, r, "rate(info bits/ch.bit)")
		bound := cell(t, tab, r, "C_upper(1-Pd)")
		if rate <= 0 {
			t.Errorf("row %d (%s): no information conveyed", r, tab.Rows[r][0])
		}
		if rate >= bound {
			t.Errorf("row %d (%s): rate %v not below feedback bound %v", r, tab.Rows[r][0], rate, bound)
		}
		if resid := cell(t, tab, r, "resid.err"); resid > 0.25 {
			t.Errorf("row %d (%s): residual error %v too high", r, tab.Rows[r][0], resid)
		}
	}
}

func TestE7ShapeFeedbackDominates(t *testing.T) {
	tab, err := E7CommonEvents(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		if ratio := cell(t, tab, r, "ratio"); ratio > 1.02 {
			t.Errorf("row %d: common events beat feedback (ratio %v)", r, ratio)
		}
		arq := cell(t, tab, r, "ARQ+feedback(bits/use)")
		if nosync := cell(t, tab, r, "no-sync(bits/use)"); nosync > arq/4 {
			t.Errorf("row %d: uncoded no-sync rate %v did not collapse (feedback %v)", r, nosync, arq)
		}
		plain := cell(t, tab, r, "common-event(bits/use)")
		enriched := cell(t, tab, r, "event+senderpath(4b)")
		if enriched < plain || enriched > arq+0.05 {
			t.Errorf("row %d: Figure 4(b) ordering violated: plain %v, enriched %v, feedback %v",
				r, plain, enriched, arq)
		}
	}
}

func TestE8ShapeFuzzyRanksLower(t *testing.T) {
	tab, err := E8Scheduler(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for r, row := range tab.Rows {
		byName[row[0]] = r
	}
	rr := cell(t, tab, byName["round-robin"], "C_corrected")
	fz := cell(t, tab, byName["fuzzy(rr,0.5)"], "C_corrected")
	if fz >= rr {
		t.Errorf("fuzzy(0.5) corrected capacity %v should be below round-robin %v", fz, rr)
	}
	for r := range tab.Rows {
		sync := cell(t, tab, r, "C_sync(b/use)")
		corr := cell(t, tab, r, "C_corrected")
		if corr > sync+1e-9 {
			t.Errorf("row %d: corrected %v exceeds synchronous %v", r, corr, sync)
		}
	}
}

func TestE9ShapeLeakApproachesBound(t *testing.T) {
	tab, err := E9MLS(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		bound := cell(t, tab, r, "C_bound")
		leak := cell(t, tab, r, "leak(bits/use)")
		if leak < bound*0.9 || leak > bound*1.1 {
			t.Errorf("row %d: leak %v vs bound %v", r, leak, bound)
		}
	}
}

func TestE10ShapeOverestimateFactor(t *testing.T) {
	tab, err := E10Baselines(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		pd := cell(t, tab, r, "Pd")
		over := cell(t, tab, r, "overestimate")
		want := 1 / (1 - pd)
		if over < want*0.99 || over > want*1.01 {
			t.Errorf("row %d: overestimate %v, want %v", r, over, want)
		}
	}
}

func TestE11ShapeRatesBracketed(t *testing.T) {
	tab, err := E11DeletionRates(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		lower := cell(t, tab, r, "1-H(Pd)")
		upper := cell(t, tab, r, "1-Pd")
		for _, col := range []string{"I_n/n (n=4)", "I_n/n (n=8)", "I_n/n (n=10)", "MC n=20"} {
			v := cell(t, tab, r, col)
			if v > upper+0.02 {
				t.Errorf("row %d %s: rate %v exceeds erasure bound %v", r, col, v, upper)
			}
			// Finite-block rates can exceed the boundary-free Gallager
			// bound slightly but must never collapse below 0.
			if v < 0 {
				t.Errorf("row %d %s: negative rate %v", r, col, v)
			}
			_ = lower
		}
		// Finite-block series decreases with n.
		n4 := cell(t, tab, r, "I_n/n (n=4)")
		n10 := cell(t, tab, r, "I_n/n (n=10)")
		if n10 > n4+1e-9 {
			t.Errorf("row %d: finite-block series not decreasing (%v -> %v)", r, n4, n10)
		}
	}
}

func TestE12ShapeCountermeasuresDegrade(t *testing.T) {
	tab, err := E12TimingChannel(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := cell(t, tab, 0, "C_sync(b/time)")
	for r := 1; r < len(tab.Rows); r++ {
		sync := cell(t, tab, r, "C_sync(b/time)")
		corr := cell(t, tab, r, "C_corrected")
		if sync > base+0.01 {
			t.Errorf("row %d: countermeasure raised synchronous capacity (%v > %v)", r, sync, base)
		}
		if corr > sync+1e-9 {
			t.Errorf("row %d: corrected %v exceeds synchronous %v", r, corr, sync)
		}
	}
	// The miss rows must show a real (1-Pd) correction.
	lastRow := len(tab.Rows) - 1
	if pd := cell(t, tab, lastRow, "est.Pd"); pd < 0.15 {
		t.Errorf("PMiss=0.3 row estimated Pd = %v, want substantial", pd)
	}
}

func TestA4ShapeBurstyMatchesStationaryBound(t *testing.T) {
	tab, err := A4Burstiness(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		bound := cell(t, tab, r, "C_perUse(stat)")
		meas := cell(t, tab, r, "meas(bits/use)")
		if meas < bound*0.9 || meas > bound*1.1 {
			t.Errorf("row %d: measured %v far from stationary bound %v", r, meas, bound)
		}
	}
}

func TestA5ShapeDelayPrediction(t *testing.T) {
	tab, err := A5FeedbackDelay(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		pred := cell(t, tab, r, "predicted N(1-Pd)/(1+d)")
		meas := cell(t, tab, r, "measured(bits/use)")
		if meas < pred*0.93 || meas > pred*1.07 {
			t.Errorf("row %d: measured %v vs predicted %v", r, meas, pred)
		}
		if errs := cell(t, tab, r, "errors"); errs != 0 {
			t.Errorf("row %d: %v errors", r, errs)
		}
	}
}

func TestA1TinyWindowFailsLargeWindowSucceeds(t *testing.T) {
	tab, err := A1DriftWindow(Config{Symbols: 2000, CodedSymbols: 80, Quanta: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[1] != "yes" {
		t.Errorf("largest window failed to decode: %v", last)
	}
}

func TestA2MoreRedundancyLessError(t *testing.T) {
	tab, err := A2OuterRedundancy(Config{Symbols: 2000, CodedSymbols: 90, Quanta: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tab, 0, "payload err rate")           // RS(15,13), weakest
	lastRow := len(tab.Rows) - 1                           // RS(15,5), strongest
	strongest := cell(t, tab, lastRow, "payload err rate") //
	if strongest > first+1e-9 {
		t.Errorf("more redundancy should not raise error rate: %v -> %v", first, strongest)
	}
}

func TestTableFormat(t *testing.T) {
	tab := Table{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EX — demo", "a    bb", "333  4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}
