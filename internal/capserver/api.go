package capserver

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// BoundsJSON is the JSON rendering of core.Bounds. It is the shared
// wire schema between the /v1/bounds endpoint and `covertcap -json`,
// so scripted consumers see one encoding regardless of which tool
// produced it.
type BoundsJSON struct {
	N           int     `json:"n"`
	Pd          float64 `json:"pd"`
	Pi          float64 `json:"pi"`
	Ps          float64 `json:"ps"`
	Upper       float64 `json:"c_upper"`
	LowerT5     float64 `json:"c_lower_t5"`
	LowerPerUse float64 `json:"c_lower_per_use"`
	Cconv       float64 `json:"c_conv"`
	CconvLargeN float64 `json:"c_conv_large_n"`
	Ratio       float64 `json:"ratio"`
}

// FromBounds converts a core.Bounds into its wire form.
func FromBounds(b core.Bounds) BoundsJSON {
	return BoundsJSON{
		N:           b.Params.N,
		Pd:          b.Params.Pd,
		Pi:          b.Params.Pi,
		Ps:          b.Params.Ps,
		Upper:       b.Upper,
		LowerT5:     b.LowerT5,
		LowerPerUse: b.LowerPerUse,
		Cconv:       b.Cconv,
		CconvLargeN: b.CconvLargeN,
		Ratio:       b.Ratio,
	}
}

// DegradeJSON is the Section 4.4 degradation C -> C(1-Pd), shared
// between /v1/bounds (sync_capacity parameter) and
// `covertcap -sync-capacity -json`.
type DegradeJSON struct {
	TraditionalEstimate float64 `json:"traditional_estimate"`
	Pd                  float64 `json:"pd"`
	Corrected           float64 `json:"corrected"`
}

// DeletionRatesJSON carries the no-feedback binary deletion channel
// rates of package delcap (the /v1/bounds exact_n / mc_n extensions).
// The exact and Monte-Carlo fields are present exactly when computed,
// so a computed zero (a rate at pd=1, seed 0) is served as 0.
type DeletionRatesJSON struct {
	Pd            float64  `json:"pd"`
	GallagerLower float64  `json:"gallager_lower"`
	ErasureUpper  float64  `json:"erasure_upper"`
	ExactN        int      `json:"exact_n,omitempty"`
	ExactRate     *float64 `json:"exact_rate,omitempty"`
	MCN           int      `json:"mc_n,omitempty"`
	MCSamples     int      `json:"mc_samples,omitempty"`
	MCSeed        *uint64  `json:"mc_seed,omitempty"`
	MCRate        *float64 `json:"mc_rate,omitempty"`
}

// BlahutArimotoJSON is the converted-channel capacity recomputed by
// the Blahut–Arimoto iteration, as a numerical cross-check of the
// closed-form c_conv.
type BlahutArimotoJSON struct {
	Capacity   float64 `json:"capacity"`
	Iterations int     `json:"iterations"`
	Gap        float64 `json:"gap"`
}

// BoundsResponse is the /v1/bounds response body.
type BoundsResponse struct {
	Bounds        BoundsJSON         `json:"bounds"`
	Degraded      *DegradeJSON       `json:"degraded,omitempty"`
	Deletion      *DeletionRatesJSON `json:"deletion,omitempty"`
	BlahutArimoto *BlahutArimotoJSON `json:"blahut_arimoto,omitempty"`
}

// PredictResponse is the /v1/predict response body: the analytic rate
// prediction for one synchronization protocol at one parameter point.
type PredictResponse struct {
	Proto string  `json:"proto"`
	N     int     `json:"n"`
	Pd    float64 `json:"pd"`
	Pi    float64 `json:"pi"`
	Delay int     `json:"delay,omitempty"`
	// PredictedRatePerUse is the analytic information rate in bits per
	// channel use (N(1-Pd)/(1+delay) for proto=delayed).
	PredictedRatePerUse float64 `json:"predicted_rate_per_use"`
	// PaperNormRate is the Theorem 5 normalization where it differs
	// from the per-use accounting (proto=counter).
	PaperNormRate float64    `json:"paper_norm_rate,omitempty"`
	Bounds        BoundsJSON `json:"bounds"`
}

// SimulateResponse is the /v1/simulate response body: the accounting
// of one seeded, supervised, fault-injected protocol run. It is a
// pure function of the echoed request parameters.
type SimulateResponse struct {
	Proto   string  `json:"proto"`
	N       int     `json:"n"`
	Pd      float64 `json:"pd"`
	Pi      float64 `json:"pi"`
	Delay   int     `json:"delay,omitempty"`
	Symbols int     `json:"symbols"`
	Seed    uint64  `json:"seed"`
	Inject  string  `json:"inject"`

	Status            string  `json:"status"`
	Uses              int     `json:"uses"`
	InjectedFaults    int64   `json:"injected_faults"`
	SenderOps         int     `json:"sender_ops"`
	Delivered         int     `json:"delivered"`
	SymbolErrors      int     `json:"symbol_errors"`
	SkippedSymbols    int     `json:"skipped_symbols"`
	ErrorRate         float64 `json:"error_rate"`
	MutualInfoPerSlot float64 `json:"mutual_info_per_slot"`
	InfoRatePerUse    float64 `json:"info_rate_per_use"`
	Chunks            int     `json:"chunks"`
	FailedChunks      int     `json:"failed_chunks"`
	Attempts          int     `json:"attempts"`
	Retries           int     `json:"retries"`
	Resyncs           int     `json:"resyncs"`
	BackoffUses       int64   `json:"backoff_uses"`
}

// TraceEstimateJSON is the empirical Definition 1 estimate recovered
// from observed channel uses: event tallies plus (Pd, Pi, Ps) with
// Wilson 95% confidence intervals (obs.Estimate).
type TraceEstimateJSON struct {
	Uses        int64   `json:"uses"`
	Transmits   int64   `json:"transmits"`
	Substitutes int64   `json:"substitutes"`
	Deletes     int64   `json:"deletes"`
	Inserts     int64   `json:"inserts"`
	Injected    int64   `json:"injected"`
	Pd          float64 `json:"pd"`
	PdLo        float64 `json:"pd_lo"`
	PdHi        float64 `json:"pd_hi"`
	Pi          float64 `json:"pi"`
	PiLo        float64 `json:"pi_lo"`
	PiHi        float64 `json:"pi_hi"`
	Ps          float64 `json:"ps"`
	PsLo        float64 `json:"ps_lo"`
	PsHi        float64 `json:"ps_hi"`
}

// fromEstimate converts an obs.Estimate plus its event tallies into
// the wire form.
func fromEstimate(e obs.Estimate, c obs.UseCounts) TraceEstimateJSON {
	return TraceEstimateJSON{
		Uses: e.Uses, Transmits: c.Transmits, Substitutes: c.Substitutes,
		Deletes: c.Deletes, Inserts: c.Inserts, Injected: c.Injected,
		Pd: e.Pd, PdLo: e.PdLo, PdHi: e.PdHi,
		Pi: e.Pi, PiLo: e.PiLo, PiHi: e.PiHi,
		Ps: e.Ps, PsLo: e.PsLo, PsHi: e.PsHi,
	}
}

// TraceResponse is the /v1/trace response body: /v1/simulate's body
// for the same run with ps applied, the (Pd, Pi, Ps) estimate from the
// run's channel uses, and the capacity bounds at the assumed and at
// the estimated parameters.
type TraceResponse struct {
	SimulateResponse
	Ps float64 `json:"ps"`

	// Estimate is the parameter estimate from the run's uses;
	// AssumedAgrees reports whether the assumed (pd, pi, ps) fall
	// inside its confidence intervals.
	Estimate      TraceEstimateJSON `json:"estimate"`
	AssumedAgrees bool              `json:"assumed_agrees"`
	// Assumed holds the bounds at the requested parameters; Observed
	// holds the bounds recomputed at the estimated parameters (omitted
	// when fault injection pushes the empirical point outside the
	// analytic domain).
	Assumed  BoundsJSON  `json:"assumed_bounds"`
	Observed *BoundsJSON `json:"observed_bounds,omitempty"`
}

// ExperimentInfo is one registry entry in the /v1/experiments catalog.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Index uint64 `json:"index"`
	Title string `json:"title"`
}

// CatalogResponse lists the runnable experiments.
type CatalogResponse struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

// TableJSON is the wire form of an experiment table.
type TableJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	Uses   int64      `json:"uses"`
}

// FromTable converts an experiments.Table into its wire form.
func FromTable(t experiments.Table) TableJSON {
	return TableJSON{ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes, Uses: t.Uses}
}

// ExperimentsResponse is the /v1/experiments run response body.
type ExperimentsResponse struct {
	Seed         uint64      `json:"seed"`
	Symbols      int         `json:"symbols"`
	CodedSymbols int         `json:"coded_symbols"`
	Quanta       int         `json:"quanta"`
	Tables       []TableJSON `json:"tables"`
}

// marshalBody renders a response value as newline-terminated JSON.
// encoding/json is deterministic for struct types, which is what makes
// cached bodies byte-identical to freshly computed ones.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("capserver: encode response: %w", err)
	}
	return append(b, '\n'), nil
}

// queryValues wraps url.Values with validating typed accessors. All
// numeric accessors reject NaN/Inf and malformed input at the service
// boundary (the PR-1 validation convention), so compute kernels only
// ever see finite, in-range parameters.
type queryValues struct {
	url.Values
}

// intParam parses an integer parameter with a default and an
// inclusive range.
func (q queryValues) intParam(name string, def, lo, hi int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, s)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("parameter %s=%d out of [%d,%d]", name, v, lo, hi)
	}
	return v, nil
}

// floatParam parses a finite float parameter with a default.
func (q queryValues) floatParam(name string, def float64) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not a number", name, s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("parameter %s=%v must be finite", name, v)
	}
	return v, nil
}

// uint64Param parses an unsigned integer parameter with a default.
func (q queryValues) uint64Param(name string, def uint64) (uint64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an unsigned integer", name, s)
	}
	return v, nil
}

// boolParam parses a boolean parameter ("1"/"true"/"0"/"false").
func (q queryValues) boolParam(name string, def bool) (bool, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("parameter %s=%q is not a boolean", name, s)
	}
	return v, nil
}
