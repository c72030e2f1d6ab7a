package faultinject

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Spec is a parsed -inject flag: an ordered list of fault layers, each
// with one magnitude, the one setting its layer constructor takes.
// The compact grammar keeps command lines and experiment configs
// readable.
//
// Grammar: comma- or semicolon-separated items of the form kind=value,
// where kind is one of outage, drift, jam, stuck, and value is the
// layer's magnitude, in (0, 1), or in (0, 0.5) for drift:
//
//	outage=F  outage windows covering long-run fraction F of uses
//	drift=M   extra Pd and Pi each random-walking in [0, M]
//	jam=F     jamming bursts covering fraction F of uses (Pi 0.5 inside)
//	stuck=F   stuck-at windows covering fraction F of uses
//
// Layers are applied in listed order, each wrapping the previous, so
// the last item is outermost. Example: "outage=0.2;jam=0.1".
type Spec []SpecItem

// SpecItem is one layer request.
type SpecItem struct {
	// Kind is the layer name: outage, drift, jam or stuck.
	Kind string
	// Value is the layer magnitude (a fraction or probability bound).
	Value float64
}

// specKinds lists the accepted kinds, for error messages.
func specKinds() []string {
	ks := []string{"outage", "drift", "jam", "stuck"}
	sort.Strings(ks)
	return ks
}

// ParseSpec parses the -inject grammar. The empty string parses to an
// empty Spec (no injection).
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, item := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ';' }) {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kind, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: spec item %q is not kind=value", item)
		}
		kind = strings.ToLower(strings.TrimSpace(kind))
		switch kind {
		case "outage", "drift", "jam", "stuck":
		default:
			return nil, fmt.Errorf("faultinject: unknown fault kind %q (want %s)", kind, strings.Join(specKinds(), ", "))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: spec item %q: bad value: %v", item, err)
		}
		if math.IsNaN(v) || v <= 0 || v >= 1 {
			return nil, fmt.Errorf("faultinject: spec item %q: magnitude must be in (0,1)", item)
		}
		if kind == "drift" && v >= driftLimit {
			return nil, fmt.Errorf("faultinject: spec item %q: drift magnitude must be in (0,%v)", item, driftLimit)
		}
		spec = append(spec, SpecItem{Kind: kind, Value: v})
	}
	return spec, nil
}

// String renders the spec back in the grammar ParseSpec accepts.
func (s Spec) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = fmt.Sprintf("%s=%v", it.Kind, it.Value)
	}
	return strings.Join(parts, ";")
}

// Stack is a built spec: the outermost channel plus the individual
// layers for inspection.
type Stack struct {
	top    channel.UseChannel
	layers []Layer
}

// Use serves one use from the outermost layer.
func (st *Stack) Use(queued uint32) channel.Use { return st.top.Use(queued) }

// Injected sums the override counts of every layer.
func (st *Stack) Injected() int64 {
	var n int64
	for _, l := range st.layers {
		n += l.Injected()
	}
	return n
}

// Layers returns the built layers, innermost first.
func (st *Stack) Layers() []Layer { return st.layers }

// EmitSummary records one "layer" trace event per built layer
// (innermost first) with its name and cumulative override count — the
// fault-injection layer state a trace analysis sees alongside the
// per-use events. A nil tracer no-ops.
func (st *Stack) EmitSummary(tr *obs.Tracer) {
	for _, l := range st.layers {
		tr.Event("layer", obs.S("layer", l.Name()), obs.I("injected", l.Injected()))
	}
}

// Build wraps inner with the spec's layers in order, drawing each
// layer's randomness from an independent split of src. Symbol width n
// is needed by insertion-generating layers. An empty spec returns a
// stack that is a transparent view of inner.
func (s Spec) Build(inner channel.UseChannel, n int, src *rng.Source) (*Stack, error) {
	if inner == nil {
		return nil, fmt.Errorf("faultinject: nil inner channel")
	}
	if src == nil {
		return nil, fmt.Errorf("faultinject: nil randomness source")
	}
	st := &Stack{top: inner}
	for _, it := range s {
		var (
			l   Layer
			err error
		)
		switch it.Kind {
		case "outage":
			l, err = NewOutage(st.top, it.Value, src.Split())
		case "drift":
			l, err = NewDrift(st.top, it.Value, n, src.Split())
		case "jam":
			l, err = NewJam(st.top, it.Value, n, src.Split())
		case "stuck":
			l, err = NewStuck(st.top, it.Value, src.Split())
		default:
			err = fmt.Errorf("faultinject: unknown fault kind %q", it.Kind)
		}
		if err != nil {
			return nil, err
		}
		st.top = l
		st.layers = append(st.layers, l)
	}
	return st, nil
}
