package faultinject

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec(" Outage=0.2 ; jam=0.1, stuck=0.05 ")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{{Kind: "outage", Value: 0.2}, {Kind: "jam", Value: 0.1}, {Kind: "stuck", Value: 0.05}}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("ParseSpec = %+v, want %+v", spec, want)
	}
}

func TestParseSpecEmpty(t *testing.T) {
	for _, s := range []string{"", " ", ";;,"} {
		spec, err := ParseSpec(s)
		if err != nil || len(spec) != 0 {
			t.Errorf("ParseSpec(%q) = %v, %v; want empty, nil", s, spec, err)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{"outage", "outage=", "outage=x", "outage=0", "outage=1", "outage=-0.1", "outage=NaN", "flood=0.2"} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q): expected error", s)
		}
	}
}

func TestSpecBuildComposesInOrder(t *testing.T) {
	spec, err := ParseSpec("outage=0.2;drift=0.1;jam=0.1;stuck=0.05")
	if err != nil {
		t.Fatal(err)
	}
	st, err := spec.Build(cleanChannel(t, 1), 4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, l := range st.Layers() {
		names = append(names, l.Name())
	}
	if got := strings.Join(names, ","); got != "outage,drift,jam,stuck" {
		t.Fatalf("layer order = %s, want outage,drift,jam,stuck", got)
	}
	for i := 0; i < 50000; i++ {
		st.Use(uint32(i % 16))
	}
	if st.Injected() == 0 {
		t.Error("full stack injected nothing in 50000 uses")
	}
}

// TestRecorderCountsOverriddenUses checks that a recorder over a stack
// whose layers can override the same use counts uses, not overrides:
// its live Injected tally equals the count ReadTrace recovers from the
// per-use flags, while the layers' own override counts sum higher.
func TestRecorderCountsOverriddenUses(t *testing.T) {
	spec, err := ParseSpec("drift=0.1;stuck=0.3")
	if err != nil {
		t.Fatal(err)
	}
	st, err := spec.Build(cleanChannel(t, 3), 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	rec, err := obs.NewChannelRecorder(st, tr, st.Injected)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		rec.Use(uint32(i % 16))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Counts().Injected, sum.Injected; got != want {
		t.Errorf("recorder counts %d injected uses, trace flags %d", got, want)
	}
	if sum.Injected >= st.Injected() {
		t.Errorf("no use overridden twice (%d flagged uses, %d overrides): the check is vacuous", sum.Injected, st.Injected())
	}
}

func TestSpecBuildEmptyIsTransparent(t *testing.T) {
	a := cleanChannel(t, 3)
	b := cleanChannel(t, 3)
	st, err := Spec(nil).Build(b, 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if ua, ub := a.Use(uint32(i%16)), st.Use(uint32(i%16)); ua != ub {
			t.Fatalf("use %d: empty stack altered the channel: %+v vs %+v", i, ua, ub)
		}
	}
	if st.Injected() != 0 {
		t.Errorf("empty stack reports %d injected uses", st.Injected())
	}
}

// FuzzParseSpec pins two properties: the parser never panics on
// arbitrary input, and every accepted spec round-trips through its
// String rendering unchanged.
func FuzzParseSpec(f *testing.F) {
	f.Add("outage=0.2;jam=0.1")
	f.Add("drift=0.05, stuck=0.9")
	f.Add("")
	f.Add("outage=1e-3")
	f.Add("flood=0.2")
	f.Add("outage=0.2;;,")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("rendered spec %q failed to reparse: %v", spec.String(), err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round-trip changed spec: %+v -> %q -> %+v", spec, spec.String(), again)
		}
	})
}
