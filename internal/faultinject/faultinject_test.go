package faultinject

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
)

// cleanChannel returns a mild deletion–insertion channel for wrapping.
func cleanChannel(t *testing.T, seed uint64) *channel.DeletionInsertion {
	t.Helper()
	ch, err := channel.NewDeletionInsertion(channel.Params{N: 4, Pd: 0.05, Pi: 0.02}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// eventCounts drives a layer for uses uses and tallies event kinds.
func eventCounts(ch channel.UseChannel, uses int) map[channel.EventKind]int {
	counts := make(map[channel.EventKind]int)
	for i := 0; i < uses; i++ {
		counts[ch.Use(uint32(i%16)).Kind]++
	}
	return counts
}

func TestOutageFractionConverges(t *testing.T) {
	const uses = 400000
	for _, frac := range []float64{0.1, 0.2, 0.4} {
		o, err := NewOutage(cleanChannel(t, 1), frac, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		eventCounts(o, uses)
		got := float64(o.Injected()) / uses
		if math.Abs(got-frac) > 0.03 {
			t.Errorf("outage fraction %v: injected fraction %v, want within 0.03", frac, got)
		}
	}
}

func TestOutageDeletesEverythingInsideWindows(t *testing.T) {
	// Fraction ~1 is disallowed; instead open windows half the time
	// and check uses inside report deletions.
	o, err := NewOutage(cleanChannel(t, 1), 0.5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	deletes := 0
	for i := 0; i < 10000; i++ {
		before := o.Injected()
		u := o.Use(5)
		if o.Injected() > before {
			if u.Kind != channel.EventDelete || !u.Consumed {
				t.Fatalf("in-outage use produced %v (consumed %v), want consuming deletion", u.Kind, u.Consumed)
			}
			deletes++
		}
	}
	if deletes == 0 {
		t.Fatal("no outage windows opened in 10000 uses at fraction 0.5")
	}
}

func TestDriftStaysWithinBounds(t *testing.T) {
	d, err := NewDrift(cleanChannel(t, 1), 0.2, 4, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		d.Use(3)
		pd, pi := d.Extra()
		if pd < 0 || pd > 0.2 || pi < 0 || pi > 0.2 {
			t.Fatalf("use %d: drift walked out of bounds: extraPd=%v extraPi=%v", i, pd, pi)
		}
	}
	if d.Injected() == 0 {
		t.Error("drift layer injected nothing in 100000 uses")
	}
}

func TestJamSpikesInsertions(t *testing.T) {
	base := eventCounts(cleanChannel(t, 1), 200000)
	const fraction = 0.48
	j, err := NewJam(cleanChannel(t, 1), fraction, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	jammed := eventCounts(j, 200000)
	baseFrac := float64(base[channel.EventInsert]) / 200000
	jamFrac := float64(jammed[channel.EventInsert]) / 200000
	// Expected extra insertions: fraction * jamPi = 0.24 on top of ~0.02.
	want := fraction * jamPi
	if jamFrac < baseFrac+0.15 {
		t.Errorf("jam insertion fraction %v vs base %v: spike too small", jamFrac, baseFrac)
	}
	if got := float64(j.Injected()) / 200000; math.Abs(got-want) > 0.03 {
		t.Errorf("jam injected fraction %v, want ~%v", got, want)
	}
}

func TestStuckFreezesDeliveredValue(t *testing.T) {
	// A noiseless pass-through channel makes frozen values visible:
	// any delivered symbol differing from the queued one was overridden.
	ch, err := channel.NewDeletionInsertion(channel.Params{N: 4}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStuck(ch, 0.4, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	overridden := 0
	for i := 0; i < 50000; i++ {
		queued := uint32(i % 16)
		before := s.Injected()
		u := s.Use(queued)
		if s.Injected() > before {
			overridden++
			if u.Kind != channel.EventSubstitute {
				t.Fatalf("overridden transmit reported %v, want substitution", u.Kind)
			}
			if u.Delivered == queued {
				t.Fatal("overridden delivery equals queued symbol but was counted as injected")
			}
		} else if u.Delivered != queued {
			t.Fatalf("uncounted override: queued %d delivered %d", queued, u.Delivered)
		}
	}
	if overridden == 0 {
		t.Fatal("stuck layer never froze a value in 50000 uses at fraction 0.4")
	}
}

// TestLayersAreDeterministic replays a full stack twice from the same
// seeds and requires identical event traces — the property every
// experiment's byte-identical output rests on.
func TestLayersAreDeterministic(t *testing.T) {
	build := func() channel.UseChannel {
		ch := cleanChannel(t, 11)
		spec, err := ParseSpec("outage=0.2;drift=0.1;jam=0.1;stuck=0.05")
		if err != nil {
			t.Fatal(err)
		}
		st, err := spec.Build(ch, 4, rng.New(12))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := build(), build()
	for i := 0; i < 100000; i++ {
		ua, ub := a.Use(uint32(i%16)), b.Use(uint32(i%16))
		if ua != ub {
			t.Fatalf("use %d: replay diverged: %+v vs %+v", i, ua, ub)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ch := cleanChannel(t, 1)
	src := rng.New(1)
	cases := []struct {
		name  string
		build func() error
	}{
		{"outage fraction 1", func() error {
			_, err := NewOutage(ch, 1, src)
			return err
		}},
		{"outage nil inner", func() error {
			_, err := NewOutage(nil, 0.1, src)
			return err
		}},
		{"drift bounds sum to 1", func() error {
			_, err := NewDrift(ch, 0.5, 4, src)
			return err
		}},
		{"drift zero magnitude", func() error {
			_, err := NewDrift(ch, 0, 4, src)
			return err
		}},
		{"drift bad width", func() error {
			_, err := NewDrift(ch, 0.1, 0, src)
			return err
		}},
		{"stuck nil source", func() error {
			_, err := NewStuck(ch, 0.1, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.build() == nil {
				t.Fatal("expected a validation error")
			}
		})
	}
}
