package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/capserver"
	"repro/internal/health"
	"repro/internal/obs"
)

// This file is the alert-lifecycle fault harness behind `capwatch -mode
// harness` (and its -assert gate): it boots a three-member Testbed
// whose members run the health engine on explicit ticks (no wall-clock
// ticker), kills the node that owns the probe path, and checks the
// full verdict lifecycle the health layer promises:
//
//   - the surviving members walk degraded-routing through the exact
//     inactive -> pending -> firing sequence while the owner is down,
//     and back to inactive after it returns — a timeline that is a pure
//     function of the options, byte-identical at any -jobs level,
//     because per-tick counter increments depend on which requests were
//     sent, never on the order concurrent sends completed;
//   - a monitor-side engine polling the killed node's /metrics across
//     the restart sees its counters reset to zero and produces zero
//     spurious transitions (the counter-reset clamp in Ring.Increase).

// HealthHarnessOptions configures an alert-lifecycle harness run.
type HealthHarnessOptions struct {
	// Seed varies the probe path, and with it which member owns the
	// path and gets killed.
	Seed uint64
	// Jobs is the per-tick request send parallelism, at least 1. The
	// timeline must not depend on it; the -assert gate runs two levels
	// and diffs.
	Jobs int
	// Out receives progress lines (nil: discarded).
	Out io.Writer
}

// requestsPerTick is the per-tick workload, spread round-robin over the
// live members.
const requestsPerTick = 12

// The phase lengths in health ticks: all-healthy baseline, owner
// down, owner restarted.
const (
	warmTicks     = 4
	deadTicks     = 6
	recoveryTicks = 10
)

// harnessRules is the member-side rule set: one rule, so the expected
// timeline is exact. At the engine's default 5s tick the 10s window is
// two ticks; any degradation at all breaches, and two clean windows
// plus the clearfor hold resolve it.
const harnessRules = `rule degraded-routing: rate(cluster_degraded_total) > 0.01 over 10s for 2 clear 0.005 clearfor 3 severity page`

// monitorRules is the monitor-side rule set fed from the killed node's
// scraped /metrics. The reset guard can only fire if a windowed
// increase ever goes negative — exactly what a naive newest-minus-
// oldest implementation does when the scraped process restarts — so
// any transition at all is a spurious firing.
const monitorRules = `rule reset-guard: increase(cluster_owned_local_total) < 0 over 2s severity page`

// HealthReport aggregates one alert-lifecycle harness run.
type HealthReport struct {
	Ticks    int `json:"ticks"`
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Killed is the member that owned the probe path and was killed.
	Killed string `json:"killed"`
	// Timeline is the merged member-side transition log, one line per
	// state change, in (tick, node) order — the artifact the -jobs
	// byte-identity gate diffs.
	Timeline []string `json:"timeline"`
	// MonitorTimeline is the monitor engine's transition log; any
	// entry is a spurious firing across the counter reset.
	MonitorTimeline []string `json:"monitor_timeline,omitempty"`
	// SawReset reports the monitor actually observed the killed node's
	// counters fall across the restart (the gate is vacuous otherwise),
	// and PreKillOwned the owned-local count it fell from.
	SawReset     bool  `json:"saw_reset"`
	PreKillOwned int64 `json:"pre_kill_owned"`

	Wall time.Duration `json:"-"`
}

// Format renders the report for humans.
func (r *HealthReport) Format(w io.Writer) {
	fmt.Fprintf(w, "ticks:     %d (%d requests, %d errors) in %v\n",
		r.Ticks, r.Requests, r.Errors, r.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "fault:     killed %s before tick %d, restarted before tick %d; owned-local %d -> reset seen=%v\n",
		r.Killed, warmTicks, warmTicks+deadTicks, r.PreKillOwned, r.SawReset)
	fmt.Fprintf(w, "timeline:\n")
	for _, line := range r.Timeline {
		fmt.Fprintf(w, "  %s\n", line)
	}
	if len(r.MonitorTimeline) > 0 {
		fmt.Fprintf(w, "monitor SPURIOUS transitions:\n")
		for _, line := range r.MonitorTimeline {
			fmt.Fprintf(w, "  %s\n", line)
		}
	} else {
		fmt.Fprintf(w, "monitor:   0 transitions across the counter reset\n")
	}
}

// Assert is the acceptance gate for `capwatch -mode harness -assert`
// and TestHealthHarnessLifecycle.
func (r *HealthReport) Assert(survivors []string) error {
	var fails []string
	if r.Errors != 0 {
		fails = append(fails, fmt.Sprintf("%d requests failed", r.Errors))
	}
	joined := "\n" + strings.Join(r.Timeline, "\n") + "\n"
	for _, name := range survivors {
		for _, hop := range []string{"inactive->pending", "pending->firing", "firing->inactive"} {
			if !strings.Contains(joined, " node="+name+" rule=degraded-routing "+hop+" ") {
				fails = append(fails, fmt.Sprintf("%s never walked degraded-routing through %s", name, hop))
			}
		}
	}
	if strings.Contains(joined, " node="+r.Killed+" ") {
		fails = append(fails, fmt.Sprintf("killed node %s produced its own transitions", r.Killed))
	}
	if len(r.MonitorTimeline) != 0 {
		fails = append(fails, fmt.Sprintf("monitor produced %d spurious transitions across the restart", len(r.MonitorTimeline)))
	}
	if !r.SawReset {
		fails = append(fails, "monitor never observed the counter reset (gate vacuous)")
	}
	if r.PreKillOwned == 0 {
		fails = append(fails, "killed node owned nothing locally before the kill (gate vacuous)")
	}
	if len(fails) > 0 {
		return fmt.Errorf("cluster: health harness assertions failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}

// RunHealthHarness executes one alert-lifecycle harness run and
// returns the report plus the surviving member names (Assert's input).
func RunHealthHarness(o HealthHarnessOptions) (*HealthReport, []string, error) {
	if o.Jobs < 1 {
		return nil, nil, fmt.Errorf("cluster: Jobs %d: want at least 1", o.Jobs)
	}
	out := orDiscard(o.Out)
	rules, err := health.ParseRules(harnessRules)
	if err != nil {
		return nil, nil, err
	}
	monRules, err := health.ParseRules(monitorRules)
	if err != nil {
		return nil, nil, err
	}

	// Every member runs the engine on explicit ticks (HealthTick 0: no
	// wall-clock ticker) over the registry its capserver shares with
	// its router, so the degraded-routing rule can see the routing
	// counters. Hedging is off: a hedge racing a retry would make the
	// per-tick degraded count depend on timing.
	tb, err := StartTestbed([]string{"h1", "h2", "h3"}, func(string, int) ProcConfig {
		return ProcConfig{
			Server:  capserver.Config{Workers: 2, QueueDepth: 64, HealthRules: rules},
			Cluster: Config{HedgeDelay: -1, PeerBackoff: peerBackoff},
		}
	})
	if err != nil {
		return nil, nil, err
	}
	defer tb.Close()

	// The probe path: every request in the run hits it, so its ring
	// owner is the member whose death degrades everyone else. The seed
	// picks the point, and with it the victim.
	path := fmt.Sprintf("/v1/bounds?n=%d&pd=0.2&pi=0.1", 4+int(o.Seed%8))
	req, err := http.NewRequest(http.MethodGet, "http://placeholder"+path, nil)
	if err != nil {
		return nil, nil, err
	}
	key, ok := tb.Proc(tb.Names[0]).Server.Canonicalize(req)
	if !ok {
		return nil, nil, fmt.Errorf("cluster: probe path %s is not canonicalizable", path)
	}
	ring, err := NewRing(tb.Names)
	if err != nil {
		return nil, nil, err
	}
	killName := ring.Owner(key)
	var survivors []string
	for _, name := range tb.Names {
		if name != killName {
			survivors = append(survivors, name)
		}
	}

	report := &HealthReport{Killed: killName}
	monitor, err := health.NewEngine(health.Config{
		Rules:        monRules,
		TickInterval: time.Second,
	})
	if err != nil {
		return nil, nil, err
	}

	// sendTick spreads the tick's requests round-robin over the live
	// members, o.Jobs at a time. Which member gets how many requests is
	// a pure function of the live set, so per-tick counter increments —
	// and therefore the whole timeline — do not depend on Jobs.
	sendTick := func() {
		var live []string
		for _, name := range tb.Names {
			if !tb.down[name] {
				live = append(live, name)
			}
		}
		sem := make(chan struct{}, o.Jobs)
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i := 0; i < requestsPerTick; i++ {
			url := tb.URL(live[i%len(live)]) + path
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				resp, err := tb.Client.Get(url)
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				mu.Lock()
				report.Requests++
				if err != nil {
					report.Errors++
				}
				mu.Unlock()
			}()
		}
		wg.Wait()
	}

	// monitorTick scrapes the killed member's /metrics into the monitor
	// engine; while it is down the engine gets an empty snapshot (every
	// series unknown: hold state, no transition).
	var lastOwned int64
	monitorTick := func(tick int) {
		var snap obs.RegistrySnapshot
		resp, err := tb.Client.Get(tb.URL(killName) + "/metrics")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				counters, _, perr := parseMetricsSnapshot(body)
				if perr == nil {
					for name, v := range counters {
						snap.Series = append(snap.Series, obs.SeriesSample{Name: name, Kind: "counter", Value: v})
					}
					if v := counters["cluster_owned_local_total"]; v < lastOwned {
						report.SawReset = true
					} else {
						lastOwned = v
					}
				}
			}
		}
		for _, tr := range monitor.Tick(snap) {
			report.MonitorTimeline = append(report.MonitorTimeline,
				fmt.Sprintf("tick=%02d rule=%s %s->%s value=%s", tick, tr.Rule, tr.From, tr.To, tr.Value))
		}
	}

	f := fault{node: killName, kill: warmTicks, restart: warmTicks + deadTicks}
	fmt.Fprintf(out, "probe %s is owned by %s\n", path, killName)
	total := warmTicks + deadTicks + recoveryTicks
	start := time.Now()
	for tick := 0; tick < total; tick++ {
		if tick == f.kill {
			report.PreKillOwned = lastOwned
		}
		if err := f.advance(tb, tick, "tick", out); err != nil {
			return nil, nil, err
		}
		sendTick()
		for _, name := range tb.Names {
			if tb.down[name] {
				continue
			}
			for _, tr := range tb.Proc(name).Server.TickHealth() {
				report.Timeline = append(report.Timeline,
					fmt.Sprintf("tick=%02d node=%s rule=%s %s->%s value=%s", tick, name, tr.Rule, tr.From, tr.To, tr.Value))
			}
		}
		monitorTick(tick)
	}
	report.Ticks = total
	report.Wall = time.Since(start)
	return report, survivors, nil
}
