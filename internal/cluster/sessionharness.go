package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/capserver"
	"repro/internal/channel"
	"repro/internal/rng"
	"repro/internal/session"
)

// This file is the session-sharded counterpart of the fault harness in
// harness.go, behind `sessload -mode cluster` (cmd/sessload's
// TestClusterModeKillRestart): it boots an N-node Testbed, streams
// per-session event batches through whichever node the seeded client
// picks (the routers forward each batch to the session's ring owner),
// kills and restarts the owner of a slice of the sessions mid-run, and
// checks the properties session sharding promises:
//
//   - single ownership: every batch for a session lands on exactly one
//     node, wherever the client sent it, and reads through any node
//     return that owner's state;
//   - honest unavailability: while a session's owner is down, writes
//     and reads for it fail with 502 — they are never served from a
//     stale twin elsewhere (the no-degrade discipline of
//     Node.routeSession);
//   - recovery: after the owner restarts, clients resume their event
//     streams (use indices keep climbing past the outage) and every
//     session completes its full planned stream.
//
// Session state is in-memory by design — the estimator is a live
// tally, not a durable log — so a restarted owner serves resumed
// sessions with post-restart counts. The harness therefore asserts on
// the use cursor (monotone, client-driven, survives the outage), not
// on event totals.

// SessionHarnessOptions configures a session fault-harness run.
type SessionHarnessOptions struct {
	// Nodes are the member names (default n1, n2, n3).
	Nodes []string
	// Sessions is the concurrent session count (default 48).
	Sessions int
	// Rounds is the number of batch rounds: every session posts one
	// batch per round (default 9).
	Rounds int
	// EventsPerBatch sizes each NDJSON batch (default 40).
	EventsPerBatch int
	// Seed drives the event streams and the client's node picks
	// (default 1).
	Seed uint64
	// KillNode is the member to kill (default the middle node in
	// sorted order). Ignored when KillAfter < 0.
	KillNode string
	// KillAfter kills KillNode just before this round (default
	// Rounds/3). Negative disables the fault.
	KillAfter int
	// RestartAfter restarts the killed node just before this round
	// (default 2*Rounds/3). Negative leaves it down.
	RestartAfter int
	// Out receives progress lines (default: discard).
	Out io.Writer
}

func (o SessionHarnessOptions) withDefaults() SessionHarnessOptions {
	if len(o.Nodes) == 0 {
		o.Nodes = []string{"n1", "n2", "n3"}
	}
	if o.Sessions <= 0 {
		o.Sessions = 48
	}
	if o.Rounds <= 0 {
		o.Rounds = 9
	}
	if o.EventsPerBatch <= 0 {
		o.EventsPerBatch = 40
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// SessionHarnessReport aggregates one session-harness run.
type SessionHarnessReport struct {
	Sessions       int `json:"sessions"`
	Rounds         int `json:"rounds"`
	EventsPerBatch int `json:"events_per_batch"`

	// Applied counts events acknowledged by an owner; Unavailable
	// counts batch posts refused because the owner was down (502 or
	// transport failure at every member); Replayed counts batches the
	// client re-sent after an ambiguous failure and found already
	// applied (409).
	Applied     int64 `json:"applied"`
	Unavailable int   `json:"unavailable"`
	Replayed    int   `json:"replayed"`

	Killed    string `json:"killed,omitempty"`
	Restarted bool   `json:"restarted"`

	// Incomplete counts sessions whose event stream did not finish;
	// ReadMismatches counts final reads that disagreed across nodes or
	// ended at the wrong use cursor.
	Incomplete     int `json:"incomplete"`
	ReadMismatches int `json:"read_mismatches"`

	Nodes map[string]NodeCounters `json:"nodes"`
	Wall  time.Duration           `json:"-"`
}

// Totals sums the per-member session counts.
func (r *SessionHarnessReport) Totals() NodeCounters { return sumCounts(r.Nodes) }

// Format renders the report for humans.
func (r *SessionHarnessReport) Format(w io.Writer) {
	fmt.Fprintf(w, "sessions:   %d x %d rounds x %d events (%d applied) in %v\n",
		r.Sessions, r.Rounds, r.EventsPerBatch, r.Applied, r.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "fault:      unavailable=%d replayed=%d", r.Unavailable, r.Replayed)
	if r.Killed != "" {
		fmt.Fprintf(w, " killed=%s restarted=%v", r.Killed, r.Restarted)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "final:      incomplete=%d read_mismatches=%d\n", r.Incomplete, r.ReadMismatches)
	formatCounts(w, r.Nodes, routeSessionOwned, numRoutes)
}

// Assert is the acceptance gate for `sessload -mode cluster -assert`.
func (r *SessionHarnessReport) Assert() error {
	var fails []string
	t := r.Totals()
	if t[routes[routeSessionOwned].family] == 0 {
		fails = append(fails, "no session batch was ever served by an owner")
	}
	if t[routes[routeSessionForward].family] == 0 {
		fails = append(fails, "no session batch was ever forwarded (sharding never crossed nodes?)")
	}
	if r.Killed != "" {
		if r.Unavailable == 0 {
			fails = append(fails, "node killed but no session batch was refused as unavailable")
		}
		if t[routes[routeSessionPeerError].family] == 0 {
			fails = append(fails, "node killed but no session forward failed toward it")
		}
	}
	if r.Incomplete != 0 {
		fails = append(fails, fmt.Sprintf("%d sessions did not complete their event streams", r.Incomplete))
	}
	if r.ReadMismatches != 0 {
		fails = append(fails, fmt.Sprintf("%d final reads diverged across nodes", r.ReadMismatches))
	}
	if len(fails) > 0 {
		return fmt.Errorf("cluster: session harness assertions failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}

// sessionPlanEvents builds session i's full deterministic event
// stream: Rounds*EventsPerBatch uses with seeded kinds and symbols.
func sessionPlanEvents(seed uint64, i, total int) []session.Event {
	src := rng.NewStream(seed, uint64(0x5e55)+uint64(i))
	events := make([]session.Event, total)
	for u := 0; u < total; u++ {
		ev := session.Event{Use: int64(u + 1)}
		sym := uint32(src.Intn(16))
		switch draw := src.Float64(); {
		case draw < 0.08:
			ev.Kind, ev.Sent = channel.EventDelete, sym
		case draw < 0.13:
			ev.Kind, ev.Received = channel.EventInsert, sym
		case draw < 0.17:
			ev.Kind, ev.Sent, ev.Received = channel.EventSubstitute, sym, sym^1
		default:
			ev.Kind, ev.Sent, ev.Received = channel.EventTransmit, sym, sym
		}
		events[u] = ev
	}
	return events
}

// RunSessionHarness executes a session-sharded cluster fault run.
func RunSessionHarness(o SessionHarnessOptions) (*SessionHarnessReport, error) {
	o = o.withDefaults()
	tb, err := StartTestbed(o.Nodes, func(string, int) ProcConfig {
		return ProcConfig{
			Server: capserver.Config{Workers: 2, SessionSweep: -1},
			// Sessions never hedge; compute traffic is absent here.
			Cluster: Config{HedgeDelay: -1, PeerBackoff: peerBackoff},
		}
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	fault, err := Fault{Node: o.KillNode, KillAt: o.KillAfter, RestartAt: o.RestartAfter}.resolve(tb.Names, o.Rounds)
	if err != nil {
		return nil, err
	}

	report := &SessionHarnessReport{Sessions: o.Sessions, Rounds: o.Rounds, EventsPerBatch: o.EventsPerBatch}
	dispatch := rng.NewStream(o.Seed, 0x5d15)

	total := o.Rounds * o.EventsPerBatch
	plans := make([][]session.Event, o.Sessions)
	cursors := make([]int, o.Sessions) // next un-acknowledged event index
	ids := make([]string, o.Sessions)
	for i := range plans {
		plans[i] = sessionPlanEvents(o.Seed, i, total)
		ids[i] = fmt.Sprintf("hs-%d-%04d", o.Seed, i)
	}

	// postBatch sends session i's next EventsPerBatch events through a
	// seeded node pick (rotating past dead listeners) and advances the
	// cursor on success. A 409 means an earlier ambiguous failure
	// actually landed: the owner's cursor is ahead, so resync from its
	// answer. Returns false when the owner was unreachable.
	postBatch := func(i int) (bool, error) {
		if cursors[i] >= total {
			return true, nil
		}
		end := cursors[i] + o.EventsPerBatch
		if end > total {
			end = total
		}
		var buf bytes.Buffer
		if err := session.EncodeEvents(&buf, plans[i][cursors[i]:end]); err != nil {
			return false, err
		}
		resp, _, err := tb.Send(dispatch, http.MethodPost, "/v1/sessions/"+ids[i]+"/events", buf.Bytes())
		if err != nil {
			report.Unavailable++
			return false, nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			report.Unavailable++
			return false, nil
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var ack capserver.SessionIngestResponse
			if err := json.Unmarshal(body, &ack); err != nil {
				return false, fmt.Errorf("session %s: bad ingest ack: %v", ids[i], err)
			}
			report.Applied += int64(ack.Applied)
			cursors[i] = end
			return true, nil
		case http.StatusConflict:
			// The batch (or part of it) landed during an ambiguous
			// failure; trust the owner's cursor and move past it.
			report.Replayed++
			cursors[i] = end
			return true, nil
		case http.StatusBadGateway, http.StatusServiceUnavailable:
			report.Unavailable++
			return false, nil
		default:
			return false, fmt.Errorf("session %s: unexpected ingest status %d: %s", ids[i], resp.StatusCode, body)
		}
	}

	start := time.Now()
	for round := 0; round < o.Rounds; round++ {
		if fault.killsAt(round) {
			tb.Kill(fault.Node)
			report.Killed = fault.Node
			fmt.Fprintf(o.Out, "round %d: killed %s (%s)\n", round, fault.Node, tb.Proc(fault.Node).Addr)
		}
		if fault.restartsAt(round) {
			if err := tb.Restart(fault.Node); err != nil {
				return nil, err
			}
			report.Restarted = true
			fmt.Fprintf(o.Out, "round %d: restarted %s (%s)\n", round, fault.Node, tb.Proc(fault.Node).Addr)
		}
		for i := range plans {
			if _, err := postBatch(i); err != nil {
				return nil, err
			}
		}
	}

	// Drain: sessions that lost rounds to the outage finish their
	// streams against the restarted owner. Bounded, and only useful
	// when the owner came back.
	for pass := 0; pass < 2*o.Rounds; pass++ {
		pending := 0
		for i := range plans {
			if cursors[i] < total {
				pending++
				if _, err := postBatch(i); err != nil {
					return nil, err
				}
			}
		}
		if pending == 0 {
			break
		}
	}
	for i := range plans {
		if cursors[i] < total {
			report.Incomplete++
		}
	}
	report.Wall = time.Since(start)

	// Final reads: each session through two distinct nodes must agree
	// byte-for-byte after dropping bounds_source (the only field that
	// legitimately differs between a cache miss and the hit it seeds),
	// and the owner's cursor must sit at the end of the planned stream.
	readVia := func(nodeIdx, sessIdx int) (map[string]json.RawMessage, error) {
		resp, err := tb.Client.Get(tb.URL(tb.Names[nodeIdx%len(tb.Names)]) + "/v1/sessions/" + ids[sessIdx])
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		delete(m, "bounds_source")
		return m, nil
	}
	for i := range plans {
		a, errA := readVia(i, i)
		b, errB := readVia(i+1, i)
		if errA != nil || errB != nil {
			report.ReadMismatches++
			fmt.Fprintf(o.Out, "session %s: final read failed: %v / %v\n", ids[i], errA, errB)
			continue
		}
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if !bytes.Equal(ab, bb) {
			report.ReadMismatches++
			fmt.Fprintf(o.Out, "session %s: reads diverge across nodes\n", ids[i])
			continue
		}
		var lastUse int64
		if err := json.Unmarshal(a["last_use"], &lastUse); err != nil || lastUse != int64(total) {
			report.ReadMismatches++
			fmt.Fprintf(o.Out, "session %s: cursor at %d, want %d\n", ids[i], lastUse, total)
		}
	}

	report.Nodes = memberCounts(tb, routeSessionOwned, numRoutes)
	return report, nil
}
