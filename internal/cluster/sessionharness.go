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
// TestClusterModeKillRestart): it boots a three-member Testbed, streams
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
//     streams (use indices keep climbing past the outage), every
//     session completes its full planned stream, and every event is
//     applied exactly once.
//
// Session state is in-memory by design — the estimator is a live
// tally, not a durable log — so a restarted owner serves resumed
// sessions with post-restart counts. The harness therefore asserts on
// the use cursor (monotone, client-driven, survives the outage), not
// on per-session event totals.

// The session scenario: 48 sessions each post one 40-event batch per
// round for 9 rounds, 17,280 events in all.
const (
	harnessSessions = 48
	harnessRounds   = 9
	harnessBatch    = 40
)

// sessionFault kills n2 before round 3 and restarts it before round 6.
var sessionFault = fault{node: "n2", kill: 3, restart: 6}

// SessionHarnessOptions configures a session fault-harness run.
type SessionHarnessOptions struct {
	// Seed drives the event streams and the client's node picks.
	Seed uint64
	// Out receives progress lines (nil: discarded).
	Out io.Writer
}

// SessionHarnessReport aggregates one session-harness run.
type SessionHarnessReport struct {
	// Applied counts events acknowledged by an owner; Unavailable
	// counts batch posts refused because the owner was down (502 or
	// transport failure at every member); Replayed counts batches the
	// client re-sent after an ambiguous failure and found already
	// applied (409).
	Applied     int64 `json:"applied"`
	Unavailable int   `json:"unavailable"`
	Replayed    int   `json:"replayed"`

	// OutageReads counts the reads of the dead owner's sessions sent
	// through a live member during the outage, and OutageRefused those
	// that answered 502.
	OutageReads   int `json:"outage_reads"`
	OutageRefused int `json:"outage_refused"`

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
		harnessSessions, harnessRounds, harnessBatch, r.Applied, r.Wall.Round(time.Millisecond))
	f := sessionFault
	fmt.Fprintf(w, "fault:      killed %s before round %d, restarted before round %d; unavailable=%d replayed=%d outage_reads=%d (%d answered 502)\n",
		f.node, f.kill, f.restart, r.Unavailable, r.Replayed, r.OutageReads, r.OutageRefused)
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
	if r.Unavailable == 0 {
		fails = append(fails, "no session batch was refused as unavailable while its owner was down")
	}
	if t[routes[routeSessionPeerError].family] == 0 {
		fails = append(fails, "no session forward failed toward the killed node")
	}
	if want := int64(harnessSessions * harnessRounds * harnessBatch); r.Applied != want || r.Replayed != 0 {
		fails = append(fails, fmt.Sprintf("applied %d events with %d replayed batches, want %d applied exactly once", r.Applied, r.Replayed, want))
	}
	if r.OutageReads == 0 || r.OutageRefused != r.OutageReads {
		fails = append(fails, fmt.Sprintf("%d of %d reads of the dead owner's sessions answered 502, want all of at least one", r.OutageRefused, r.OutageReads))
	}
	if retries := t[routes[routeSessionRetry].family]; retries != int64(r.OutageReads) {
		fails = append(fails, fmt.Sprintf("%d session retries, want one per outage read (%d)", retries, r.OutageReads))
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
// stream: total uses with seeded kinds and 4-bit symbols.
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

// RunSessionHarness executes the session-sharded cluster fault
// scenario.
func RunSessionHarness(o SessionHarnessOptions) (*SessionHarnessReport, error) {
	out := orDiscard(o.Out)
	tb, err := StartTestbed(harnessNodes, func(string, int) ProcConfig {
		return ProcConfig{
			Server: capserver.Config{Workers: harnessWorkers, SessionSweep: -1},
			// Sessions never hedge; compute traffic is absent here.
			Cluster: Config{HedgeDelay: -1, PeerBackoff: peerBackoff},
		}
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	f := sessionFault
	ring := tb.Proc(f.node).Node.Ring()

	report := &SessionHarnessReport{}
	dispatch := rng.NewStream(o.Seed, 0x5d15)

	const total = harnessRounds * harnessBatch
	plans := make([][]session.Event, harnessSessions)
	cursors := make([]int, harnessSessions) // next un-acknowledged event index
	ids := make([]string, harnessSessions)
	for i := range plans {
		plans[i] = sessionPlanEvents(o.Seed, i, total)
		ids[i] = fmt.Sprintf("hs-%d-%04d", o.Seed, i)
	}

	// postBatch sends session i's next batch through a seeded node pick
	// (rotating past dead listeners) and advances the cursor on
	// success. A 409 means an earlier ambiguous failure actually
	// landed: the owner's cursor is ahead, so resync from its answer.
	postBatch := func(i int) error {
		if cursors[i] >= total {
			return nil
		}
		end := min(cursors[i]+harnessBatch, total)
		var buf bytes.Buffer
		if err := session.EncodeEvents(&buf, plans[i][cursors[i]:end]); err != nil {
			return err
		}
		resp, _, err := tb.Send(dispatch, http.MethodPost, "/v1/sessions/"+ids[i]+"/events", buf.Bytes())
		if err != nil {
			report.Unavailable++
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			report.Unavailable++
			return nil
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var ack capserver.SessionIngestResponse
			if err := json.Unmarshal(body, &ack); err != nil {
				return fmt.Errorf("session %s: bad ingest ack: %v", ids[i], err)
			}
			report.Applied += int64(ack.Applied)
			cursors[i] = end
		case http.StatusConflict:
			// The batch (or part of it) landed during an ambiguous
			// failure; trust the owner's cursor and move past it.
			report.Replayed++
			cursors[i] = end
		case http.StatusBadGateway, http.StatusServiceUnavailable:
			report.Unavailable++
		default:
			return fmt.Errorf("session %s: unexpected ingest status %d: %s", ids[i], resp.StatusCode, body)
		}
		return nil
	}

	// get reads one session through one member.
	get := func(node, id string) (int, []byte, error) {
		resp, err := tb.Client.Get(tb.URL(node) + "/v1/sessions/" + id)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}

	var live []string
	for _, name := range tb.Names {
		if name != f.node {
			live = append(live, name)
		}
	}
	start := time.Now()
	for round := 0; round < harnessRounds; round++ {
		if err := f.advance(tb, round, "round", out); err != nil {
			return nil, err
		}
		if round == f.kill {
			// Every session the dead node owns, read through a live
			// member, answers 502: the router retries the owner once and
			// never serves a twin.
			for _, id := range ids {
				if ring.Owner(SessionRingKey+id) != f.node {
					continue
				}
				status, _, err := get(live[report.OutageReads%len(live)], id)
				report.OutageReads++
				if err == nil && status == http.StatusBadGateway {
					report.OutageRefused++
				}
			}
		}
		for i := range plans {
			if err := postBatch(i); err != nil {
				return nil, err
			}
		}
	}

	// Drain: sessions that lost rounds to the outage finish their
	// streams against the restarted owner.
	for pass := 0; pass < 2*harnessRounds; pass++ {
		pending := 0
		for i := range plans {
			if cursors[i] < total {
				pending++
				if err := postBatch(i); err != nil {
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
		status, body, err := get(tb.Names[nodeIdx%len(tb.Names)], ids[sessIdx])
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", status, body)
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
			fmt.Fprintf(out, "session %s: final read failed: %v / %v\n", ids[i], errA, errB)
			continue
		}
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if !bytes.Equal(ab, bb) {
			report.ReadMismatches++
			fmt.Fprintf(out, "session %s: reads diverge across nodes\n", ids[i])
			continue
		}
		var lastUse int64
		if err := json.Unmarshal(a["last_use"], &lastUse); err != nil || lastUse != int64(total) {
			report.ReadMismatches++
			fmt.Fprintf(out, "session %s: cursor at %d, want %d\n", ids[i], lastUse, total)
		}
	}

	report.Nodes = memberCounts(tb, routeSessionOwned, numRoutes)
	return report, nil
}
