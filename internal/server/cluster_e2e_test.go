package server_test

// Multi-replica cluster tests over loopback HTTP: three real servers,
// a consistent-hash ring, the real client. The correctness bar is the
// session ledger — across ring changes and a replica kill, delivered
// events must stay monotonic in TotalSteps with the sum of StepsAdded
// equal to the final total: no duplicated and no silently lost steps.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ptrack"
	"ptrack/client"
	"ptrack/internal/cluster"
	"ptrack/internal/obs"
	"ptrack/internal/server"
	"ptrack/internal/wire"
)

// replica is one booted cluster member.
type replica struct {
	name string
	srv  *server.Server
	cl   *cluster.Cluster
	base string
	reg  *obs.Registry
}

// startReplica boots one cluster member with an empty ring (it owns
// everything until a membership is installed — the bootstrap order for
// ephemeral ports, which are unknown before Start).
func startReplica(t *testing.T, name string, sampleRate float64, interval time.Duration) *replica {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Self: name})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv, base := startServer(t, server.Config{
		SampleRate:         sampleRate,
		Cluster:            cl,
		CheckpointInterval: interval,
		Hooks:              obs.NewHooks(reg),
	})
	return &replica{name: name, srv: srv, cl: cl, base: base, reg: reg}
}

// activeStreams reads a replica's attached-SSE-subscriber gauge.
// Proxied subscriptions terminate at the session's owner, so the gauge
// tells which replica actually holds a client's stream.
func activeStreams(r *replica) float64 {
	return r.reg.Gauge("ptrack_http_event_streams_active",
		"SSE event streams currently attached to the serving layer.").Value()
}

// membership builds the node list for the given replicas.
func membership(reps ...*replica) []cluster.Node {
	nodes := make([]cluster.Node, len(reps))
	for i, r := range reps {
		nodes[i] = cluster.Node{Name: r.name, URL: r.base}
	}
	return nodes
}

// postRing installs a membership on one replica over the admin API and
// returns the ring version it reports.
func postRing(t *testing.T, base string, nodes []cluster.Node) string {
	t.Helper()
	body, err := json.Marshal(struct {
		Nodes []cluster.Node `json:"nodes"`
	}{nodes})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/cluster/ring", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cluster/ring: status %d", resp.StatusCode)
	}
	var info struct {
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info.Version
}

// ringVersion reads a replica's installed ring version over the
// introspection API.
func ringVersion(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info.Version
}

// sessionOwnedBy probes session IDs until one's ring owner is the
// named node.
func sessionOwnedBy(t *testing.T, r *cluster.Ring, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("walker-%d", i)
		if n, ok := r.Owner(id); ok && n.Name == owner {
			return id
		}
	}
	t.Fatalf("no probe session owned by %q", owner)
	return ""
}

// checkLedger asserts the delivered event sequence is a consistent
// step ledger: TotalSteps never decreases (a reset or a duplicated
// replay would decrease it or re-add steps) and the sum of StepsAdded
// equals the final total (a lost event would leave the sum short).
func checkLedger(t *testing.T, evs []ptrack.Event) {
	t.Helper()
	total, last := 0, 0
	for i, ev := range evs {
		total += ev.StepsAdded
		if ev.TotalSteps < last {
			t.Fatalf("event %d: TotalSteps went backwards: %d after %d", i, ev.TotalSteps, last)
		}
		last = ev.TotalSteps
	}
	if total != last {
		t.Fatalf("sum of StepsAdded = %d but final TotalSteps = %d (events duplicated or lost)", total, last)
	}
	if last == 0 {
		t.Fatal("ledger counted no steps")
	}
}

// TestClusterE2ERingChangeMigratesSession is the migration bar: a
// session streams into a 3-replica ring through a non-owner entry
// replica (proxy routing), the ring shrinks to exclude the session's
// owner, and the stream continues on the new owner with a monotonic
// ledger — the snapshot handoff, the `moved` SSE notice and the
// client's reconnect all composing.
func TestClusterE2ERingChangeMigratesSession(t *testing.T) {
	tr := walkingTrace(t, 30)
	cut := len(tr.Samples) / 2
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	a := startReplica(t, "a", tr.SampleRate, 50*time.Millisecond)
	b := startReplica(t, "b", tr.SampleRate, 50*time.Millisecond)
	c := startReplica(t, "c", tr.SampleRate, 50*time.Millisecond)
	reps := []*replica{a, b, c}

	nodes := membership(a, b, c)
	var version string
	for i, r := range reps {
		v := postRing(t, r.base, nodes)
		if i == 0 {
			version = v
		} else if v != version {
			t.Fatalf("replica %s installed ring %s, want %s", r.name, v, version)
		}
	}
	for _, r := range reps {
		if v := ringVersion(t, r.base); v != version {
			t.Fatalf("replica %s reports ring %s, want %s", r.name, v, version)
		}
	}

	// A session owned by b, driven through a — every request crosses the
	// routing layer.
	id := sessionOwnedBy(t, a.cl.Ring(), "b")
	cli, err := client.Dial(a.base)
	if err != nil {
		t.Fatal(err)
	}
	es, err := cli.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	sess := cli.Session(id)
	if err := sess.Push(ctx, tr.Samples[:cut]...); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Shrink the ring: b leaves. b migrates first (checkpoint + handoff
	// under its new ring), then the survivors reroute.
	shrunk := membership(a, c)
	postRing(t, b.base, shrunk)
	postRing(t, a.base, shrunk)
	postRing(t, c.base, shrunk)
	owner, _ := a.cl.Owner(id)
	if owner.Name == "b" {
		t.Fatalf("session still owned by departed replica")
	}

	// Wait for the client's SSE stream, ended by `moved`, to reattach on
	// the new owner before pushing again: events emitted with no
	// subscriber attached are not buffered for it.
	newOwner := a
	if owner.Name == "c" {
		newOwner = c
	}
	for start := time.Now(); activeStreams(newOwner) < 1; {
		if time.Since(start) > 30*time.Second {
			t.Fatal("client event stream never reattached on the new owner")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The stream must continue on the new owner: same client, same
	// session handle, no reset.
	if err := sess.Push(ctx, tr.Samples[cut:]...); err != nil {
		t.Fatal(err)
	}
	if err := sess.End(ctx); err != nil {
		t.Fatal(err)
	}
	evs := drainEvents(t, es)
	if len(evs) == 0 {
		t.Fatal("no events delivered")
	}
	checkLedger(t, evs)
	if es.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", es.Dropped())
	}
}

// hubSamples reads one session's drained-sample count and queue depth
// from a server's introspection handler (no listener needed).
func hubSamples(t *testing.T, srv *server.Server, id string) (samples int64, queued int) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.SessionsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/sessions", nil))
	var body struct {
		Sessions []struct {
			ID       string `json:"session"`
			QueueLen int    `json:"queue_len"`
			Samples  int64  `json:"samples"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, s := range body.Sessions {
		if s.ID == id {
			return s.Samples, s.QueueLen
		}
	}
	return 0, 0
}

// TestClusterE2EReplicaKillFailsOver is the failover bar: with
// snapshots replicated to two owners, killing the session's primary
// mid-stream (no drain, no flush — a crash) loses no checkpointed
// progress. The survivors install a shrunk ring, the session resumes
// from the backup replica's snapshot copy, and the delivered ledger
// stays monotonic with no duplicated or lost step events.
func TestClusterE2EReplicaKillFailsOver(t *testing.T) {
	tr := walkingTrace(t, 30)
	cut := len(tr.Samples) / 2
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Tight checkpoints: the crash loses at most a few milliseconds of
	// progress, and the quiesce below makes that window empty.
	a := startReplica(t, "a", tr.SampleRate, 5*time.Millisecond)
	b := startReplica(t, "b", tr.SampleRate, 5*time.Millisecond)
	c := startReplica(t, "c", tr.SampleRate, 5*time.Millisecond)
	reps := []*replica{a, b, c}
	nodes := membership(a, b, c)
	for _, r := range reps {
		if err := r.srv.SetRing(nodes); err != nil {
			t.Fatal(err)
		}
	}

	// A session owned by b, driven through a (proxy mode: the client
	// never learns the topology). b will be killed.
	id := sessionOwnedBy(t, a.cl.Ring(), "b")
	owners := a.cl.Owners(id)
	if len(owners) != 2 || owners[0].Name != "b" {
		t.Fatalf("owners = %+v, want primary b plus one backup", owners)
	}
	backup := owners[1]

	cli, err := client.Dial(a.base, client.WithRetry(8, 50*time.Millisecond, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	es, err := cli.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	sess := cli.Session(id)
	if err := sess.Push(ctx, tr.Samples[:cut]...); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Quiesce: wait until b's tracker has drained every pushed sample,
	// then give the checkpoint ticker time to replicate the final state
	// to the backup owner. After this, everything the client saw is
	// covered by the snapshot — the kill loses nothing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		samples, queued := hubSamples(t, b.srv, id)
		if samples >= int64(cut) && queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never drained on b: samples=%d queued=%d", samples, queued)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond)
	blobURL := backup.URL + "/v1/state/" + base64.RawURLEncoding.EncodeToString([]byte(id))
	resp, err := http.Get(blobURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backup %s has no snapshot copy: status %d", backup.Name, resp.StatusCode)
	}

	// Crash the primary, then install the shrunk ring on the survivors.
	b.srv.Kill()
	shrunk := membership(a, c)
	for _, r := range []*replica{a, c} {
		if err := r.srv.SetRing(shrunk); err != nil {
			t.Fatal(err)
		}
	}

	// Wait for the client's dropped SSE stream to reattach on the new
	// owner before pushing again — events emitted with no subscriber
	// attached are not buffered for it, and this test must prove the
	// failover path loses nothing, so the race is removed, not ignored.
	newOwner := a
	if n, _ := a.cl.Owner(id); n.Name == "c" {
		newOwner = c
	}
	for start := time.Now(); activeStreams(newOwner) < 1; {
		if time.Since(start) > 30*time.Second {
			t.Fatal("client event stream never reattached on the new owner")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The stream continues through the entry replica: the new owner
	// restores the session from the backup's snapshot on first push.
	if err := sess.Push(ctx, tr.Samples[cut:]...); err != nil {
		t.Fatal(err)
	}
	if err := sess.End(ctx); err != nil {
		t.Fatal(err)
	}
	evs := drainEvents(t, es)
	if len(evs) == 0 {
		t.Fatal("no events delivered")
	}
	checkLedger(t, evs)
	if es.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0 (no silent loss across failover)", es.Dropped())
	}
}

// TestClusterE2EForwardedRefusedOnNonOwner pins the ring-disagreement
// rule on every session route: a forwarded push, subscription or end
// that lands on a replica whose ring names another owner is refused
// with 503 + Retry-After: 1 and code shard_moved, and leaves nothing
// behind there — no session, no event stream, no snapshot. Serving it
// would split one walk across two trackers.
func TestClusterE2EForwardedRefusedOnNonOwner(t *testing.T) {
	a := startReplica(t, "a", 100, time.Second)
	b := startReplica(t, "b", 100, time.Second)
	// a routes by {a, b}; b has not yet learned that it joined.
	if err := a.srv.SetRing(membership(a, b)); err != nil {
		t.Fatal(err)
	}
	if err := b.srv.SetRing(membership(a)); err != nil {
		t.Fatal(err)
	}
	id := sessionOwnedBy(t, a.cl.Ring(), "b")
	session := a.base + "/v1/sessions/" + id

	push := wire.AppendBinaryHeader(nil)
	for i := 0; i < ptrack.BlockSamples; i++ {
		var sm ptrack.Sample
		sm.T, sm.Accel.Z = float64(i)/100, 9.81
		push = wire.AppendSampleBinary(push, sm)
	}
	cases := []struct {
		name, method, url, contentType string
		body                           []byte
	}{
		{"push", http.MethodPost, session + "/samples", wire.ContentTypeBinary, push},
		{"events", http.MethodGet, session + "/events", "", nil},
		{"end", http.MethodDelete, session, "", nil},
	}
	// The timeout bounds a regression that parks a stream instead.
	hc := &http.Client{Timeout: 10 * time.Second}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.url, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := hc.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("forwarded %s on non-owner: status %d, want 503", tc.name, resp.StatusCode)
			}
			var body wire.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body.Code != wire.CodeShardMoved {
				t.Errorf("error code = %q, want %s", body.Code, wire.CodeShardMoved)
			}
			if got := resp.Header.Get("Retry-After"); got != "1" {
				t.Errorf("Retry-After = %q, want 1", got)
			}

			if n := activeStreams(b); n != 0 {
				t.Errorf("non-owner holds %v event streams, want 0", n)
			}
			rec := httptest.NewRecorder()
			b.srv.SessionsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/sessions", nil))
			if strings.Contains(rec.Body.String(), fmt.Sprintf("%q", id)) {
				t.Errorf("non-owner hosts session %s: %s", id, rec.Body.String())
			}
			st, err := http.Get(b.base + "/v1/state/" + base64.RawURLEncoding.EncodeToString([]byte(id)))
			if err != nil {
				t.Fatal(err)
			}
			st.Body.Close()
			if st.StatusCode != http.StatusNotFound {
				t.Errorf("non-owner snapshot lookup: status %d, want 404", st.StatusCode)
			}
		})
	}
}
