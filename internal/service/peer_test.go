package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pipesched/internal/cluster"
	"pipesched/internal/service/cache"
	"pipesched/internal/workload"
)

// newPeerTestServer builds a peer-aware node whose only peer is peerURL.
// The unstarted-server trick resolves this node's own address before the
// topology is built. Short forward/backoff windows keep failure tests in
// the millisecond range. Replicas is pinned to 1: these tests cover the
// single-owner forward semantics, and in a two-node fleet the default
// R=2 would put self in every key's replica set (no forwards at all).
func newPeerTestServer(t *testing.T, peerURL string, timeout, backoff time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	self := "http://" + ts.Listener.Addr().String()
	topo, err := cluster.NewTopology([]string{self, peerURL}, self)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Cluster: &ClusterConfig{
		Topology:       topo,
		Replicas:       1,
		ForwardTimeout: timeout,
		PeerBackoff:    backoff,
	}})
	ts.Config.Handler = s
	ts.Start()
	t.Cleanup(ts.Close)
	return s, ts
}

// deadPeerURL reserves a loopback port and closes it again: a peer
// address that refuses connections immediately.
func deadPeerURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}

// peerOwnedBody probes from seedBase for an instance whose canonical key
// the peer owns, identified behaviourally by wantTier on a cold request
// ("fallback" against a dead peer, "remote-miss" against a live stub).
// Self-owned keys ("miss", or "hit" when a probe re-walks cached seeds)
// are skipped. Returns the body and the response that carried wantTier.
func peerOwnedBody(t *testing.T, ts *httptest.Server, wantTier string, seedBase int64) ([]byte, []byte) {
	t.Helper()
	for seed := seedBase; seed < seedBase+24; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: seed})
		body := solveBody(t, in, map[string]any{"bound": 1e6})
		resp, got := post(t, ts, "/v1/solve", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe solve: status %d: %s", resp.StatusCode, got)
		}
		switch tier := resp.Header.Get("X-Cache"); tier {
		case wantTier:
			return body, got
		case "miss", "hit":
			continue // self-owned (or already cached); try the next seed
		default:
			t.Fatalf("probe got tier %q, want %q or \"miss\"", tier, wantTier)
		}
	}
	t.Fatal("no peer-owned key in 24 seeds — suspicious ownership skew")
	return nil, nil
}

// TestPeerOwnerDownFallsBack: the owner refuses connections, so a
// peer-owned key degrades to a local solve — HTTP 200, tier "fallback",
// counted in metrics — and the solved bytes are installed locally, so
// the repeat is a plain hit.
func TestPeerOwnerDownFallsBack(t *testing.T) {
	s, ts := newPeerTestServer(t, deadPeerURL(t), 300*time.Millisecond, 50*time.Millisecond)

	body, first := peerOwnedBody(t, ts, "fallback", 500)
	c := s.Metrics().Cluster
	if c == nil || c.Fallbacks == 0 {
		t.Fatalf("fallback not counted: %+v", c)
	}
	if c.Forwarded != 0 {
		t.Fatalf("forward counted against a dead peer: %+v", c)
	}

	resp, second := post(t, ts, "/v1/solve", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat after fallback: status %d tier %q, want 200 \"hit\"", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Fatal("fallback solve and cached repeat returned different bytes")
	}
}

// TestPeerSlowOwnerHitsForwardTimeout: an owner that hangs past the
// forward timeout costs exactly one timeout, then stays marked down for
// the backoff window — the next peer-owned miss falls back immediately
// instead of waiting out another timeout.
func TestPeerSlowOwnerHitsForwardTimeout(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer func() { close(release); slow.Close() }()

	const timeout = 150 * time.Millisecond
	s, ts := newPeerTestServer(t, slow.URL, timeout, time.Minute)

	start := time.Now()
	_, _ = peerOwnedBody(t, ts, "fallback", 600)
	if s.Metrics().Cluster.Fallbacks == 0 {
		t.Fatal("slow owner did not register a fallback")
	}
	firstTook := time.Since(start)
	if firstTook < timeout {
		t.Fatalf("first peer-owned solve returned in %v — the forward timeout (%v) never fired", firstTook, timeout)
	}

	// The peer is now down: a second fresh peer-owned key must fall back
	// without paying the timeout again.
	start = time.Now()
	for seed := int64(900); seed < 924; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: seed})
		resp, _ := post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": 1e6}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d while peer down", resp.StatusCode)
		}
	}
	if took := time.Since(start); took > 24*timeout/2 {
		t.Fatalf("24 solves against a down peer took %v — forwards are still being attempted", took)
	}
}

// TestPeerForwardRelaysOwnerBytes: a live owner's response body is
// relayed verbatim, its cache disposition mapped to remote-hit /
// remote-miss, and the bytes installed locally as a second-tier hit.
func TestPeerForwardRelaysOwnerBytes(t *testing.T) {
	ownerBody := []byte(`{"relayed":"verbatim"}`)
	var mu sync.Mutex
	ownerTier := "miss"
	sawForwardHeader := false
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		tier := ownerTier
		sawForwardHeader = r.Header.Get(cluster.ForwardHeader) != ""
		mu.Unlock()
		w.Header().Set("X-Cache", tier)
		w.Write(ownerBody)
	}))
	defer owner.Close()

	s, ts := newPeerTestServer(t, owner.URL, time.Second, time.Minute)

	body, got := peerOwnedBody(t, ts, "remote-miss", 700)
	if !bytes.Equal(got, ownerBody) {
		t.Fatalf("forwarded body not relayed verbatim: %s", got)
	}
	mu.Lock()
	saw := sawForwardHeader
	mu.Unlock()
	if !saw {
		t.Fatal("forward did not carry the loop-prevention header")
	}
	c := s.Metrics().Cluster
	if c.Forwarded == 0 || c.RemoteMisses == 0 {
		t.Fatalf("forward not counted: %+v", c)
	}

	// Second-tier: the relayed bytes are now a local hit.
	resp, second := post(t, ts, "/v1/solve", body)
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(second, ownerBody) {
		t.Fatalf("relayed bytes not installed locally: tier %q body %s", resp.Header.Get("X-Cache"), second)
	}

	// An owner-side cache hit maps to remote-hit.
	mu.Lock()
	ownerTier = "hit"
	mu.Unlock()
	if _, _ = peerOwnedBody(t, ts, "remote-hit", 750); s.Metrics().Cluster.RemoteHits == 0 {
		t.Fatalf("remote hit not counted: %+v", s.Metrics().Cluster)
	}
}

// TestPeerForwardedRequestNeverReforwarded: a request already carrying
// the forward header is served locally even when a peer owns its key and
// that peer is unreachable — no second hop, no fallback accounting, no
// loop.
func TestPeerForwardedRequestNeverReforwarded(t *testing.T) {
	s, ts := newPeerTestServer(t, deadPeerURL(t), 300*time.Millisecond, time.Minute)

	in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: 1})
	body := solveBody(t, in, map[string]any{"bound": 1e6})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d", resp.StatusCode)
	}
	if tier := resp.Header.Get("X-Cache"); tier != "miss" {
		t.Fatalf("forwarded request served tier %q, want a plain local \"miss\"", tier)
	}
	c := s.Metrics().Cluster
	if c.OwnedForwards != 1 {
		t.Fatalf("owned_forwards = %d, want 1", c.OwnedForwards)
	}
	if c.Fallbacks != 0 || c.Forwarded != 0 {
		t.Fatalf("forwarded request triggered peer traffic: %+v", c)
	}
}

// TestSyncOverBoundPeer: a peer whose cache holds more entries than
// cluster.MaxDigestKeys (it runs a larger -cache-entries) still serves a
// digest every node accepts, so a sync round against it succeeds and
// pulls at most the bound — mixed cache sizes never stop convergence.
func TestSyncOverBoundPeer(t *testing.T) {
	bigTS, pullTS := httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	bigURL := "http://" + bigTS.Listener.Addr().String()
	pullURL := "http://" + pullTS.Listener.Addr().String()
	node := func(ts *httptest.Server, self string, entries int) *Server {
		topo, err := cluster.NewTopology([]string{bigURL, pullURL}, self)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{CacheEntries: entries, Cluster: &ClusterConfig{Topology: topo}})
		ts.Config.Handler = s
		ts.Start()
		t.Cleanup(ts.Close)
		return s
	}
	big := node(bigTS, bigURL, 4096)
	puller := node(pullTS, pullURL, 0)

	const held = cluster.MaxDigestKeys + cluster.MaxDigestKeys/2
	for i := 0; i < held; i++ {
		var k cache.Key
		binary.LittleEndian.PutUint64(k[:], uint64(i))
		big.cache.Put(k, []byte(`{"entry":true}`))
	}
	if n := big.cache.Len(); n <= cluster.MaxDigestKeys {
		t.Fatalf("peer holds %d entries, want more than the bound %d", n, cluster.MaxDigestKeys)
	}

	// Two nodes, default R=2: the puller replicates every key, so the
	// whole digest is its want-list.
	n, err := puller.SyncOnce(context.Background())
	if err != nil {
		t.Fatalf("sync against an over-bound peer: %v", err)
	}
	if n == 0 || n > cluster.MaxDigestKeys {
		t.Fatalf("sync pulled %d entries, want 1..%d", n, cluster.MaxDigestKeys)
	}
}

// TestSingleNodeHasNoClusterSurface: without a cluster config the peer
// routes do not exist and metrics carry no cluster section — single-node
// deployments keep exactly the old surface.
func TestSingleNodeHasNoClusterSurface(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, _ := get(t, ts, cluster.DigestPath)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("digest endpoint exposed in single-node mode")
	}
	if s.Metrics().Cluster != nil {
		t.Fatal("metrics carry a cluster section in single-node mode")
	}
	if n, err := s.WarmFromPeers(context.Background()); n != 0 || err != nil {
		t.Fatalf("single-node WarmFromPeers = (%d, %v), want (0, nil)", n, err)
	}
}

// lateBodyTransport stands in for a replica whose transport reads the
// request body late, as http.RoundTripper allows: a round trip to host
// blocks until its request is cancelled, then until release closes, and
// only then reads the body. It records any body whose bytes changed in
// between; a round trip to any other host goes straight to base.
type lateBodyTransport struct {
	host    string
	base    http.RoundTripper
	release chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	late    int
	changed []string
}

func (lt *lateBodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host != lt.host {
		return lt.base.RoundTrip(req)
	}
	lt.wg.Add(1)
	defer lt.wg.Done()
	defer req.Body.Close()
	snap, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	sent, _ := io.ReadAll(snap)
	<-req.Context().Done()
	<-lt.release
	got, _ := io.ReadAll(req.Body)
	lt.mu.Lock()
	lt.late++
	if !bytes.Equal(got, sent) {
		lt.changed = append(lt.changed, string(got))
	}
	lt.mu.Unlock()
	return nil, req.Context().Err()
}

// TestPeerHedgeLoserOwnsItsBody pins the forward path's ownership of the
// request bytes. The body is read into a pooled buffer that the next
// request reuses as soon as the handler returns, but a hedged forward
// does not wait for its losing attempt, whose transport may read the
// body later. The forward must therefore send a copy: here the first
// replica's transport reads only after later requests have reused the
// pooled buffer, and it must still read the bytes the client sent.
func TestPeerHedgeLoserOwnsItsBody(t *testing.T) {
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte(`{"replica":true}`))
	}))
	t.Cleanup(fast.Close)
	slow := deadPeerURL(t) // never dialled: its round trips are lateBodyTransport's
	lt := &lateBodyTransport{host: strings.TrimPrefix(slow, "http://"), base: http.DefaultTransport, release: make(chan struct{})}
	ts := httptest.NewUnstartedServer(nil)
	self := "http://" + ts.Listener.Addr().String()
	topo, err := cluster.NewTopology([]string{self, slow, fast.URL}, self)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Cluster: &ClusterConfig{
		Topology:       topo,
		Replicas:       2,
		ForwardTimeout: 5 * time.Second,
		HedgeAfter:     time.Millisecond,
		PeerBackoff:    time.Minute,
		Transport:      lt,
	}})
	ts.Config.Handler = s
	ts.Start()
	t.Cleanup(ts.Close)

	hedged := 0
	for seed := int64(900); seed < 1100 && hedged < 8; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: seed})
		resp, got := post(t, ts, "/v1/solve", solveBody(t, in, map[string]any{"bound": 1e6}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if resp.Header.Get("X-Cache") == "hedged-hit" {
			hedged++
		}
	}
	close(lt.release)
	lt.wg.Wait()
	if hedged == 0 || lt.late == 0 {
		t.Fatalf("%d hedged answers, %d late reads: the test did not exercise a losing attempt", hedged, lt.late)
	}
	if len(lt.changed) > 0 {
		t.Fatalf("%d of %d losing attempts read a body overwritten by a later request, e.g. %.80q", len(lt.changed), lt.late, lt.changed[0])
	}
}
