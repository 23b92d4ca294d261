// Chaos suite: the in-process half of the fault-injection acceptance
// story. Each test wires internal/faultinject into the fleet harness the
// way scripts/cluster_e2e.sh wires cmd/chaosproxy — the chaotic node's
// *advertised* URL points at a fault-injecting proxy while its real
// listener stays clean — and then asserts the one property the whole PR
// exists for: scheduled peer-path faults never surface to clients, and
// every client-visible body stays byte-identical to a single clean node.
// The names share the Fleet prefix so the CI cluster lane (-run Fleet)
// runs them under -race.
package cluster_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pipesched/internal/cluster"
	"pipesched/internal/faultinject"
	"pipesched/internal/loadgen"
	"pipesched/internal/service"
)

// startChaosFleet brings up a 3-node fleet in which node 2 is advertised
// through a fault-injecting reverse proxy: every forward, hedge and
// anti-entropy pull that targets node 2 crosses the schedule, while
// nodes 0 and 1 (and node 2's own listener) stay clean. hedgeAfter is
// kept well under the injected latency so delayed forwards actually
// hedge.
func startChaosFleet(t testing.TB, sched *faultinject.Schedule) (*fleet, *faultinject.Proxy) {
	t.Helper()
	f := &fleet{}
	for i := 0; i < 3; i++ {
		ts := httptest.NewUnstartedServer(nil)
		f.http = append(f.http, ts)
		f.urls = append(f.urls, "http://"+ts.Listener.Addr().String())
	}
	proxy, err := faultinject.NewProxy(f.urls[2], sched)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewUnstartedServer(proxy)
	t.Cleanup(front.Close)
	// The topology lists the proxy where node 2's direct URL would be;
	// f.urls keeps the direct addresses so the load stream below talks to
	// the daemons the way external clients do.
	topoURLs := []string{f.urls[0], f.urls[1], "http://" + front.Listener.Addr().String()}
	for i := 0; i < 3; i++ {
		topo, err := cluster.NewTopology(topoURLs, topoURLs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Options{
			Cluster: &service.ClusterConfig{
				Topology:       topo,
				ForwardTimeout: time.Second,
				HedgeAfter:     30 * time.Millisecond,
				PeerBackoff:    100 * time.Millisecond,
			},
		})
		f.srvs = append(f.srvs, srv)
		f.http[i].Config.Handler = srv
	}
	t.Cleanup(func() {
		for _, ts := range f.http {
			ts.Close()
		}
	})
	f.startAll()
	front.Start()
	return f, proxy
}

// TestFleetChaosFlappingPeer is the core chaos acceptance check: one
// node's peer traffic suffers flapping latency, 5xx bursts and dropped
// connections under a seeded schedule, and a verified Zipf stream across
// the whole fleet must still complete with zero client-visible errors
// and zero byte mismatches against a clean single-node reference.
func TestFleetChaosFlappingPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test in -short mode")
	}
	sched := &faultinject.Schedule{
		Seed: 42,
		Rules: []faultinject.Rule{
			// Flapping latency: slow for 400ms out of every 800ms, enough
			// past hedgeAfter that delayed forwards hedge to a replica.
			{Name: "lag", LatencyMS: 120, JitterMS: 60, PeriodMS: 800, OnMS: 400},
			// 5xx bursts: 300ms out of every 700ms, 60% of requests.
			{Name: "burst", Status: 500, StatusProb: 0.6, PeriodMS: 700, OnMS: 300},
			// Background connection drops.
			{Name: "part", DropProb: 0.15},
		},
	}
	f, proxy := startChaosFleet(t, sched)
	ref := startReference(t)

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:      f.urls, // direct daemon addresses; only peer traffic crosses the proxy
		VerifyTarget: ref.URL,
		Workers:      8,
		Requests:     400,
		Keys:         24,
		Seed:         7,
		Stages:       6, Processors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 400 {
		t.Fatalf("sent %d of 400", rep.Sent)
	}
	if rep.Errors != 0 || rep.Mismatches != 0 {
		t.Fatalf("peer-path chaos leaked to clients: %d errors, %d mismatches (tiers %v, statuses %v)",
			rep.Errors, rep.Mismatches, rep.Tiers, rep.Statuses)
	}
	// The schedule must actually have fired, or the run proved nothing.
	st := proxy.Stats()
	if st.Requests == 0 {
		t.Fatal("no peer traffic crossed the chaos proxy — topology wiring is wrong")
	}
	if st.Delayed+st.Dropped+st.Statuses == 0 {
		t.Fatalf("schedule injected nothing across %d proxied requests: %+v", st.Requests, st)
	}
	// And the fleet must have absorbed faults through its failure ladder:
	// hedges, marked-down retries against replicas, or local fallback.
	absorbed := rep.Tiers["hedged-hit"] + rep.Tiers["fallback"] +
		rep.Tiers["remote-hit"] + rep.Tiers["remote-miss"]
	if absorbed == 0 {
		t.Fatalf("no request took a failover path under chaos: tiers %v", rep.Tiers)
	}
	t.Logf("chaos run: proxy %+v, tiers %v", st, rep.Tiers)
}

// restartableNode is a fixed listener whose backing *service.Server can
// be swapped: Store(nil) is the crash (connections get 503, which peers
// treat as a down peer and clients in the load stream never see because
// a restarting node is drained from the target pool), Store(fresh) is
// the restart on the same address.
type restartableNode struct {
	srv atomic.Pointer[service.Server]
}

func (n *restartableNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if srv := n.srv.Load(); srv != nil {
		srv.ServeHTTP(w, r)
		return
	}
	http.Error(w, "restarting", http.StatusServiceUnavailable)
}

// TestFleetChaosRollingRestart restarts one node in place: its keys must
// fail over to the surviving replica while it is down, and after the
// restart the cold instance must warm back from its peers and serve
// local hits on keys only its pre-crash incarnation solved.
func TestFleetChaosRollingRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test in -short mode")
	}
	f := &fleet{}
	var nodes [3]*restartableNode
	for i := 0; i < 3; i++ {
		nodes[i] = &restartableNode{}
		ts := httptest.NewUnstartedServer(nodes[i])
		f.http = append(f.http, ts)
		f.urls = append(f.urls, "http://"+ts.Listener.Addr().String())
	}
	newNode := func(i int) *service.Server {
		topo, err := cluster.NewTopology(f.urls, f.urls[i])
		if err != nil {
			t.Fatal(err)
		}
		return service.New(service.Options{
			Cluster: &service.ClusterConfig{
				Topology:       topo,
				ForwardTimeout: 500 * time.Millisecond,
				PeerBackoff:    100 * time.Millisecond,
			},
		})
	}
	for i := 0; i < 3; i++ {
		f.srvs = append(f.srvs, newNode(i))
		nodes[i].srv.Store(f.srvs[i])
	}
	t.Cleanup(func() {
		for _, ts := range f.http {
			ts.Close()
		}
	})
	f.startAll()
	ref := startReference(t)

	warm, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:  f.urls,
		Workers:  8,
		Requests: 150,
		Keys:     24,
		Seed:     7,
		Stages:   6, Processors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Errors != 0 {
		t.Fatalf("warm phase saw %d errors", warm.Errors)
	}

	// Crash node 2. The load stream drains it (rolling restarts take the
	// node out of the balancer first), but its keys keep arriving at the
	// survivors, who must fail over to the remaining replica.
	nodes[2].srv.Store(nil)
	during, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:      f.urls[:2],
		VerifyTarget: ref.URL,
		Workers:      8,
		Requests:     150,
		Keys:         24,
		Seed:         11,
		Stages:       6, Processors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if during.Errors != 0 || during.Mismatches != 0 {
		t.Fatalf("restart window leaked to clients: %d errors, %d mismatches (tiers %v, statuses %v)",
			during.Errors, during.Mismatches, during.Tiers, during.Statuses)
	}

	// Restart: a fresh cold instance on the same address warms back from
	// its peers before rejoining the pool.
	fresh := newNode(2)
	nodes[2].srv.Store(fresh)
	f.srvs[2] = fresh
	n, err := fresh.WarmFromPeers(context.Background())
	if err != nil {
		t.Fatalf("post-restart warm-up: %v", err)
	}
	if n == 0 {
		t.Fatal("post-restart warm-up imported nothing although peers hold entries")
	}

	after, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:      f.urls,
		VerifyTarget: ref.URL,
		Workers:      8,
		Requests:     150,
		Keys:         24,
		Seed:         13,
		Stages:       6, Processors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.Errors != 0 || after.Mismatches != 0 {
		t.Fatalf("restarted fleet diverged: %d errors, %d mismatches (tiers %v, statuses %v)",
			after.Errors, after.Mismatches, after.Tiers, after.Statuses)
	}
}

// TestFleetChaosMembershipReload shrinks a 3-node fleet to 2 via
// ReloadTopology — the dynamic-membership path the daemon drives from a
// peers-file change — and checks the handoff, one anti-entropy round
// under the new view: keys whose replica set newly includes a survivor
// are installed there before the departed node stops answering, so the
// shrink costs no correctness and leaves the survivors digest-equal.
func TestFleetChaosMembershipReload(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test in -short mode")
	}
	f := startFleet(t, 3)
	f.startAll()
	ref := startReference(t)

	warm, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:  f.urls,
		Workers:  8,
		Requests: 200,
		Keys:     24,
		Seed:     7,
		Stages:   6, Processors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Errors != 0 {
		t.Fatalf("warm phase saw %d errors", warm.Errors)
	}

	// Reload nodes 0 and 1 onto a topology without node 2. With R=2 over
	// two nodes every key is owned by both, so each survivor must pick up
	// the keys it was not already a replica for.
	handed := 0
	for i := 0; i < 2; i++ {
		topo, err := cluster.NewTopology(f.urls[:2], f.urls[i])
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.srvs[i].ReloadTopology(context.Background(), topo)
		if err != nil {
			t.Fatalf("node %d reload: %v", i, err)
		}
		handed += n
		c := f.srvs[i].Metrics().Cluster
		if c == nil || c.Reloads != 1 {
			t.Fatalf("node %d metrics do not record the reload: %+v", i, c)
		}
		if c.Peers != 2 {
			t.Fatalf("node %d still reports %d peers after shrink", i, c.Peers)
		}
	}
	if handed == 0 {
		t.Fatal("shrinking 3->2 handed off no entries although both survivors gained ownership")
	}
	if a, b := fetchDigestKeys(t, f.urls[0]), fetchDigestKeys(t, f.urls[1]); !slices.Equal(a, b) {
		t.Fatalf("survivors not digest-equal after the handoff: %d vs %d keys", len(a), len(b))
	}

	// The departed node can now actually die; the shrunken fleet must
	// serve the same stream clean, with no forwards aimed at the corpse.
	f.http[2].Close()
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:      f.urls[:2],
		VerifyTarget: ref.URL,
		Workers:      8,
		Requests:     200,
		Keys:         24,
		Seed:         11,
		Stages:       6, Processors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Mismatches != 0 {
		t.Fatalf("post-shrink fleet diverged: %d errors, %d mismatches (tiers %v, statuses %v)",
			rep.Errors, rep.Mismatches, rep.Tiers, rep.Statuses)
	}
	// Both survivors own every key now, so nothing should fall back.
	if rep.Tiers["fallback"] != 0 {
		t.Fatalf("post-shrink stream fell back %d times: %v", rep.Tiers["fallback"], rep.Tiers)
	}
}
