package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"pipesched/internal/workload"
)

func TestDaemonPeerFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"peers-without-advertise", []string{"-peers", "http://a:1,http://b:2"}},
		{"advertise-without-peers", []string{"-advertise", "http://a:1"}},
		{"advertise-not-in-peers", []string{"-peers", "http://a:1,http://b:2", "-advertise", "http://c:3"}},
		{"duplicate-peer", []string{"-peers", "http://a:1,http://a:1", "-advertise", "http://a:1"}},
		{"bad-peer-url", []string{"-peers", "ftp://a:1", "-advertise", "ftp://a:1"}},
		{"zero-peer-timeout", []string{"-peer-timeout", "0s"}},
		{"negative-peer-backoff", []string{"-peer-backoff", "-1s"}},
		{"peers-and-peers-file", []string{"-peers", "http://a:1", "-peers-file", "x", "-advertise", "http://a:1"}},
		{"negative-replicas", []string{"-peers", "http://a:1,http://b:2", "-advertise", "http://a:1", "-replicas", "-1"}},
		{"missing-peers-file", []string{"-peers-file", "/nonexistent/peers.txt", "-advertise", "http://a:1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if got := realMain(tc.args, &out, &errOut); got != 2 {
				t.Fatalf("exit code %d, want 2\nstderr: %s", got, errOut.String())
			}
			if !strings.Contains(strings.ToLower(errOut.String()), "usage") {
				t.Fatalf("usage-class failure printed no usage hint:\n%s", errOut.String())
			}
		})
	}
}

// reservePort grabs an ephemeral loopback port and releases it, so two
// daemons can be given each other's addresses before either listens.
// The tiny window between Close and the daemon's own Listen is benign:
// loopback ephemeral ports are not reused that fast.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDaemonFleetForwards boots a real 2-daemon fleet through the full
// flag surface and checks the peer wiring end to end: both nodes serve
// the same bytes for the same request, the non-owner's first touch takes
// a peer tier, and /metrics grows a cluster section.
func TestDaemonFleetForwards(t *testing.T) {
	addrA, addrB := reservePort(t), reservePort(t)
	fleet := fmt.Sprintf("http://%s,http://%s", addrA, addrB)

	var shutdowns []func() error
	for _, addr := range []string{addrA, addrB} {
		// -replicas 1: in a two-node fleet the default R=2 puts self in
		// every key's replica set, and this test is about the forward
		// wiring.
		_, shutdown := startDaemon(t,
			"-addr", addr,
			"-peers", fleet,
			"-advertise", "http://"+addr,
			"-replicas", "1",
			"-peer-timeout", "500ms",
			"-peer-backoff", "200ms",
		)
		shutdowns = append(shutdowns, shutdown)
	}
	defer func() {
		for _, s := range shutdowns {
			if err := s(); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}
	}()
	baseA, baseB := "http://"+addrA, "http://"+addrB

	// A's boot warm-up may have run before B was listening and marked B
	// down for one backoff window; wait that window out so the walk
	// below can forward.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(baseA + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Cluster *struct {
				PeersDown int `json:"peers_down"`
			} `json:"cluster"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Cluster != nil && snap.Cluster.PeersDown == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node A never saw node B up")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Walk seeds until one lands a peer tier on node A: that request was
	// owned by node B and proxied.
	sawPeerTier := ""
	var body []byte
	for seed := int64(0); seed < 24 && sawPeerTier == ""; seed++ {
		in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: seed})
		b, err := json.Marshal(map[string]any{"pipeline": in.App, "platform": in.Plat, "bound": 1e6})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(baseA+"/v1/solve", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		switch tier := resp.Header.Get("X-Cache"); tier {
		case "remote-miss", "remote-hit":
			sawPeerTier, body = tier, b
		case "miss", "fallback":
			// self-owned, or B still coming up; try the next seed
		default:
			t.Fatalf("seed %d: unexpected tier %q", seed, tier)
		}
	}
	if sawPeerTier == "" {
		t.Fatal("no request was forwarded in 24 seeds")
	}

	// Both daemons must serve identical bytes for the forwarded request.
	var bodies [][]byte
	for _, base := range []string{baseA, baseB} {
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", base, resp.StatusCode)
		}
		bodies = append(bodies, buf.Bytes())
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("daemons disagree on the same request:\n%s\nvs\n%s", bodies[0], bodies[1])
	}

	// The metrics surface carries the cluster section.
	resp, err := http.Get(baseA + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Cluster *struct {
			Peers     int    `json:"peers"`
			Forwarded uint64 `json:"forwarded"`
		} `json:"cluster"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cluster == nil || snap.Cluster.Peers != 2 {
		t.Fatalf("metrics cluster section: %+v", snap.Cluster)
	}
	if snap.Cluster.Forwarded == 0 {
		t.Fatal("forward not reflected in metrics")
	}
}

// TestDaemonPeersFileReload drives dynamic membership through the full
// daemon surface: two daemons share a -peers-file; appending a third
// member and sending SIGHUP must swap both onto the 3-peer topology
// without a restart, and the reload must be visible in /metrics. The new
// member never comes up — its digest pull failing is exactly the
// degraded-handoff path a real join races against, and it must not
// block the swap.
func TestDaemonPeersFileReload(t *testing.T) {
	// Both daemons run in this process and watch SIGHUP themselves. The
	// test subscribes first, so no SIGHUP it sends — even one landing
	// before a daemon has subscribed — can take the default action and
	// kill the test binary.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	addrA, addrB, addrC := reservePort(t), reservePort(t), reservePort(t)
	peersPath := t.TempDir() + "/peers.txt"
	writePeers := func(addrs ...string) {
		var b strings.Builder
		b.WriteString("# fleet members\n")
		for _, a := range addrs {
			b.WriteString("http://" + a + "\n")
		}
		if err := os.WriteFile(peersPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writePeers(addrA, addrB)

	var shutdowns []func() error
	for _, addr := range []string{addrA, addrB} {
		_, shutdown := startDaemon(t,
			"-addr", addr,
			"-peers-file", peersPath,
			"-advertise", "http://"+addr,
			"-peer-timeout", "500ms",
			"-peer-backoff", "200ms",
		)
		shutdowns = append(shutdowns, shutdown)
	}
	defer func() {
		for _, s := range shutdowns {
			if err := s(); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}
	}()

	clusterSnap := func(base string) (peers int, reloads uint64) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Cluster *struct {
				Peers   int    `json:"peers"`
				Reloads uint64 `json:"reloads"`
			} `json:"cluster"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Cluster == nil {
			t.Fatal("metrics carry no cluster section")
		}
		return snap.Cluster.Peers, snap.Cluster.Reloads
	}
	baseA, baseB := "http://"+addrA, "http://"+addrB
	if peers, reloads := clusterSnap(baseA); peers != 2 || reloads != 0 {
		t.Fatalf("before reload: peers=%d reloads=%d, want 2/0", peers, reloads)
	}

	writePeers(addrA, addrB, addrC)

	// Signal until both daemons report the grown fleet. Repeats are safe:
	// a reload onto the peer list already in force is a no-op, so each
	// daemon counts exactly one reload however many signals it sees.
	deadline := time.Now().Add(5 * time.Second)
	for _, base := range []string{baseA, baseB} {
		for {
			peers, reloads := clusterSnap(base)
			if peers == 3 && reloads == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never picked up the peers-file change: peers=%d reloads=%d", base, peers, reloads)
			}
			if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
				t.Fatal(err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	// The grown fleet must still serve: solve one instance on each live
	// node and require identical bytes (the absent third member only ever
	// costs a failed forward attempt, never an error).
	in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: 3})
	body, err := json.Marshal(map[string]any{"pipeline": in.App, "platform": in.Plat, "bound": 1e6})
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, base := range []string{baseA, baseB} {
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d after reload: %s", base, resp.StatusCode, buf.String())
		}
		bodies = append(bodies, buf.Bytes())
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("post-reload daemons disagree:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestDaemonWarmupLogLine pins the boot log line fleet tooling waits
// for: every peer-mode node runs one anti-entropy round at boot and logs
// its outcome with "warm-up" — a one-member -peers seed (nothing to
// pull) and a -join node (pulling from that seed) alike.
func TestDaemonWarmupLogLine(t *testing.T) {
	addrA, addrB := reservePort(t), reservePort(t)
	urlA, urlB := "http://"+addrA, "http://"+addrB
	for _, node := range []struct {
		name string
		args []string
	}{
		{"peers-seed", []string{"-addr", addrA, "-peers", urlA, "-advertise", urlA}},
		{"join", []string{"-addr", addrB, "-join", urlA, "-advertise", urlB}},
	} {
		_, log, shutdown := startDaemonLog(t, node.args...)
		defer func() {
			if err := shutdown(); err != nil {
				t.Errorf("%s shutdown: %v", node.name, err)
			}
		}()
		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(log.String(), "pipeschedd: warm-up imported 0 entries") {
			if time.Now().After(deadline) {
				t.Fatalf("%s node never logged its warm-up:\n%s", node.name, log.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
