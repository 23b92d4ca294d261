package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"pipesched/internal/workload"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the daemon logs from the
// serve goroutine while the test polls for the listening line.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon runs the daemon quietly on an ephemeral port and returns
// its base URL plus a shutdown function that cancels the context and
// waits for a clean exit.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	base, _, shutdown := startDaemonLog(t, append([]string{"-quiet"}, args...)...)
	return base, shutdown
}

// startDaemonLog is startDaemon with the serving log left on; it also
// returns the daemon's output stream.
func startDaemonLog(t *testing.T, args ...string) (string, *syncBuffer, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out, out)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "http://" + addr, out, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("daemon never exited")
		}
	}
}

func TestDaemonServesAndDrains(t *testing.T) {
	base, shutdown := startDaemon(t)
	in := workload.Generate(workload.Config{Family: workload.E1, Stages: 6, Processors: 4, Seed: 3})
	body, err := json.Marshal(map[string]any{"pipeline": in.App, "platform": in.Plat, "bound": 1e6})
	if err != nil {
		t.Fatal(err)
	}

	// healthz up.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Solve twice: second is a cache hit.
	for i, want := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Fatalf("solve %d X-Cache %q, want %q", i, got, want)
		}
	}

	// Metrics reflect the hit.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Fatalf("metrics cache = %+v, want 1 hit, 1 miss", snap.Cache)
	}

	// Cancelling the run context (the signal path) exits cleanly.
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

var pprofListenRE = regexp.MustCompile(`pprof listening on (\S+)`)

// TestPprofEnabled: with -pprof, a separate listener serves the pprof
// index while the service port keeps /debug off limits.
func TestPprofEnabled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0", "-quiet"}, out, out)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var mainAddr, profAddr string
	for mainAddr == "" || profAddr == "" {
		s := out.String()
		if m := pprofListenRE.FindStringSubmatch(s); m != nil {
			profAddr = m[1]
		}
		// The main line has no "pprof" prefix; strip pprof lines first.
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "pprof") {
				continue
			}
			if m := listenRE.FindStringSubmatch(line); m != nil {
				mainAddr = m[1]
			}
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported both addresses:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get("http://" + profAddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	body := &bytes.Buffer{}
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	if !strings.Contains(body.String(), "goroutine") {
		t.Fatalf("pprof index does not list profiles:\n%s", body.String())
	}

	// The service listener must not expose the debug handlers.
	resp, err = http.Get("http://" + mainAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("service port served /debug/pprof/ with status %d, want 404", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited")
	}
}

// TestPprofDisabledByDefault: without -pprof, no profiling listener is
// announced and the service port stays clean of /debug.
func TestPprofDisabledByDefault(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quiet"}, out, out)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ on the service port: status %d, want 404", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited")
	}
	// Nothing may have announced a profiling listener.
	if pprofListenRE.MatchString(out.String()) {
		t.Fatalf("daemon announced a pprof listener without -pprof:\n%s", out.String())
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown-flag", []string{"-bogus"}, 2},
		{"positional-args", []string{"stray"}, 2},
		{"negative-timeout", []string{"-drain-timeout", "-1s"}, 2},
		{"bad-addr", []string{"-addr", "500.500.500.500:99999"}, 1},
		{"help", []string{"-h"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if got := realMain(tc.args, &out, &errOut); got != tc.want {
				t.Fatalf("exit code %d, want %d\nstderr: %s", got, tc.want, errOut.String())
			}
			if tc.want == 2 && !strings.Contains(strings.ToLower(errOut.String()), "usage") {
				t.Fatalf("usage-class failure printed no usage hint:\n%s", errOut.String())
			}
		})
	}
}

func TestRunHelpReturnsErrHelp(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-h"}, &out, &out)
	if err != flag.ErrHelp {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}
