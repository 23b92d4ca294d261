package loadgen

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestPacerRates(t *testing.T) {
	p := NewPacer(0)
	if p.Rate() != 0 {
		t.Fatalf("unpaced rate = %g, want 0", p.Rate())
	}
	now := time.Now()
	if got := p.Next(now); !got.Equal(now) {
		t.Fatal("unpaced Next must return its input")
	}

	p.SetRate(100)
	if r := p.Rate(); r < 99.9 || r > 100.1 {
		t.Fatalf("rate = %g, want 100", r)
	}
	if got := p.Next(now); got.Sub(now) != 10*time.Millisecond {
		t.Fatalf("interval = %v, want 10ms", got.Sub(now))
	}

	// Retuning mid-run is the whole point: the next admission sees it.
	p.SetRate(1000)
	if got := p.Next(now); got.Sub(now) != time.Millisecond {
		t.Fatalf("retuned interval = %v, want 1ms", got.Sub(now))
	}

	// Degenerate inputs all mean "unpaced", never a panic or a negative
	// interval.
	for _, r := range []float64{0, -5} {
		p.SetRate(r)
		if p.Rate() != 0 {
			t.Fatalf("SetRate(%g) left rate %g, want 0", r, p.Rate())
		}
	}
	// Absurdly high rates floor at a 1ns interval.
	p.SetRate(1e18)
	if got := p.Next(now); got.Sub(now) < time.Nanosecond {
		t.Fatal("interval below 1ns")
	}
}

// countingStub records every body it receives, a deterministic sink for
// the generator.
type countingStub struct {
	mu     sync.Mutex
	bodies []string
}

func (c *countingStub) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf, _ := io.ReadAll(r.Body)
		c.mu.Lock()
		c.bodies = append(c.bodies, string(buf))
		c.mu.Unlock()
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte(`{"ok":true}`))
	})
}

func (c *countingStub) sorted() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.bodies...)
	sort.Strings(out)
	return out
}

func TestRunDeterministicKeyMultiset(t *testing.T) {
	run := func() []string {
		stub := &countingStub{}
		ts := httptest.NewServer(stub.handler())
		defer ts.Close()
		rep, err := Run(context.Background(), Config{
			Targets:  []string{ts.URL},
			Workers:  4,
			Requests: 120,
			Keys:     16,
			Seed:     42,
			Stages:   4, Processors: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sent != 120 || rep.Errors != 0 {
			t.Fatalf("report: %+v", rep)
		}
		if rep.Tiers["hit"] != 120 {
			t.Fatalf("tiers = %v, want 120 hits", rep.Tiers)
		}
		return stub.sorted()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs sent %d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request multiset diverged at %d — the stream is not reproducible", i)
		}
	}
	// The Zipf draw over 16 keys must repeat keys (skew means a hot
	// head), so distinct bodies < requests.
	distinct := map[string]bool{}
	for _, s := range a {
		distinct[s] = true
	}
	if len(distinct) >= len(a) {
		t.Fatal("no key repeated — Zipf skew is not being applied")
	}
	if len(distinct) < 2 {
		t.Fatal("only one distinct key — universe generation is broken")
	}
}

func TestRunCountsErrors(t *testing.T) {
	var n int64
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		fail := n%2 == 0
		mu.Unlock()
		if fail {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		Targets:  []string{ts.URL},
		Workers:  2,
		Requests: 50,
		Keys:     4,
		Stages:   4, Processors: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 25 {
		t.Fatalf("errors = %d, want 25 (every second request 500s)", rep.Errors)
	}
	if rep.Statuses["500"] != 25 || rep.Statuses["200"] != 25 {
		t.Fatalf("statuses = %v", rep.Statuses)
	}
}

// TestRunDurationEndCancelsNothing pins the run-end contract of a
// duration-bounded run: admission stops at the deadline, but requests
// already in flight finish, so a slow but healthy target is never
// charged with the harness's own cancellations.
func TestRunDurationEndCancelsNothing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(20 * time.Millisecond)
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		Targets:  []string{ts.URL},
		Workers:  4,
		Duration: 150 * time.Millisecond,
		Keys:     4,
		Stages:   4, Processors: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Sent == 0 {
		t.Fatalf("sent %d, errors %d (statuses %v), want zero errors", rep.Sent, rep.Errors, rep.Statuses)
	}
	if rep.Statuses["200"] != rep.Sent || len(rep.Statuses) != 1 {
		t.Fatalf("statuses %v for %d sent, want every request a 200", rep.Statuses, rep.Sent)
	}
}

func TestRunDetectsVerifyMismatch(t *testing.T) {
	serve := func(body string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(body))
		}))
	}
	target := serve("one answer")
	defer target.Close()
	ref := serve("a different answer")
	defer ref.Close()

	rep, err := Run(context.Background(), Config{
		Targets:      []string{target.URL},
		VerifyTarget: ref.URL,
		Workers:      2,
		Requests:     10,
		Keys:         4,
		Stages:       4, Processors: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 10 {
		t.Fatalf("mismatches = %d, want 10", rep.Mismatches)
	}

	// And agreeing targets report zero.
	rep, err = Run(context.Background(), Config{
		Targets:      []string{target.URL},
		VerifyTarget: target.URL,
		Workers:      2,
		Requests:     10,
		Keys:         4,
		Stages:       4, Processors: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("self-verify mismatches = %d, want 0", rep.Mismatches)
	}
}

func TestRunPacedRateIsRoughlyHonoured(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		Targets:  []string{ts.URL},
		Workers:  4,
		Requests: 100,
		Rate:     1000, // 100 requests at 1k/s ≈ 100ms wall clock
		Keys:     4,
		Stages:   4, Processors: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 100 {
		t.Fatalf("sent %d of 100", rep.Sent)
	}
	// The pacer must actually have slowed the run below closed-loop
	// speed; generous upper bound keeps slow CI green.
	if rep.ElapsedSeconds < 0.05 {
		t.Fatalf("run finished in %.3fs — pacing was not applied", rep.ElapsedSeconds)
	}
	if rep.ElapsedSeconds > 5 {
		t.Fatalf("run took %.1fs — pacing far too slow", rep.ElapsedSeconds)
	}
}

func TestRunConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no-targets":   {},
		"bad-zipf":     {Targets: []string{"http://x"}, ZipfS: 0.5},
		"negative-req": {Targets: []string{"http://x"}, Requests: -1},
	} {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted %+v", name, cfg)
		}
	}
}

func TestSummarizeQuantiles(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond // 1ms..100ms
	}
	s := summarize(lat)
	if s.P50MS != 50 || s.P90MS != 90 || s.P99MS != 99 || s.MaxMS != 100 {
		t.Fatalf("quantiles = %+v", s)
	}
	if s.MeanMS < 50.4 || s.MeanMS > 50.6 {
		t.Fatalf("mean = %g, want 50.5", s.MeanMS)
	}
	if z := summarize(nil); z != (LatencySummary{}) {
		t.Fatalf("empty summary = %+v", z)
	}
}

// TestRunBatchModeWireShape: Batch > 1 drives /v1/batch with bodies of
// exactly Batch instances whose platforms are one shared object — the
// shape the daemon's platform dedup and the grouped SoA lane key on —
// while the pipelines stay distinct.
func TestRunBatchModeWireShape(t *testing.T) {
	var mu sync.Mutex
	paths := map[string]int{}
	var bodies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf, _ := io.ReadAll(r.Body)
		mu.Lock()
		paths[r.URL.Path]++
		bodies = append(bodies, string(buf))
		mu.Unlock()
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		Targets: []string{ts.URL},
		Workers: 2, Requests: 20,
		Keys: 12, Batch: 4,
		Seed: 5, Stages: 4, Processors: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 20 || rep.Errors != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if paths["/v1/batch"] != 20 || len(paths) != 1 {
		t.Fatalf("paths = %v, want 20 hits on /v1/batch only", paths)
	}
	for _, body := range bodies {
		var req struct {
			Instances []struct {
				Pipeline json.RawMessage `json:"pipeline"`
				Platform json.RawMessage `json:"platform"`
			} `json:"instances"`
			Bound float64 `json:"bound"`
		}
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("batch body is not JSON: %v\n%s", err, body)
		}
		// 12 keys in groups of 4: every group is full.
		if len(req.Instances) != 4 {
			t.Fatalf("batch holds %d instances, want 4", len(req.Instances))
		}
		if req.Bound != 1e6 {
			t.Fatalf("bound = %g, want the default 1e6", req.Bound)
		}
		pipes := map[string]bool{}
		for _, in := range req.Instances {
			if string(in.Platform) != string(req.Instances[0].Platform) {
				t.Fatal("instances in one batch must share the group platform")
			}
			pipes[string(in.Pipeline)] = true
		}
		if len(pipes) < 2 {
			t.Fatal("batch pipelines are not distinct — universe generation is broken")
		}
	}
}
