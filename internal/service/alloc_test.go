package service

// Allocation-regression caps for the serving hot path. The cache-hit
// serve is the high-QPS steady state — body read into a pooled buffer,
// single-pass scan into pooled wire scratch, pooled canonical hash,
// sharded-cache lookup, one Write — and its budget pins two rebuilds:
// the naive pre-rework path measured 80 allocs per hit and the pooled
// encoding/json path 16; the scanner that replaced encoding/json on
// canonical bodies measures 2 (the MaxBytesReader and the
// Content-Length value). The cap leaves a little headroom for Go-version
// drift in net/http without letting reflection-driven decoding or the
// old per-request costs (fresh hashers, constructed platforms, Welford
// mutexes) creep back in.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"pipesched/internal/workload"
)

// testWorkload is the shared instance of the alloc caps and the serving
// benchmarks.
func testWorkload() workload.Instance {
	return workload.Generate(workload.Config{Family: workload.E2, Stages: 10, Processors: 8, Seed: 31})
}

const (
	// serveHitAllocCap bounds allocations for one cache-hit /v1/solve.
	serveHitAllocCap = 4
	// errorRenderAllocCap bounds the pooled error-body render itself.
	errorRenderAllocCap = 4
)

func TestServeSolveHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops entries)")
	}
	s := New(Options{})
	raw := benchmarkSolveBody(t)
	req := httptest.NewRequest("POST", "/v1/solve", nil)
	w, body := newBenchWriter(), &benchBody{}
	if st := serveOnce(s, w, req, body, raw); st != http.StatusOK { // prime the cache
		t.Fatalf("prime status %d", st)
	}
	run := func() {
		if st := serveOnce(s, w, req, body, raw); st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
	}
	run() // warm the pools
	if got := testing.AllocsPerRun(200, run); got > serveHitAllocCap {
		t.Errorf("cache-hit solve: %.1f allocs/run, cap %d", got, serveHitAllocCap)
	}

	// The same cap holds for hits cycling over paper-grid bodies of
	// every size, once the pooled buffers have grown to the largest.
	grid := paperGridBodies(t)
	for _, raw := range grid {
		if st := serveOnce(s, w, req, body, raw); st != http.StatusOK {
			t.Fatalf("prime status %d", st)
		}
	}
	i := 0
	runGrid := func() {
		if st := serveOnce(s, w, req, body, grid[i%len(grid)]); st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
		i++
	}
	for range grid {
		runGrid()
	}
	if got := testing.AllocsPerRun(4*len(grid), runGrid); got > serveHitAllocCap {
		t.Errorf("cache-hit solve over the paper grid: %.1f allocs/run, cap %d", got, serveHitAllocCap)
	}
}

func TestWriteErrorBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops entries)")
	}
	w := newBenchWriter()
	run := func() {
		w.reset()
		writeErrorBody(w, http.StatusBadRequest, `bound "x" is invalid <and> rejected`)
	}
	run()
	if got := testing.AllocsPerRun(200, run); got > errorRenderAllocCap {
		t.Errorf("error render: %.1f allocs/run, cap %d", got, errorRenderAllocCap)
	}
}

// benchmarkSolveBody adapts the benchmark body builder to tests.
func benchmarkSolveBody(tb testing.TB) []byte {
	tb.Helper()
	in := testWorkload()
	app, err := in.App.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	plat, err := in.Plat.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	body := append([]byte(`{"pipeline":`), app...)
	body = append(body, `,"platform":`...)
	body = append(body, plat...)
	body = append(body, `,"bound":1e6}`...)
	return body
}
