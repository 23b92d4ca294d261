package service

// End-to-end serving benchmarks: the full ServeHTTP path — decode,
// canonical hash, cache, render, write — without a network in the way.
// The request and the ResponseWriter are reused across iterations so the
// numbers isolate the server's own cost; ns/op and allocs/op here are
// what one request costs the daemon beyond the kernel and the wire.
//
// Run the parallel variants across core counts to see cache-shard and
// metrics contention:
//
//	go test -run '^$' -bench BenchmarkServe -benchmem -cpu 1,4,8 ./internal/service
import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"pipesched/internal/platform"
	"pipesched/internal/workload"
)

// benchBody is a replayable request body: Reset re-arms it with the same
// bytes, so one request value serves every iteration without a fresh
// io.NopCloser per call.
type benchBody struct {
	rd bytes.Reader
}

func (b *benchBody) Read(p []byte) (int, error) { return b.rd.Read(p) }
func (b *benchBody) Close() error               { return nil }

// benchWriter discards the response while satisfying http.ResponseWriter.
// The header map is allocated once and cleared per iteration: response
// headers are part of the serving cost, the recorder machinery is not.
type benchWriter struct {
	h      http.Header
	status int
}

func newBenchWriter() *benchWriter                 { return &benchWriter{h: make(http.Header, 8)} }
func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchWriter) WriteHeader(code int)        { w.status = code }
func (w *benchWriter) reset() {
	clear(w.h)
	w.status = 0
}

// serveOnce drives one pre-built request through s, reusing w and body.
func serveOnce(s *Server, w *benchWriter, req *http.Request, body *benchBody, raw []byte) int {
	body.rd.Reset(raw)
	req.Body = body
	w.reset()
	s.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.status
}

// solveBodyJSON renders a /v1/solve body for the shared bench instance.
func solveBodyJSON(b *testing.B, bound float64) []byte {
	b.Helper()
	in := testWorkload()
	app, err := in.App.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	plat, err := in.Plat.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	return fmt.Appendf(nil, `{"pipeline":%s,"platform":%s,"bound":%g}`, app, plat, bound)
}

// fullHetBodyJSON renders a /v1/solve body for the bench pipeline on a
// deterministic fully heterogeneous platform (same speeds, per-link
// bandwidths cycling 1..5).
func fullHetBodyJSON(b *testing.B, bound float64) []byte {
	b.Helper()
	in := testWorkload()
	app, err := in.App.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	speeds := in.Plat.Speeds()
	p := len(speeds)
	links := make([][]float64, p)
	for u := range links {
		links[u] = make([]float64, p)
	}
	for u := 0; u < p; u++ {
		for v := u + 1; v < p; v++ {
			bw := float64(1 + (u+v)%5)
			links[u][v], links[v][u] = bw, bw
		}
	}
	plat, err := platform.NewFullyHeterogeneous(speeds, links)
	if err != nil {
		b.Fatal(err)
	}
	pj, err := plat.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	return fmt.Appendf(nil, `{"pipeline":%s,"platform":%s,"bound":%g}`, app, pj, bound)
}

// paperGrid returns one seeded instance per cell of the paper's
// simulation grid: families E1–E4 × n ∈ {5, 10, 20, 40} × p ∈ {10, 100}.
func paperGrid() []workload.Instance {
	var out []workload.Instance
	for _, f := range workload.Families() {
		for _, n := range workload.PaperStages() {
			for _, p := range workload.PaperProcessors() {
				out = append(out, workload.Generate(workload.Config{Family: f, Stages: n, Processors: p, Seed: int64(7*n + p)}))
			}
		}
	}
	return out
}

// paperGridBodies renders one /v1/solve body per paper-grid instance and
// objective, as json.Marshal spells them. The bounds are loose enough
// for every instance to be feasible, and non-round, so they cost the
// decoder what real bounds cost.
func paperGridBodies(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for i, in := range paperGrid() {
		for _, obj := range []string{"min-latency", "min-period"} {
			body, err := json.Marshal(map[string]any{
				"pipeline":  in.App,
				"platform":  in.Plat,
				"objective": obj,
				"bound":     1e6 + float64(i)/7,
			})
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, body)
		}
	}
	return out
}

func BenchmarkServeSolve(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		s := New(Options{})
		raw := solveBodyJSON(b, 1e6)
		req := httptest.NewRequest("POST", "/v1/solve", nil)
		w, body := newBenchWriter(), &benchBody{}
		if st := serveOnce(s, w, req, body, raw); st != http.StatusOK { // prime the cache
			b.Fatalf("prime status %d", st)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := serveOnce(s, w, req, body, raw); st != http.StatusOK {
				b.Fatalf("status %d", st)
			}
		}
	})

	b.Run("hit-grid", func(b *testing.B) {
		// Hits cycling over the paper grid (p ∈ {10, 100}): bodies of
		// the size real traffic sends, where decode dominates a hit.
		s := New(Options{})
		raws := paperGridBodies(b)
		req := httptest.NewRequest("POST", "/v1/solve", nil)
		w, body := newBenchWriter(), &benchBody{}
		size := 0
		for _, raw := range raws { // prime the cache
			if st := serveOnce(s, w, req, body, raw); st != http.StatusOK {
				b.Fatalf("prime status %d", st)
			}
			size += len(raw)
		}
		b.ReportAllocs()
		b.SetBytes(int64(size / len(raws)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := serveOnce(s, w, req, body, raws[i%len(raws)]); st != http.StatusOK {
				b.Fatalf("status %d", st)
			}
		}
	})

	b.Run("hit-parallel", func(b *testing.B) {
		s := New(Options{})
		raw := solveBodyJSON(b, 1e6)
		req0 := httptest.NewRequest("POST", "/v1/solve", nil)
		w0, body0 := newBenchWriter(), &benchBody{}
		if st := serveOnce(s, w0, req0, body0, raw); st != http.StatusOK {
			b.Fatalf("prime status %d", st)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			req := httptest.NewRequest("POST", "/v1/solve", nil)
			w, body := newBenchWriter(), &benchBody{}
			for pb.Next() {
				if st := serveOnce(s, w, req, body, raw); st != http.StatusOK {
					b.Errorf("status %d", st)
					return
				}
			}
		})
	})

	b.Run("miss", func(b *testing.B) {
		// Capacity 1 with two alternating bodies: every request misses,
		// solves, stores and evicts — the full cold-path cost.
		s := New(Options{CacheEntries: 1})
		raws := [2][]byte{solveBodyJSON(b, 1e6), solveBodyJSON(b, 2e6)}
		req := httptest.NewRequest("POST", "/v1/solve", nil)
		w, body := newBenchWriter(), &benchBody{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := serveOnce(s, w, req, body, raws[i&1]); st != http.StatusOK {
				b.Fatalf("status %d", st)
			}
		}
	})

	b.Run("fullhet-hit", func(b *testing.B) {
		// The fullhet serving lane: decode + canonical hash now cover the
		// full link matrix, so a hit here prices the larger key stream.
		s := New(Options{})
		raw := fullHetBodyJSON(b, 1e6)
		req := httptest.NewRequest("POST", "/v1/solve", nil)
		w, body := newBenchWriter(), &benchBody{}
		if st := serveOnce(s, w, req, body, raw); st != http.StatusOK { // prime the cache
			b.Fatalf("prime status %d", st)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := serveOnce(s, w, req, body, raw); st != http.StatusOK {
				b.Fatalf("status %d", st)
			}
		}
	})

	b.Run("fullhet-miss", func(b *testing.B) {
		// Alternating fullhet bodies against capacity 1: every request
		// runs the F1 solve end to end.
		s := New(Options{CacheEntries: 1})
		raws := [2][]byte{fullHetBodyJSON(b, 1e6), fullHetBodyJSON(b, 2e6)}
		req := httptest.NewRequest("POST", "/v1/solve", nil)
		w, body := newBenchWriter(), &benchBody{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := serveOnce(s, w, req, body, raws[i&1]); st != http.StatusOK {
				b.Fatalf("status %d", st)
			}
		}
	})

	b.Run("collapsed", func(b *testing.B) {
		// Storage disabled: identical concurrent requests collapse onto
		// one in-flight solve, sequential ones recompute. The collapse
		// fraction achieved is reported alongside the timings.
		s := New(Options{CacheEntries: -1})
		raw := solveBodyJSON(b, 1e6)
		var served atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			req := httptest.NewRequest("POST", "/v1/solve", nil)
			w, body := newBenchWriter(), &benchBody{}
			for pb.Next() {
				if st := serveOnce(s, w, req, body, raw); st != http.StatusOK {
					b.Errorf("status %d", st)
					return
				}
				served.Add(1)
			}
		})
		b.StopTimer()
		if n := served.Load(); n > 0 {
			cs := s.CacheStats()
			b.ReportMetric(float64(cs.Collapsed)/float64(n), "collapsed/op")
		}
	})
}

func BenchmarkServeBatch(b *testing.B) {
	s := New(Options{})
	instances := make([]workload.Instance, 4)
	for i := range instances {
		instances[i] = workload.Generate(workload.Config{Family: workload.E2, Stages: 8, Processors: 6, Seed: int64(200 + i)})
	}
	var buf bytes.Buffer
	buf.WriteString(`{"instances":[`)
	for i, in := range instances {
		if i > 0 {
			buf.WriteByte(',')
		}
		raw, err := in.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		buf.Write(raw)
	}
	buf.WriteString(`],"bound":1.5,"relative_bound":true}`)
	raw := buf.Bytes()
	req := httptest.NewRequest("POST", "/v1/batch", nil)
	w, body := newBenchWriter(), &benchBody{}
	if st := serveOnce(s, w, req, body, raw); st != http.StatusOK { // prime: cache hit thereafter
		b.Fatalf("prime status %d", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := serveOnce(s, w, req, body, raw); st != http.StatusOK {
			b.Fatalf("status %d", st)
		}
	}
}

func BenchmarkServeSweep(b *testing.B) {
	s := New(Options{})
	in := testWorkload()
	app, err := in.App.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	plat, err := in.Plat.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	raw := fmt.Appendf(nil, `{"pipeline":%s,"platform":%s,"points":8}`, app, plat)
	req := httptest.NewRequest("POST", "/v1/sweep", nil)
	w, body := newBenchWriter(), &benchBody{}
	if st := serveOnce(s, w, req, body, raw); st != http.StatusOK { // prime: cache hit thereafter
		b.Fatalf("prime status %d", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := serveOnce(s, w, req, body, raw); st != http.StatusOK {
			b.Fatalf("status %d", st)
		}
	}
}
