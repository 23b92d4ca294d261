package main

// The traced run: after the timed phase, the workload's own seeded
// inputs are replayed in-process through the public functions of each
// layer, with spans recorded in memory by this file only — nothing is
// instrumented inside the program. The spans and the daemons' /metrics
// deltas around the timed phase are written to one JSON file at the end.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pipesched/internal/cluster"
	"pipesched/internal/exact"
	"pipesched/internal/heuristics"
	"pipesched/internal/mapping"
	"pipesched/internal/pipeline"
	"pipesched/internal/platform"
	"pipesched/internal/portfolio"
	"pipesched/internal/service"
	"pipesched/internal/service/cache"
	"pipesched/internal/workload"
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int    `json:"req"`    // answer-key index the span serves
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// timed runs fn as span name under parent and returns its duration.
func (t *tracer) timed(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	fn()
	return t.end(id)
}

// Replay sample sizes: enough requests to cover every grid class once,
// few enough that the replay stays a fraction of the run.
const (
	solveReps      = 3  // cold serves and races per solve, median taken
	hitReps        = 25 // cache-hit serves per key, median taken
	batchSample    = 8  // batch bodies replayed (offline)
	batchSolves    = 32 // batch elements replayed as solves (offline): 16 per objective
	sweepSample    = 8  // sweep bodies replayed (offline)
	keyStreamCalls = 1 << 16
)

// layerSumTol is the layer-sum check's tolerance: per objective, the
// independently timed parts of a miss (the hit path on the same body,
// pipeline and platform construction, the evaluator, the race, rendering)
// must add up to the timed cold serve within this share of it.
const layerSumTol = 0.15

// solveTiming is one replayed solve's layer ladder, in µs: the cold
// serve and its independently timed parts.
type solveTiming struct {
	obj                                  string
	miss, hit, build, eval, race, render float64
}

// replay runs the traced replay and returns the per-layer metrics. The
// layer-sum check prints its sums and verdict.
func replay(ctx context.Context, p *plan, ph phase, l *loader, m0, m1 []service.MetricsSnapshot, forwardUS float64, traceOut string, out io.Writer) (map[string]metric, error) {
	tr := &tracer{t0: time.Now()}
	ms := map[string]metric{}
	put := func(name string, value float64, unit string) { ms[name] = metric{finite(value), unit} }

	solves, batches, sweeps := replaySample(p)

	// Warm pools and lazily built tables on keys outside the sample.
	warm := service.New(service.Options{})
	for _, k := range p.prime[:min(len(p.prime), 16)] {
		serveFunc(warm, &p.keys[k])()
	}

	// ---- solves: service miss/hit, build, evaluator, race, members -----
	var (
		timings   []solveTiming
		inproc    []float64 // in-process serve time in the timed phase's cache state, µs
		won       = map[string]int{}
		heurUS    = map[string][]float64{}
		exactUS   []float64
		memberSum float64
	)
	hitState := p.name == "hit-heavy" || p.name == "fleet"
	for _, s := range solves {
		k := solveKey(s)
		root := tr.begin("replay"+pathSolve, -1, s.class)
		// Cold serves and stand-alone races alternate which goes first,
		// so neither side inherits the other's warm CPU caches.
		var miss, races, hits []float64
		var winner string
		for rep := 0; rep < solveReps; rep++ {
			srv := service.New(service.Options{})
			ev := mapping.NewEvaluator(s.inst.App, s.inst.Plat)
			coldServe := func() {
				miss = append(miss, us(tr.timed("service.ServeHTTP/miss", root, s.class, serveFunc(srv, &k))))
			}
			standAlone := func() {
				races = append(races, us(tr.timed("portfolio.race/"+s.obj, root, s.class, func() { winner = runRace(ctx, ev, s) })))
			}
			if rep%2 == 0 {
				coldServe()
				standAlone()
			} else {
				standAlone()
				coldServe()
			}
			if rep == solveReps-1 {
				for i := 0; i < hitReps; i++ {
					hits = append(hits, us(tr.timed("service.ServeHTTP/hit", root, s.class, serveFunc(srv, &k))))
				}
			}
		}
		works, deltas, speeds := s.inst.App.Works(), s.inst.App.Deltas(), s.inst.Plat.Speeds()
		t := solveTiming{
			obj:  s.obj,
			miss: median(miss),
			hit:  median(hits),
			race: median(races),
			build: repeatUS(tr, "pipeline.New+platform.New", root, s.class, func() {
				pipeline.New(works, deltas)                   //nolint:errcheck // valid by construction
				platform.New(speeds, s.inst.Plat.Bandwidth()) //nolint:errcheck // valid by construction
			}),
			eval:   repeatUS(tr, "mapping.NewEvaluator", root, s.class, func() { mapping.NewEvaluator(s.inst.App, s.inst.Plat) }),
			render: renderUS(tr, root, s, &k),
		}
		timings = append(timings, t)
		won[winner]++
		for id, d := range timeMembers(tr, root, s) {
			memberSum += d
			if id == portfolio.ExactID {
				exactUS = append(exactUS, d)
			} else {
				heurUS[id] = append(heurUS[id], d)
			}
		}
		tr.end(root)
		if hitState {
			inproc = append(inproc, t.hit)
		} else {
			inproc = append(inproc, t.miss)
		}
	}
	field := func(obj string, f func(solveTiming) float64) []float64 {
		var xs []float64
		for _, t := range timings {
			if obj == "" || t.obj == obj {
				xs = append(xs, f(t))
			}
		}
		return xs
	}
	put("service.serve_hit_us", mean(field("", func(t solveTiming) float64 { return t.hit })), "us")
	put("service.serve_miss_us", mean(field("", func(t solveTiming) float64 { return t.miss })), "us")
	put("service.build_us", mean(field("", func(t solveTiming) float64 { return t.build })), "us")
	put("mapping.evaluator_us", mean(field("", func(t solveTiming) float64 { return t.eval })), "us")
	// Self time per request is a small difference of large timings on the
	// heavy classes, so the median over requests is reported.
	put("service.self_miss_us", median(field("", func(t solveTiming) float64 { return t.miss - t.eval - t.race })), "us")
	raceSum := 0.0
	for _, obj := range []string{minPeriod, minLatency} {
		races := field(obj, func(t solveTiming) float64 { return t.race })
		put("portfolio.race_us."+obj, mean(races), "us")
		raceSum += mean(races) * float64(len(races))
	}
	put("portfolio.race_work_ratio", memberSum/raceSum, "ratio")
	for _, id := range []string{"H1", "H2", "H3", "H4", "H5", "H6", portfolio.ExactID} {
		put("portfolio.won."+id, float64(won[id])/float64(max(1, len(solves))), "ratio")
		if id != portfolio.ExactID {
			put("heuristics."+id+"_us", mean(heurUS[id]), "us")
		}
	}
	put("exact.solve_us", mean(exactUS), "us")
	sort.Float64s(exactUS)
	put("exact.solve_p90_us", quantile(exactUS, 0.9), "us")

	// ---- batches and sweeps (offline) ----------------------------------
	var batchUS, groupedUS, ungroupedUS, groupEvalUS, sweepServeUS, sweepUS []float64
	for _, ki := range batches {
		k := &p.keys[ki]
		root := tr.begin("replay"+pathBatch, -1, ki)
		srv := service.New(service.Options{})
		d := tr.timed("service.ServeHTTP/miss", root, ki, serveFunc(srv, k))
		batchUS = append(batchUS, us(d)/float64(k.items()))
		inproc = append(inproc, us(d))
		var b batchJSON
		if err := json.Unmarshal(k.body, &b); err != nil {
			return nil, err
		}
		opts := portfolio.BatchOptions{Bound: b.Bound, RelativeBound: b.RelativeBound, Exact: b.Exact}
		if b.Objective == minPeriod {
			opts.Objective = portfolio.MinimizePeriod
		}
		insts := make([]workload.Instance, len(k.specs))
		apps := make([]*pipeline.Pipeline, len(k.specs))
		for i, s := range k.specs {
			insts[i], apps[i] = s.inst, s.inst.App
		}
		n := float64(len(insts))
		groupedUS = append(groupedUS, us(tr.timed("portfolio.SolveBatchGrouped", root, ki, func() { portfolio.SolveBatchGrouped(ctx, insts, opts) }))/n) //nolint:errcheck // ctx is never cancelled
		ungroupedUS = append(ungroupedUS, us(tr.timed("portfolio.SolveBatch", root, ki, func() { portfolio.SolveBatch(ctx, insts, opts) }))/n)           //nolint:errcheck // ctx is never cancelled
		groupEvalUS = append(groupEvalUS, us(tr.timed("mapping.NewEvaluators", root, ki, func() { mapping.NewEvaluators(apps, insts[0].Plat) }))/n)
		tr.end(root)
	}
	for _, ki := range sweeps {
		k := &p.keys[ki]
		s := k.specs[0]
		root := tr.begin("replay"+pathSweep, -1, ki)
		srv := service.New(service.Options{})
		d := tr.timed("service.ServeHTTP/miss", root, ki, serveFunc(srv, k))
		sweepServeUS = append(sweepServeUS, us(d))
		inproc = append(inproc, us(d))
		ev := mapping.NewEvaluator(s.inst.App, s.inst.Plat)
		sweepUS = append(sweepUS, us(tr.timed("portfolio.ParetoSweep", root, ki, func() { portfolio.ParetoSweep(ctx, ev, k.points, 0) })))
		tr.end(root)
	}
	put("service.serve_batch_us_per_item", mean(batchUS), "us")
	put("portfolio.batch_grouped_us_per_item", mean(groupedUS), "us")
	put("portfolio.batch_ungrouped_us_per_item", mean(ungroupedUS), "us")
	put("mapping.evaluators_group_us_per_item", mean(groupEvalUS), "us")
	put("service.serve_sweep_us", mean(sweepServeUS), "us")
	put("portfolio.sweep_us", mean(sweepUS), "us")

	// ---- cache and ownership on the workload's key stream --------------
	keys := keyStream(p, ph)
	put("cache.get_hit_ns", cacheGetHit(keys), "ns")
	put("cache.do_miss_ns", cacheDoMiss(keys), "ns")
	put("cluster.owners_ns", ownersNS(keys), "ns")

	// ---- daemon side: /metrics deltas and the HTTP residual ------------
	var clientLat []float64
	for _, o := range ph.outs {
		clientLat = append(clientLat, us(o.lat))
	}
	p50 := median(clientLat)
	put("pipeschedd.http_us", p50-median(inproc), "us")
	put("bench.client_cpu_share", ph.clientCPU.Seconds()/(ph.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	for name, m := range metricsDeltas(m0, m1, len(ph.calls)) {
		ms[name] = m
	}
	put("cluster.forward_us", forwardUS, "us")

	// ---- layer-sum check -----------------------------------------------
	ok := true
	worst := 0.0
	for _, obj := range []string{minPeriod, minLatency} {
		n := float64(len(field(obj, func(t solveTiming) float64 { return 0 })))
		if n == 0 {
			continue
		}
		avg := func(f func(solveTiming) float64) float64 { return mean(field(obj, f)) }
		hit, build := avg(func(t solveTiming) float64 { return t.hit }), avg(func(t solveTiming) float64 { return t.build })
		eval, race := avg(func(t solveTiming) float64 { return t.eval }), avg(func(t solveTiming) float64 { return t.race })
		render, miss := avg(func(t solveTiming) float64 { return t.render }), avg(func(t solveTiming) float64 { return t.miss })
		parts := hit + build + eval + race + render
		gap := (parts - miss) / miss
		fmt.Fprintf(out, "%s: layer sum %s (%.0f requests): hit path %.1f + build %.1f + evaluator %.1f + race %.1f + render %.1f = %.1f µs vs cold serve %.1f µs (%+.1f%%, tolerance ±%.0f%%)\n",
			p.name, obj, n, hit, build, eval, race, render, parts, miss, 100*gap, 100*layerSumTol)
		if math.Abs(gap) > layerSumTol {
			ok = false
		}
		worst = math.Max(worst, math.Abs(gap))
	}
	put("bench.layer_sum_miss_gap", worst, "ratio")
	// The hit ladder: the in-process hit serve plus a loopback round trip
	// to a trivial handler, both timed apart from the daemon, against the
	// client-side median of the timed phase.
	hitGap := 0.0
	put("bench.loopback_rtt_us", 0, "us")
	if p.name == "hit-heavy" {
		rtt, err := loopbackProbe(tr, p, ph, l)
		if err != nil {
			return nil, err
		}
		put("bench.loopback_rtt_us", rtt, "us")
		hit := median(field("", func(t solveTiming) float64 { return t.hit }))
		hitGap = (hit + rtt - p50) / p50
		fmt.Fprintf(out, "%s: layer sum hit: serve_hit %.1f µs + loopback round trip %.1f µs = %.1f µs vs client p50 %.1f µs (%+.1f%%, tolerance ±%.0f%%)\n",
			p.name, hit, rtt, hit+rtt, p50, 100*hitGap, 100*layerSumTol)
		if math.Abs(hitGap) > layerSumTol {
			ok = false
		}
		hitGap = math.Abs(hitGap)
	}
	put("bench.layer_sum_hit_gap", hitGap, "ratio")
	verdict := "passed"
	if !ok {
		verdict = "FAILED"
	}
	fmt.Fprintf(out, "%s: layer-sum check %s\n", p.name, verdict)

	if err := writeTrace(traceOut, p, tr, m0, m1, ms); err != nil {
		return nil, err
	}
	return ms, nil
}

// replaySample picks the replayed requests: one solve per grid class (the
// first timed request of each class; for offline, one element of each of
// the first batches, rotating through the element positions), and the
// first batch and sweep bodies of offline.
func replaySample(p *plan) (solves []spec, batches, sweeps []int) {
	seen := map[int]bool{}
	for _, c := range p.calls {
		k := &p.keys[c.key]
		switch k.path {
		case pathSolve:
			if s := k.specs[0]; !seen[s.class] {
				seen[s.class] = true
				solves = append(solves, s)
			}
		case pathBatch:
			if len(batches) < batchSample {
				batches = append(batches, c.key)
			}
			if len(solves) < batchSolves {
				s := k.specs[len(solves)%len(k.specs)]
				s.class = len(solves)
				solves = append(solves, s)
			}
		case pathSweep:
			if len(sweeps) < sweepSample {
				sweeps = append(sweeps, c.key)
			}
		}
	}
	return solves, batches, sweeps
}

// forwardProbe times cluster.Client.Forward round trips to the first
// live, primed node on the last keys of the timed phase (still cached).
func forwardProbe(ctx context.Context, f fleet, p *plan, ph phase) (float64, error) {
	const probes = 200
	c := cluster.NewClient(cluster.ClientConfig{Peers: 1})
	var ds []float64
	for i := 0; i < probes; i++ {
		k := &p.keys[ph.calls[len(ph.calls)-1-i%len(ph.calls)].key]
		start := time.Now()
		res, err := c.Forward(ctx, 0, f[0].url, k.path, k.body)
		if err != nil {
			return 0, err
		}
		if res.Status != http.StatusOK {
			return 0, fmt.Errorf("forward probe: status %d", res.Status)
		}
		ds = append(ds, us(time.Since(start)))
	}
	return median(ds), nil
}

// loopbackCalls is how many requests loopbackProbe sends.
const loopbackCalls = 20000

// loopbackServe is the subcommand that runs loopbackProbe's server.
const loopbackServe = "loopback-serve"

// loopbackProbe times the hit path's transport apart from the daemon: the
// same client, connection count and request bodies against a trivial
// net/http server in a process of its own (as the daemon is) that reads
// the body and writes a fixed answer of the phase's median answer size.
// It returns the median round trip in µs.
func loopbackProbe(tr *tracer, p *plan, ph phase, l *loader) (float64, error) {
	var sizes []float64
	for _, b := range l.first {
		if b != nil {
			sizes = append(sizes, float64(len(b)))
		}
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	port, err := freePort()
	if err != nil {
		return 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d, err := startProcess(self, addr, loopbackServe, "-addr", addr, "-bytes", strconv.Itoa(int(median(sizes))))
	if err != nil {
		return 0, err
	}
	defer d.stop()
	if err := d.waitHealthy(http.DefaultClient, 30*time.Second); err != nil {
		return 0, err
	}
	lp := newLoader([]string{d.url}, p.keys)
	defer lp.close()
	calls := make([]call, min(len(ph.calls), loopbackCalls))
	for i := range calls {
		calls[i] = call{key: ph.calls[i].key}
	}
	root := tr.begin("loopback", -1, 0)
	outs := lp.run(calls, p.conns)
	tr.end(root)
	var lat []float64
	for _, o := range outs {
		if o.status != http.StatusOK {
			return 0, fmt.Errorf("loopback probe: status %d", o.status)
		}
		lat = append(lat, us(o.lat))
	}
	return median(lat), nil
}

// loopbackMain serves loopbackProbe's trivial handler until killed.
func loopbackMain(args []string, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench "+loopbackServe, flag.ContinueOnError)
	fs.SetOutput(errOut)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	n := fs.Int("bytes", 0, "answer size in bytes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	answer := bytes.Repeat([]byte{'0'}, *n)
	err := http.ListenAndServe(*addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // draining only
		w.Header().Set("Content-Type", "application/json")
		w.Write(answer) //nolint:errcheck // the client sees a short answer
	}))
	fmt.Fprintln(errOut, "perfbench "+loopbackServe+":", err)
	return 1
}

// nullWriter is a ResponseWriter that keeps only the status.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }

// serveFunc prepares one in-process request and returns the call to
// time: Server.ServeHTTP alone, with the request built beforehand.
func serveFunc(srv *service.Server, k *answerKey) func() {
	req := httptest.NewRequest(http.MethodPost, k.path, bytes.NewReader(k.body))
	w := &nullWriter{h: http.Header{}, code: http.StatusOK}
	return func() { srv.ServeHTTP(w, req) }
}

// runRace runs the service's default portfolio race (exact DP on) and
// returns the winner's ID.
func runRace(ctx context.Context, ev *mapping.Evaluator, s spec) string {
	opts := portfolio.SolveOptions{Exact: true}
	var out portfolio.Outcome
	if s.obj == minPeriod {
		out, _, _ = portfolio.UnderLatency(ctx, ev, s.bound, opts)
	} else {
		out, _, _ = portfolio.UnderPeriod(ctx, ev, s.bound, opts)
	}
	return out.Solver
}

// timeMembers times every member of the race stand-alone (once each, on a
// fresh evaluator) and returns µs per member ID.
func timeMembers(tr *tracer, root int, s spec) map[string]float64 {
	out := map[string]float64{}
	ev := mapping.NewEvaluator(s.inst.App, s.inst.Plat)
	if s.obj == minPeriod {
		for _, h := range heuristics.LatencyHeuristics() {
			out[h.ID()] = us(tr.timed("heuristics."+h.ID(), root, s.class, func() { h.MinimizePeriod(ev, s.bound) })) //nolint:errcheck // timing only
		}
		if exact.Eligible(s.inst.Plat) {
			ev := mapping.NewEvaluator(s.inst.App, s.inst.Plat)
			out[portfolio.ExactID] = us(tr.timed("exact.MinPeriodUnderLatency", root, s.class, func() { exact.MinPeriodUnderLatency(ev, s.bound) })) //nolint:errcheck // timing only
		}
		return out
	}
	for _, h := range heuristics.PeriodHeuristics() {
		out[h.ID()] = us(tr.timed("heuristics."+h.ID(), root, s.class, func() { h.MinimizeLatency(ev, s.bound) })) //nolint:errcheck // timing only
	}
	if exact.Eligible(s.inst.Plat) {
		ev := mapping.NewEvaluator(s.inst.App, s.inst.Plat)
		out[portfolio.ExactID] = us(tr.timed("exact.MinLatencyUnderPeriod", root, s.class, func() { exact.MinLatencyUnderPeriod(ev, s.bound) })) //nolint:errcheck // timing only
	}
	return out
}

// repeatUS times fn hitReps times as span name and returns the median µs.
func repeatUS(tr *tracer, name string, root, req int, fn func()) float64 {
	ds := make([]float64, hitReps)
	for i := range ds {
		ds[i] = us(tr.timed(name, root, req, fn))
	}
	return median(ds)
}

// renderUS times rendering the solve's answer with encoding/json, the
// service's renderer, on the answer a fresh server gives.
func renderUS(tr *tracer, root int, s spec, k *answerKey) float64 {
	srv := service.New(service.Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, k.path, strings.NewReader(string(k.body))))
	var resp service.SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return 0
	}
	return repeatUS(tr, "render", root, s.class, func() { json.Marshal(resp) }) //nolint:errcheck // timing only
}

// keyStream maps the timed phase's calls to 32-byte keys (SHA-256 of
// each body), at most keyStreamCalls of them.
func keyStream(p *plan, ph phase) []cache.Key {
	byKey := make([]cache.Key, len(p.keys))
	for i := range p.keys {
		byKey[i] = sha256.Sum256(p.keys[i].body)
	}
	out := make([]cache.Key, 0, min(len(ph.calls), keyStreamCalls))
	for _, c := range ph.calls[:cap(out)] {
		out = append(out, byKey[c.key])
	}
	return out
}

// parallel2 runs fn(part) on two goroutines, each over half of n
// operations, and returns the wall time per operation.
func parallel2(n int, fn func(lo, hi int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w*n/2, (w+1)*n/2)
		}(w)
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// cacheGetHit times Sharded.Get hits on the key stream from 2 goroutines,
// with the service's default capacity and shard count.
func cacheGetHit(keys []cache.Key) float64 {
	c := cache.NewSharded[[]byte](1024, 0)
	val := []byte("x")
	for _, k := range keys {
		c.Put(k, val)
	}
	return parallel2(len(keys), func(lo, hi int) {
		for _, k := range keys[lo:hi] {
			c.Get(k)
		}
	})
}

// cacheDoMiss times Sharded.Do misses (compute and store) on the key
// stream made distinct by a per-call counter, from 2 goroutines.
func cacheDoMiss(keys []cache.Key) float64 {
	c := cache.NewSharded[[]byte](1024, 0)
	val := []byte("x")
	distinct := make([]cache.Key, len(keys))
	for i, k := range keys {
		k[8], k[9], k[10], k[11] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		distinct[i] = k
	}
	ctx := context.Background()
	return parallel2(len(distinct), func(lo, hi int) {
		for _, k := range distinct[lo:hi] {
			c.Do(ctx, k, func() ([]byte, error) { return val, nil }) //nolint:errcheck // fn never fails
		}
	})
}

// ownersNS times Topology.Owners (R = 2 of 3 peers) on the key stream.
func ownersNS(keys []cache.Key) float64 {
	topo, err := cluster.NewTopology([]string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}, "http://127.0.0.1:1")
	if err != nil {
		return 0
	}
	dst := make([]int, 0, 2)
	start := time.Now()
	for _, k := range keys {
		dst = topo.Owners(cluster.Key(k), 2, dst)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(keys))
}

// metricsDeltas turns the /metrics scrapes around the timed phase into
// per-layer counters, summed across nodes; requests is the number of
// client requests the phase sent.
func metricsDeltas(m0, m1 []service.MetricsSnapshot, requests int) map[string]metric {
	var hits, misses, collapsed, evictions, internHits, internMisses float64
	var serial, par, strata, memo float64
	var fwd, remoteHits, hedged, fallbacks, mismatches, warmed, pulled float64
	for i := range m1 {
		a, b := m0[i], m1[i]
		hits += float64(b.Cache.Hits - a.Cache.Hits)
		misses += float64(b.Cache.Misses - a.Cache.Misses)
		collapsed += float64(b.Cache.Collapsed - a.Cache.Collapsed)
		evictions += float64(b.Cache.Evictions - a.Cache.Evictions)
		internHits += float64(b.Solver.InternHits - a.Solver.InternHits)
		internMisses += float64(b.Solver.InternMisses - a.Solver.InternMisses)
		serial += float64(b.Solver.DP.SerialRuns - a.Solver.DP.SerialRuns)
		par += float64(b.Solver.DP.ParallelRuns - a.Solver.DP.ParallelRuns)
		strata += float64(b.Solver.DP.Strata - a.Solver.DP.Strata)
		memo += float64(b.Solver.DP.MemoHits - a.Solver.DP.MemoHits)
		if b.Cluster != nil && a.Cluster != nil {
			fwd += float64(b.Cluster.Forwarded - a.Cluster.Forwarded)
			remoteHits += float64(b.Cluster.RemoteHits - a.Cluster.RemoteHits)
			hedged += float64(b.Cluster.HedgedHits - a.Cluster.HedgedHits)
			fallbacks += float64(b.Cluster.Fallbacks - a.Cluster.Fallbacks)
			mismatches += float64(b.Cluster.MembershipMismatches - a.Cluster.MembershipMismatches)
			warmed += float64(b.Cluster.WarmedEntries)
			pulled += float64(b.Cluster.SyncPulled)
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	runs := serial + par + memo
	return map[string]metric{
		"service.cache_hit_ratio":       {ratio(hits, hits+misses+collapsed), "ratio"},
		"service.collapsed":             {collapsed, "count"},
		"service.evictions":             {evictions, "count"},
		"service.intern_hit_ratio":      {ratio(internHits, internHits+internMisses), "ratio"},
		"exact.parallel_share":          {ratio(par, runs), "ratio"},
		"exact.memo_hit_ratio":          {ratio(memo, runs), "ratio"},
		"exact.strata_per_run":          {ratio(strata, par), "count"},
		"cluster.forward_ratio":         {ratio(fwd, float64(requests)), "ratio"},
		"cluster.remote_hit_ratio":      {ratio(remoteHits, fwd), "ratio"},
		"cluster.hedged_hits":           {hedged, "count"},
		"cluster.fallbacks":             {fallbacks, "count"},
		"cluster.membership_mismatches": {mismatches, "count"},
		"cluster.warmed_entries":        {warmed, "count"},
		"cluster.sync_pulled":           {pulled, "count"},
	}
}

// writeTrace writes the spans, the /metrics scrapes around the timed
// phase and the per-layer metrics to path.
func writeTrace(path string, p *plan, tr *tracer, m0, m1 []service.MetricsSnapshot, ms map[string]metric) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload      string                    `json:"workload"`
		Spans         []span                    `json:"spans"`
		MetricsBefore []service.MetricsSnapshot `json:"metrics_before"`
		MetricsAfter  []service.MetricsSnapshot `json:"metrics_after"`
		Layers        map[string]metric         `json:"layers"`
	}{p.name, tr.spans, m0, m1, ms})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
