// Command perfbench is pipesched's end-to-end benchmark. It starts real
// pipeschedd processes with their default flags, drives them over
// loopback from this one load process, verifies every answer, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload hit-heavy --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh steady --runs 5 --workloads miss-heavy
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload, then replays its inputs in-process layer by layer and prints
// the per-layer metrics. See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"time"

	"pipesched/internal/service"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, out, errOut io.Writer) int {
	if len(args) > 0 && args[0] == "steady" {
		return steadyMain(args[1:], out, errOut)
	}
	if len(args) > 0 && args[0] == loopbackServe {
		return loopbackMain(args[1:], errOut)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		name    = fs.String("workload", "", "workload to run: hit-heavy, miss-heavy, offline or fleet")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives byte-identical requests")
		seconds = fs.Int("seconds", 10, "nominal length of the timed phase; scales the fixed request count")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an in-process replay")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(errOut, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	p, err := buildPlan(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 2
	}
	traceOut := fmt.Sprintf(".bench_build/trace-%s-%d.json", *name, *seed)
	res, err := run(p, daemonBin, *trace == 1, traceOut, out)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// daemonBin is where perfbench/run.sh builds pipeschedd, relative to the
// repository root the benchmark runs from.
const daemonBin = ".bench_build/pipeschedd"

// setupReps is how many times each run sets the daemons up; setup_s is
// the median, and the last set-up serves the timed phase.
const setupReps = 3

// run performs one benchmark run of plan p.
func run(p *plan, bin string, traced bool, traceOut string, out io.Writer) (*result, error) {
	ctx := context.Background()
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("pipeschedd binary: %w (build it with perfbench/run.sh)", err)
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()

	var (
		f      fleet
		l      *loader
		setups []float64
	)
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if f != nil {
			l.close()
			f.stop()
			f = nil
		}
		t0 := time.Now()
		var err error
		f, l, err = setup(ctx, hc, bin, p)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", p.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	m0, err := f.metrics(ctx, hc)
	if err != nil {
		return nil, err
	}
	ph, err := l.timed(f, p.calls, p.conns)
	if err != nil {
		return nil, err
	}
	m1, err := f.metrics(ctx, hc)
	if err != nil {
		return nil, err
	}
	rss, err := f.peakRSS()
	if err != nil {
		return nil, err
	}
	forwardUS := 0.0
	if traced {
		if forwardUS, err = forwardProbe(ctx, f, p, ph); err != nil {
			return nil, err
		}
	}
	l.close()
	f.stop()
	f = nil

	v := verifyPhase(p, l, ph)
	if n := metricsDeltas(m0, m1, len(ph.calls))["cluster.membership_mismatches"].Value; n != 0 {
		v.correct = false
		v.problem("the fleet saw %v membership mismatches during the timed phase", n)
	}
	res := &result{Correct: v.correct, Attempted: v.attempted, Failed: v.attempted - v.ok, Metrics: map[string]metric{}}
	e2e := endToEnd(ph, v, setups, rss)
	for _, line := range v.problems {
		fmt.Fprintf(out, "%s: verification: %s\n", p.name, line)
	}
	if !traced {
		printMetrics(out, p.name, e2e)
		res.Metrics = e2e
		return res, nil
	}
	layers, err := replay(ctx, p, ph, l, m0, m1, forwardUS, traceOut, out)
	if err != nil {
		return nil, err
	}
	printMetrics(out, p.name, layers)
	res.Metrics = layers
	return res, nil
}

// setup boots the plan's daemons and primes them. A single-node plan is
// exec → healthy → primed. The fleet boots a seed node and one joiner,
// primes them, then boots a second joiner and waits until all three
// agree on the membership and the joiner's warm-up from its peers is
// done.
func setup(ctx context.Context, hc *http.Client, bin string, p *plan) (fleet, *loader, error) {
	ports := make([]int, p.nodes)
	urls := make([]string, p.nodes)
	for i := range ports {
		port, err := freePort()
		if err != nil {
			return nil, nil, err
		}
		ports[i], urls[i] = port, fmt.Sprintf("http://127.0.0.1:%d", port)
	}
	var f fleet
	boot := func(i int) error {
		var extra []string
		switch {
		case p.nodes == 1:
		case i == 0:
			extra = []string{"-peers", urls[0], "-advertise", urls[0]}
		default:
			extra = []string{"-join", urls[0], "-advertise", urls[i]}
		}
		d, err := startDaemon(bin, ports[i], extra...)
		if err != nil {
			return err
		}
		f = append(f, d)
		if err := d.waitHealthy(hc, 30*time.Second); err != nil {
			return err
		}
		if p.nodes > 1 {
			return d.waitLine("warm-up", 30*time.Second)
		}
		return nil
	}
	fail := func(err error) (fleet, *loader, error) {
		f.stop()
		return nil, nil, err
	}
	for i := 0; i < p.primeNodes; i++ {
		if err := boot(i); err != nil {
			return fail(err)
		}
	}
	if p.nodes > 1 {
		if err := converge(ctx, hc, f); err != nil {
			return fail(err)
		}
	}
	l := newLoader(urls, p.keys)
	if err := l.prime(p.prime, p.primeNodes, p.conns); err != nil {
		l.close()
		return fail(err)
	}
	for i := p.primeNodes; i < p.nodes; i++ {
		if err := boot(i); err != nil {
			l.close()
			return fail(err)
		}
	}
	if p.nodes > p.primeNodes {
		if err := converge(ctx, hc, f); err != nil {
			l.close()
			return fail(err)
		}
	}
	return f, l, nil
}

// converge waits until every node of f reports a view of len(f) peers
// with one membership hash.
func converge(ctx context.Context, hc *http.Client, f fleet) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ms, err := f.metrics(ctx, hc)
		if err == nil && agreed(ms, len(f)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership of %d nodes did not converge within 30s (last error: %v)", len(f), err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func agreed(ms []service.MetricsSnapshot, n int) bool {
	for _, m := range ms {
		if m.Cluster == nil || m.Cluster.Peers != n || m.Cluster.MembershipHash != ms[0].Cluster.MembershipHash {
			return false
		}
	}
	return true
}

// endToEnd computes the nine end-to-end metrics of one timed phase.
func endToEnd(ph phase, v verdict, setups []float64, rss int64) map[string]metric {
	lats := make([]float64, len(ph.outs))
	for i, o := range ph.outs {
		lats[i] = o.lat.Seconds() * 1000
		if !v.good(ph.calls[i], o) {
			lats[i] = math.Inf(1) // a failed request misses every latency limit
		}
	}
	sort.Float64s(lats)
	sec := ph.wall.Seconds()
	return map[string]metric{
		"setup_s":                {median(setups), "s"},
		"req_per_s":              {float64(v.ok) / sec, "req/s"},
		"items_per_s":            {float64(v.items) / sec, "items/s"},
		"p50_ms":                 {finite(quantile(lats, 0.5)), "ms"},
		"p90_ms":                 {finite(quantile(lats, 0.9)), "ms"},
		"server_cpu_us_per_item": {finite(float64(ph.cpu.Microseconds()) / float64(v.items)), "us"},
		"server_rss_mb":          {float64(rss) / (1 << 20), "MiB"},
		"answered_ratio":         {float64(v.ok) / float64(v.attempted), "ratio"},
		"answer_gap":             {v.gap(), "ratio"},
	}
}

func printMetrics(out io.Writer, name string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-12s %-44s %14.6g %s\n", name, k, ms[k].Value, ms[k].Unit)
	}
}

// median returns the median of xs (which it sorts); 0 when empty.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// finite maps a non-finite value (no samples, all failed) to a large
// sentinel JSON can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return math.MaxFloat32
	}
	return x
}
