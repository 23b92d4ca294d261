package main

// The steadiness report: run each workload in two sets of seeded runs
// separated in time, each run as long as BENCHMARK.json's run_seconds,
// and for every end-to-end metric print each set's median and quartiles,
// the spread (interquartile distance ÷ median) and the between-set change
// of the median against the metric's bound from BENCHMARK.json.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

const (
	steadySets = 2           // sets of runs, separated in time
	steadyGap  = time.Minute // pause between sets
)

func steadyMain(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		runs      = fs.Int("runs", 10, "seeded runs per workload and set (seeds 1..runs)")
		workloads = fs.String("workloads", strings.Join(workloadNames, ","), "comma-separated workloads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(errOut, "perfbench steady:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(errOut, "perfbench steady:", err)
		return 1
	}
	if spec.RunSeconds < 1 {
		fmt.Fprintln(errOut, "perfbench steady: BENCHMARK.json has no positive run_seconds")
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(errOut, "perfbench steady:", err)
		return 1
	}
	names := strings.Split(*workloads, ",")
	// values[set][workload][metric] = one value per run
	values := make([]map[string]map[string][]float64, steadySets)
	for s := 0; s < steadySets; s++ {
		if s > 0 {
			fmt.Fprintf(errOut, "perfbench steady: pausing %v between sets\n", steadyGap)
			time.Sleep(steadyGap)
		}
		values[s] = map[string]map[string][]float64{}
		for _, w := range names {
			values[s][w] = map[string][]float64{}
			for seed := 1; seed <= *runs; seed++ {
				res, err := runOnce(self, w, seed, spec.RunSeconds)
				if err != nil {
					fmt.Fprintf(errOut, "perfbench steady: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				fmt.Fprintf(errOut, "set %d %s seed %d: correct=%v failed=%d\n", s+1, w, seed, res.Correct, res.Failed)
				for k, m := range res.Metrics {
					values[s][w][k] = append(values[s][w][k], m.Value)
				}
			}
		}
	}
	pass := true
	fmt.Fprintf(out, "%-11s %-24s %-6s %12s %12s %12s %8s %8s %8s %s\n", "workload", "metric", "set", "q1", "median", "q3", "spread", "change", "bound", "verdict")
	for _, w := range names {
		for _, e := range spec.EndToEnd {
			var med0 float64
			for s := 0; s < steadySets; s++ {
				xs := values[s][w][e.Name]
				q1, med, q3 := quartiles(xs)
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / med
				}
				change, verdict := "", ""
				if s == 0 {
					med0 = med
				} else {
					worse := (med - med0) / med0
					if e.Better == "higher" {
						worse = -worse
					}
					change = strconv.FormatFloat(100*worse, 'f', 1, 64) + "%"
					verdict = "ok"
					if worse > e.Bound {
						verdict = "WORSE"
						pass = false
					}
				}
				if spread > e.Bound {
					verdict += " SPREAD"
					pass = false
				} else if spread > e.Bound/3 {
					verdict += " (spread>bound/3)"
				}
				fmt.Fprintf(out, "%-11s %-24s %-6d %12.6g %12.6g %12.6g %7.1f%% %8s %7.2f%% %s\n", w, e.Name, s+1, q1, med, q3, 100*spread, change, 100*e.Bound, verdict)
			}
		}
	}
	if !pass {
		return 1
	}
	return 0
}

// runOnce runs this binary on one workload and seed and parses the
// result line.
func runOnce(self, workload string, seed, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// quartiles returns the first quartile, the median and the third
// quartile with the "exclusive" method of Python's
// statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// statistics.quantiles, method "exclusive": m = n + 1.
		pos := float64(j*(n+1)) / 4
		i := int(pos)
		frac := pos - float64(i)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(1), median(s), at(3)
}
