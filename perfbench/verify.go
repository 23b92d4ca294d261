package main

// The answer verifier. Every distinct answer is decoded, its mapping is
// rebuilt with mapping.New and re-evaluated with the instance's
// Evaluator, and the result must match what the service reported, meet
// the request's bound, and be no better than the polynomial lower bound.
// Verification runs after the timed phase and is not timed.

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"

	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
	"pipesched/internal/service"
)

// relTol absorbs floating-point reassociation between the solvers'
// incremental metrics and the Evaluator's recomputation.
const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
func leq(a, b float64) bool { return a <= b+relTol*math.Max(1, math.Abs(b)) }

// checkMapping rebuilds one reported mapping and returns its recomputed
// metrics after checking them against the reported period and latency.
func checkMapping(s spec, ivs []service.IntervalJSON, period, latency float64) (mapping.Metrics, error) {
	mivs := make([]mapping.Interval, len(ivs))
	for i, iv := range ivs {
		mivs[i] = mapping.Interval{Start: iv.Start, End: iv.End, Proc: iv.Proc}
	}
	m, err := mapping.New(s.inst.App, s.inst.Plat, mivs)
	if err != nil {
		return mapping.Metrics{}, fmt.Errorf("invalid mapping: %w", err)
	}
	got := s.ev.Metrics(m)
	if !near(got.Period, period) || !near(got.Latency, latency) {
		return got, fmt.Errorf("reported (period %v, latency %v) but the mapping evaluates to (%v, %v)", period, latency, got.Period, got.Latency)
	}
	return got, nil
}

// checkSolve checks one constrained answer and returns log(objective ÷
// its lower bound).
func checkSolve(s spec, ivs []service.IntervalJSON, period, latency float64) (float64, error) {
	got, err := checkMapping(s, ivs, period, latency)
	if err != nil {
		return 0, err
	}
	var obj, lb float64
	switch s.obj {
	case minPeriod:
		if !leq(got.Latency, s.bound) {
			return 0, fmt.Errorf("latency %v exceeds the budget %v", got.Latency, s.bound)
		}
		obj, lb = got.Period, lowerbound.Period(s.ev)
	default:
		if !leq(got.Period, s.bound) {
			return 0, fmt.Errorf("period %v exceeds the bound %v", got.Period, s.bound)
		}
		obj, lb = got.Latency, lowerbound.Latency(s.ev)
	}
	if !leq(lb, obj) {
		return 0, fmt.Errorf("%s objective %v beats its lower bound %v", s.obj, obj, lb)
	}
	return math.Log(obj / lb), nil
}

// verifyAnswer checks one distinct answer body against its key and
// returns the log gap of every objective it carries (one per solve, one
// per batch element, one per sweep frontier point).
func verifyAnswer(k *answerKey, body []byte) ([]float64, error) {
	switch k.path {
	case pathSolve:
		var r service.SolveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		s := k.specs[0]
		if r.Objective != s.obj || r.Bound != s.bound {
			return nil, fmt.Errorf("answer echoes (%s, %v), request was (%s, %v)", r.Objective, r.Bound, s.obj, s.bound)
		}
		g, err := checkSolve(s, r.Intervals, r.Period, r.Latency)
		return []float64{g}, err
	case pathBatch:
		var r service.BatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.Failed != 0 || r.Solved != len(k.specs) || len(r.Results) != len(k.specs) {
			return nil, fmt.Errorf("batch solved %d, failed %d of %d", r.Solved, r.Failed, len(k.specs))
		}
		gaps := make([]float64, len(k.specs))
		for i, res := range r.Results {
			s := k.specs[i]
			if res.Index != i || !near(res.Bound, s.bound) {
				return nil, fmt.Errorf("batch result %d: index %d, bound %v, want bound %v", i, res.Index, res.Bound, s.bound)
			}
			g, err := checkSolve(s, res.Intervals, res.Period, res.Latency)
			if err != nil {
				return nil, fmt.Errorf("batch result %d: %w", i, err)
			}
			gaps[i] = g
		}
		return gaps, nil
	case pathSweep:
		var r service.SweepResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if len(r.Points) == 0 {
			return nil, fmt.Errorf("empty sweep frontier")
		}
		s := k.specs[0]
		lb := lowerbound.Period(s.ev)
		gaps := make([]float64, len(r.Points))
		for i, pt := range r.Points {
			got, err := checkMapping(s, pt.Intervals, pt.Period, pt.Latency)
			if err != nil {
				return nil, fmt.Errorf("sweep point %d: %w", i, err)
			}
			if !leq(lb, got.Period) {
				return nil, fmt.Errorf("sweep point %d: period %v beats its lower bound %v", i, got.Period, lb)
			}
			if i > 0 && !(got.Period > r.Points[i-1].Period && got.Latency < r.Points[i-1].Latency) {
				return nil, fmt.Errorf("sweep point %d is not on a frontier sorted by period", i)
			}
			gaps[i] = math.Log(got.Period / lb)
		}
		return gaps, nil
	}
	return nil, fmt.Errorf("unknown path %s", k.path)
}

// verdict is the verification of one timed phase.
type verdict struct {
	attempted, ok int
	items         int // instances answered
	correct       bool
	keyOK         []bool
	sums          []uint64 // hash of each key's first answer
	gaps          []float64
	problems      []string
}

// good reports whether one call counts as a verified answer: a 200 whose
// body is byte-identical to the key's first answer, which verified.
func (v *verdict) good(c call, o outcome) bool {
	return o.status == http.StatusOK && o.sum == v.sums[c.key] && v.keyOK[c.key]
}

// gap is the geometric mean over verified answers of objective ÷ lower
// bound, minus one.
func (v *verdict) gap() float64 {
	if len(v.gaps) == 0 {
		return 0
	}
	s := 0.0
	for _, g := range v.gaps {
		s += g
	}
	return math.Exp(s/float64(len(v.gaps))) - 1
}

func (v *verdict) problem(format string, a ...any) {
	const maxProblems = 10
	if len(v.problems) < maxProblems {
		v.problems = append(v.problems, fmt.Sprintf(format, a...))
	}
}

// verifyPhase checks every distinct answer of the timed phase once and
// every repeat of it byte for byte, across nodes too.
func verifyPhase(p *plan, l *loader, ph phase) verdict {
	v := verdict{
		correct: true,
		keyOK:   make([]bool, len(p.keys)),
		sums:    make([]uint64, len(p.keys)),
	}
	checked := make([]bool, len(p.keys))
	for i, o := range ph.outs {
		c := ph.calls[i]
		k := &p.keys[c.key]
		v.attempted++
		if !checked[c.key] {
			checked[c.key] = true
			if body := l.first[c.key]; body != nil {
				v.sums[c.key] = maphash.Bytes(l.seed, body)
				gaps, err := verifyAnswer(k, body)
				if err != nil {
					v.correct = false
					v.problem("%s key %d: %v", k.path, c.key, err)
				} else {
					v.keyOK[c.key] = true
					v.gaps = append(v.gaps, gaps...)
				}
			}
		}
		switch {
		case o.status != http.StatusOK:
			v.problem("%s key %d on node %d: status %d", k.path, c.key, c.node, o.status)
		case o.sum != v.sums[c.key]:
			v.correct = false
			v.problem("%s key %d on node %d: answer differs from the key's first answer", k.path, c.key, c.node)
		case v.keyOK[c.key]:
			v.ok++
			v.items += k.items()
		}
	}
	return v
}
