package main

// Deterministic, feasible request bodies for every workload. Everything
// here is a pure function of the run seed: the same seed yields
// byte-identical bodies, and every bound is feasible by construction.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"pipesched/internal/heuristics"
	"pipesched/internal/lowerbound"
	"pipesched/internal/mapping"
	"pipesched/internal/platform"
	"pipesched/internal/workload"
)

const (
	minPeriod  = "min-period"
	minLatency = "min-latency"
)

// class is one cell of the instance grid: a paper family, a stage count,
// a platform size and the objective. speedClasses > 0 replaces the
// paper's uniform speeds by that many distinct speeds (the few-class
// slice, whose compressed DP state space sits above
// exact.ParallelStateThreshold).
type class struct {
	family       workload.Family
	stages       int
	procs        int
	speedClasses int
	objective    string
}

func (c class) String() string {
	p := fmt.Sprintf("p%d", c.procs)
	if c.speedClasses > 0 {
		p = fmt.Sprintf("p%dx%d", c.procs, c.speedClasses)
	}
	return fmt.Sprintf("%v/n%d/%s/%s", c.family, c.stages, p, c.objective)
}

// paperClasses is the paper's simulation grid (E1–E4 × n × p) crossed
// with both objectives: 64 classes.
func paperClasses() []class {
	var out []class
	for _, f := range workload.Families() {
		for _, n := range workload.PaperStages() {
			for _, p := range workload.PaperProcessors() {
				for _, obj := range []string{minPeriod, minLatency} {
					out = append(out, class{family: f, stages: n, procs: p, objective: obj})
				}
			}
		}
	}
	return out
}

// fewClassClasses is the few-speed-class slice: p = 32 processors in 4
// speed classes, n ∈ {10, 20}, every family and both objectives.
func fewClassClasses() []class {
	var out []class
	for _, f := range workload.Families() {
		for _, n := range []int{10, 20} {
			for _, obj := range []string{minPeriod, minLatency} {
				out = append(out, class{family: f, stages: n, procs: 32, speedClasses: 4, objective: obj})
			}
		}
	}
	return out
}

// mix derives an independent 63-bit seed from a base seed and a stream of
// labels (splitmix64 finalizer), so every instance has its own generator.
func mix(seed int64, labels ...uint64) int64 {
	z := uint64(seed)
	for _, l := range labels {
		z += 0x9e3779b97f4a7c15 + l
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// instance draws one pipeline/platform pair of class c.
func instance(c class, seed int64) workload.Instance {
	in := workload.Generate(workload.Config{Family: c.family, Stages: c.stages, Processors: c.procs, Seed: seed})
	if c.speedClasses > 0 {
		r := rand.New(rand.NewSource(mix(seed, 1)))
		perm := r.Perm(workload.SpeedMax - workload.SpeedMin + 1)
		speeds := make([]float64, c.procs)
		for u := range speeds {
			speeds[u] = float64(workload.SpeedMin + perm[u%c.speedClasses])
		}
		in.Plat = platform.MustNew(speeds, workload.Bandwidth)
	}
	return in
}

// spec is one instance to be solved under one objective and one absolute
// bound: a solve request, or one element of a batch. Sweeps carry no
// objective and no bound.
type spec struct {
	class int // index into the workload's class table; -1 if none
	inst  workload.Instance
	ev    *mapping.Evaluator
	obj   string
	bound float64
}

// feasibleBound draws the bound of a solve: a latency budget of
// u × the optimal latency (u ∈ [1.1, 2]) for min-period, a period bound
// of u × H1's minimum achievable period (u ∈ [1, 2]) for min-latency.
// H1 (or the optimal-latency mapping) meets it, so no solve can fail.
func feasibleBound(ev *mapping.Evaluator, obj string, r *rand.Rand) float64 {
	switch obj {
	case "":
		return 0 // a sweep: no bound
	case minPeriod:
		return (1.1 + 0.9*r.Float64()) * ev.OptimalLatencyValue()
	default:
		return (1 + r.Float64()) * minPeriodH1(ev)
	}
}

func minPeriodH1(ev *mapping.Evaluator) float64 {
	p, err := heuristics.MinAchievablePeriod(ev, heuristics.SpMonoP{})
	if err != nil {
		panic(err) // comm-homogeneous platforms only; cannot happen
	}
	return p
}

func newSpec(cls []class, ci int, seed int64) spec {
	c := cls[ci]
	in := instance(c, seed)
	ev := in.Evaluator()
	r := rand.New(rand.NewSource(mix(seed, 2)))
	return spec{class: ci, inst: in, ev: ev, obj: c.objective, bound: feasibleBound(ev, c.objective, r)}
}

// ---------------------------------------------------------------- bodies --

type pipelineJSON struct {
	Works  []float64 `json:"works"`
	Deltas []float64 `json:"deltas"`
}

type platformJSON struct {
	Speeds    []float64 `json:"speeds"`
	Bandwidth float64   `json:"bandwidth"`
}

type instanceJSON struct {
	Pipeline pipelineJSON `json:"pipeline"`
	Platform platformJSON `json:"platform"`
}

func wireInstance(in workload.Instance) instanceJSON {
	return instanceJSON{
		Pipeline: pipelineJSON{Works: in.App.Works(), Deltas: in.App.Deltas()},
		Platform: platformJSON{Speeds: in.Plat.Speeds(), Bandwidth: in.Plat.Bandwidth()},
	}
}

type solveJSON struct {
	instanceJSON
	Objective string  `json:"objective"`
	Bound     float64 `json:"bound"`
}

type batchJSON struct {
	Instances     []instanceJSON `json:"instances"`
	Objective     string         `json:"objective"`
	Bound         float64        `json:"bound"`
	RelativeBound bool           `json:"relative_bound"`
	Exact         bool           `json:"exact"`
}

type sweepJSON struct {
	instanceJSON
	Points int `json:"points"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// ------------------------------------------------------------- requests --

const (
	pathSolve = "/v1/solve"
	pathBatch = "/v1/batch"
	pathSweep = "/v1/sweep"
)

// answerKey is one distinct request body and what a correct answer to it
// must satisfy. A solve has one spec; a batch one per instance, each with
// the absolute bound the relative batch bound resolves to; a sweep one
// spec without a bound.
type answerKey struct {
	path   string
	body   []byte
	specs  []spec
	points int // sweep grid size
}

// items is the number of instances one answer covers.
func (k *answerKey) items() int {
	if k.path == pathBatch {
		return len(k.specs)
	}
	return 1
}

func solveKey(s spec) answerKey {
	body := mustJSON(solveJSON{instanceJSON: wireInstance(s.inst), Objective: s.obj, Bound: s.bound})
	return answerKey{path: pathSolve, body: body, specs: []spec{s}}
}

const sweepPoints = 32

func sweepKey(s spec) answerKey {
	s.obj, s.bound = "", 0
	body := mustJSON(sweepJSON{instanceJSON: wireInstance(s.inst), Points: sweepPoints})
	return answerKey{path: pathSweep, body: body, specs: []spec{s}, points: sweepPoints}
}

const batchSize = 16

// batchKey builds one /v1/batch body: batchSize pipelines of one family
// over the stage grid, all on one shared platform, exact on, with a
// relative bound u × the batch's largest feasibility ratio so that every
// element is feasible by construction.
func batchKey(f workload.Family, procs int, obj string, seed int64) answerKey {
	plat := instance(class{family: f, stages: 1, procs: procs}, mix(seed, 3)).Plat
	specs := make([]spec, batchSize)
	ratio := 1.0
	stages := workload.PaperStages()
	for i := range specs {
		app := instance(class{family: f, stages: stages[i%len(stages)], procs: 1}, mix(seed, 4, uint64(i))).App
		in := workload.Instance{App: app, Plat: plat}
		ev := in.Evaluator()
		specs[i] = spec{class: -1, inst: in, ev: ev, obj: obj}
		if obj == minLatency {
			if q := minPeriodH1(ev) / lowerbound.Period(ev); q > ratio {
				ratio = q
			}
		}
	}
	r := rand.New(rand.NewSource(mix(seed, 5)))
	u := 1.1 + 0.9*r.Float64()
	if obj == minLatency {
		u = 1 + r.Float64()
	}
	rel := u * ratio
	wires := make([]instanceJSON, len(specs))
	for i := range specs {
		wires[i] = wireInstance(specs[i].inst)
		// The service resolves the relative bound exactly this way
		// (portfolio.BatchOptions.RelativeBound).
		if obj == minPeriod {
			specs[i].bound = rel * specs[i].ev.OptimalLatencyValue()
		} else {
			specs[i].bound = rel * lowerbound.Period(specs[i].ev)
		}
	}
	body := mustJSON(batchJSON{Instances: wires, Objective: obj, Bound: rel, RelativeBound: true, Exact: true})
	return answerKey{path: pathBatch, body: body, specs: specs}
}
