package main

// The four workloads as fixed request plans: the distinct answer keys,
// the keys sent during set-up, and the timed call sequence. Request
// counts are fixed per workload: --seconds scales them by a constant
// nominal rate, never by a measured one, so every run with the same
// arguments does the same work.

import (
	"fmt"
	"math/rand"

	"pipesched/internal/workload"
)

// plan is everything one workload sends.
type plan struct {
	name       string
	conns      int // concurrent connections of the load process
	nodes      int // daemons in the timed phase
	primeNodes int // daemons the set-up keys are sent to
	keys       []answerKey
	prime      []int  // key indices sent once during every set-up
	calls      []call // the timed phase
}

var workloadNames = []string{"hit-heavy", "miss-heavy", "offline", "fleet"}

const (
	// hitUniverse fits the default 1024-entry cache with room to spare on
	// either of its per-core shards; fleetUniverse exceeds one node's.
	hitUniverse   = 512
	fleetUniverse = 1536
	zipfS         = 1.1

	hitCallsPerSecond   = 14000
	fleetCallsPerSecond = 3500
	// missRoundsPerSecond and offlineRoundsPerSecond are in rounds over
	// their class grids (80 solves; 16 batches and 32 sweeps).
	missRoundsPerSecond    = 2.0
	offlineRoundsPerSecond = 1.25

	// warmSeed seeds the fixed warm-up sets of miss-heavy and offline:
	// the same on every run, disjoint from every timed set.
	warmSeed = 0x77a3c0de
)

func buildPlan(name string, seed int64, seconds int) (*plan, error) {
	switch name {
	case "hit-heavy":
		return zipfPlan(name, seed, 10, hitUniverse, seconds*hitCallsPerSecond, 2, 1, 1), nil
	case "fleet":
		return zipfPlan(name, seed, 40, fleetUniverse, seconds*fleetCallsPerSecond, 2, 3, 2), nil
	case "miss-heavy":
		return missPlan(seed, rounds(seconds, missRoundsPerSecond)), nil
	case "offline":
		return offlinePlan(seed, rounds(seconds, offlineRoundsPerSecond)), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// classOrder is round r's order over n grid classes. It does not depend
// on the run seed: every seed sends the same class sequence, so runs
// differ only in their instances, not in which heavy requests overlap.
func classOrder(label, r uint64, n int) []int {
	return rand.New(rand.NewSource(mix(0x51, label, r))).Perm(n)
}

func rounds(seconds int, perSecond float64) int {
	return max(1, int(float64(seconds)*perSecond+0.5))
}

// zipfPlan is a primed universe of paper-grid solves with both
// objectives, requested with Zipf(s) skew. Rank r always holds the same
// grid class (a fixed class order), so the hot set's composition is the
// same for every seed and only the instances differ.
func zipfPlan(name string, seed int64, label uint64, universe, n, conns, nodes, primeNodes int) *plan {
	cls := paperClasses()
	order := classOrder(10, 0, len(cls))
	p := &plan{name: name, conns: conns, nodes: nodes, primeNodes: primeNodes}
	for r := 0; r < universe; r++ {
		p.keys = append(p.keys, solveKey(newSpec(cls, order[r%len(cls)], mix(seed, label, uint64(r)))))
		p.prime = append(p.prime, r)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(mix(seed, label+1))), zipfS, 1, uint64(universe-1))
	for i := 0; i < n; i++ {
		p.calls = append(p.calls, call{key: int(z.Uint64()), node: i % nodes})
	}
	return p
}

// missPlan sends every class of the paper grid plus the few-class slice
// once per round, each time on a fresh instance: no key repeats. One
// connection: one interactive user waiting for each mapping.
func missPlan(seed int64, nRounds int) *plan {
	cls := append(paperClasses(), fewClassClasses()...)
	p := &plan{name: "miss-heavy", conns: 1, nodes: 1, primeNodes: 1}
	addRound := func(s int64, r uint64, timed bool) {
		// The warm-up draws from its own label, so it stays disjoint from
		// the timed set even for --seed equal to warmSeed.
		label := uint64(21)
		if !timed {
			label = 22
		}
		for _, ci := range classOrder(20, r, len(cls)) {
			p.keys = append(p.keys, solveKey(newSpec(cls, ci, mix(s, label, r, uint64(ci)))))
			if timed {
				p.calls = append(p.calls, call{key: len(p.keys) - 1})
			} else {
				p.prime = append(p.prime, len(p.keys)-1)
			}
		}
	}
	addRound(warmSeed, 0, false)
	for r := 0; r < nRounds; r++ {
		addRound(seed, uint64(r), true)
	}
	return p
}

// offlinePlan sends distinct /v1/batch bodies (16 pipelines on one
// shared platform, relative bound, exact on), each followed by two
// distinct 32-point /v1/sweep bodies. A round covers every (family, p,
// objective) batch class and every (family, n, p) sweep class once.
// Sweeps are two thirds of the calls, so p50_ms is a sweep figure and
// p90_ms a batch figure rather than the seam between the two.
func offlinePlan(seed int64, nRounds int) *plan {
	type batchClass struct {
		f   workload.Family
		p   int
		obj string
	}
	var bcs []batchClass
	var scs []class
	for _, f := range workload.Families() {
		for _, procs := range workload.PaperProcessors() {
			for _, obj := range []string{minPeriod, minLatency} {
				bcs = append(bcs, batchClass{f, procs, obj})
			}
			for _, n := range workload.PaperStages() {
				scs = append(scs, class{family: f, stages: n, procs: procs})
			}
		}
	}
	p := &plan{name: "offline", conns: 2, nodes: 1, primeNodes: 1}
	addRound := func(s int64, r uint64, batches int, timed bool) {
		label := uint64(31) // the warm-up's own labels, as in missPlan
		if !timed {
			label = 33
		}
		sweeps := classOrder(32, r, len(scs))
		for j, bi := range classOrder(30, r, len(bcs))[:batches] {
			bc := bcs[bi]
			p.keys = append(p.keys, batchKey(bc.f, bc.p, bc.obj, mix(s, label, r, uint64(bi))))
			for _, si := range sweeps[2*j : 2*j+2] {
				p.keys = append(p.keys, sweepKey(newSpec(scs, si, mix(s, label+1, r, uint64(si)))))
			}
			for k := len(p.keys) - 3; k < len(p.keys); k++ {
				if timed {
					p.calls = append(p.calls, call{key: k})
				} else {
					p.prime = append(p.prime, k)
				}
			}
		}
	}
	addRound(warmSeed, 0, len(bcs), false)
	for r := 0; r < nRounds; r++ {
		addRound(seed, uint64(r), len(bcs), true)
	}
	return p
}
