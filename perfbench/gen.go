package main

import (
	"math/rand"
	"sort"
	"time"

	"hcapp/internal/cluster"
	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/server"
	"hcapp/internal/sim"
)

// Inputs are pure functions of the benchmark seed: the program under
// test receives only what these generators produce.

// jobSeeds is how many distinct simulation seeds one benchmark seed
// spreads its serve jobs over.
const jobSeeds = 4

var (
	schemeKinds = []config.SchemeKind{config.FixedVoltage, config.HCAPP, config.RAPLLike, config.SWLike}
	limitNames  = []string{config.PackagePinLimit().Name, config.OffPackageVRLimit().Name}
	policies    = []string{"static-cpu", "progress-balancer", "critical-path"}
	components  = []string{"cpu", "gpu", "sha"}
)

// mixBlock is the serve job mix's period: every scheme × limit ×
// horizon cell twice, so each block carries the same simulated work.
const mixBlock = 32

// jobMix draws n short serve jobs in blocks of mixBlock. A block holds
// every scheme × limit × horizon (1 or 2 ms) cell twice, combos dealt
// from shuffled decks of the suite, seeds drawn from the seed's pool,
// and exactly three §5.3-prioritized and two policy-supervised jobs.
// Every benchmark seed thus offers the same mix in a different order.
func jobMix(r *rand.Rand, seed int64, n int) []server.JobRequest {
	suite := experiment.Suite()
	var out []server.JobRequest
	for len(out) < n {
		block := make([]server.JobRequest, 0, mixBlock)
		for len(block) < mixBlock {
			for _, k := range schemeKinds {
				for _, l := range limitNames {
					for _, d := range []float64{1, 2} {
						block = append(block, server.JobRequest{Scheme: string(k), Limit: l, DurMS: d})
					}
				}
			}
		}
		for i := range block {
			if i%len(suite) == 0 {
				deck := r.Perm(len(suite))
				for k := 0; k < len(suite) && i+k < len(block); k++ {
					block[i+k].Combo = suite[deck[k]].Name
				}
			}
			s := seed*jobSeeds + int64(r.Intn(jobSeeds))
			block[i].Seed = &s
		}
		r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for k := 0; k < 3; k++ {
			block[k].Priorities = experiment.PriorityFor(components[r.Intn(len(components))])
		}
		for k := 3; k < 5; k++ {
			block[k].Policy = policies[r.Intn(len(policies))]
		}
		r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		out = append(out, block...)
	}
	return out[:n]
}

// scheduledJob is one open-loop arrival: the request and when it is due
// relative to the start of the phase.
type scheduledJob struct {
	req server.JobRequest
	due time.Duration
}

// openLoopJobs draws Poisson arrivals at rate jobs/s over span,
// conditioned on the expected count: rate×span arrival times drawn
// uniformly and sorted. Every seed then offers the same load, while
// arrivals stay as bursty as a Poisson process.
func openLoopJobs(seed int64, rate float64, span time.Duration) []scheduledJob {
	r := rand.New(rand.NewSource(seed))
	n := int(rate * span.Seconds())
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(r.Int63n(int64(span)))
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	out := make([]scheduledJob, n)
	for i, req := range jobMix(r, seed, n) {
		out[i] = scheduledJob{req: req, due: dues[i]}
	}
	return out
}

// closedLoopJobs draws the closed-loop phase's job sequence; clients
// take the next job as they finish one, so n only bounds the phase.
func closedLoopJobs(seed int64, n int) []server.JobRequest {
	return jobMix(rand.New(rand.NewSource(seed^0x5eed)), seed, n)
}

// Fleet batch shape: most batches mix new specs, a duplicate within the
// batch (single-flight) and repeats of earlier batches (fleet-cache
// hits); every hitEvery-th batch consists of repeats only.
const (
	fleetSeeds     = 8
	fleetHorizon   = 1 * sim.Millisecond
	newPerBatch    = 2
	repeatPerBatch = 9
	batchSize      = newPerBatch + 1 + repeatPerBatch
	hitEvery       = 5
)

// fleetBatch is one batch the fleet client submits.
type fleetBatch struct {
	params  cluster.Params
	items   []cluster.Spec
	allHits bool
}

// fleetSpace lists every distinct spec a fleet batch may draw: suite
// combo × scheme × limit × (no priority or one prioritized component).
func fleetSpace() []cluster.Spec {
	prios := []map[string]float64{nil}
	for _, c := range components {
		prios = append(prios, experiment.PriorityFor(c))
	}
	var out []cluster.Spec
	for _, c := range experiment.Suite() {
		for _, s := range config.StandardSchemes() {
			for _, l := range []config.PowerLimit{config.PackagePinLimit(), config.OffPackageVRLimit()} {
				for _, p := range prios {
					out = append(out, cluster.SpecOf(experiment.RunSpec{Combo: c, Scheme: s, Limit: l, Priorities: p}))
				}
			}
		}
	}
	return out
}

// fleetBatches draws n batches. Each batch runs under one of fleetSeeds
// parameter sets; new specs are drawn without replacement per set, and
// repeats come from specs earlier batches sent under the same set.
func fleetBatches(seed int64, n int) []fleetBatch {
	r := rand.New(rand.NewSource(seed))
	space := fleetSpace()
	perm := make([][]int, fleetSeeds)
	sent := make([][]int, fleetSeeds)
	for i := range perm {
		perm[i] = r.Perm(len(space))
	}
	out := make([]fleetBatch, 0, n)
	for b := 0; b < n; b++ {
		ps := r.Intn(fleetSeeds)
		allHits := b%hitEvery == hitEvery-1
		if allHits {
			// Pick a parameter set that already has results to hit.
			for len(sent[ps]) == 0 {
				ps = (ps + 1) % fleetSeeds
			}
		}
		batch := fleetBatch{params: cluster.DefaultParams(seed*fleetSeeds+int64(ps), fleetHorizon), allHits: allHits}
		var fresh []int
		takeNew := func() int {
			if len(perm[ps]) == 0 {
				// Every spec of this set was sent: start over, so the
				// rest of the sequence repeats it.
				perm[ps] = r.Perm(len(space))
			}
			i := perm[ps][0]
			perm[ps] = perm[ps][1:]
			fresh = append(fresh, i)
			return i
		}
		var idx []int
		if allHits {
			for k := 0; k < batchSize; k++ {
				idx = append(idx, sent[ps][r.Intn(len(sent[ps]))])
			}
		} else {
			for k := 0; k < newPerBatch; k++ {
				idx = append(idx, takeNew())
			}
			idx = append(idx, idx[r.Intn(newPerBatch)])
			for k := 0; k < repeatPerBatch; k++ {
				if len(sent[ps]) == 0 {
					// Nothing to repeat yet under this set: duplicate
					// within the batch instead, keeping its new work fixed.
					idx = append(idx, idx[r.Intn(newPerBatch)])
					continue
				}
				idx = append(idx, sent[ps][r.Intn(len(sent[ps]))])
			}
		}
		r.Shuffle(len(idx), func(a, c int) { idx[a], idx[c] = idx[c], idx[a] })
		for _, i := range idx {
			batch.items = append(batch.items, space[i])
		}
		sent[ps] = append(sent[ps], fresh...)
		out = append(out, batch)
	}
	return out
}
