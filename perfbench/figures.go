package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
)

// figuresHorizon is the target duration of every figure run. The paper
// ran ~200 ms; this horizon keeps one Fig. 4–10 regeneration near two
// seconds on a 2-vCPU host, so a run measures several of them.
const figuresHorizon = 1 * sim.Millisecond

// figuresWidth is the runner width (the reference host has 2 vCPUs).
const figuresWidth = 2

// setupRepeats is how many times each workload times its set-up; the
// median is reported.
const setupRepeats = 21

// paperAverage is one average the paper states for Figs. 5–10.
type paperAverage struct {
	fig     int
	row     string
	paper   float64 // percent
	speedup bool    // speedup row (reported as % gain) rather than PPE
}

var paperAverages = []paperAverage{
	{5, "HCAPP", 21, true},
	{6, "Fixed Voltage", 69.1, false},
	{6, "HCAPP", 79.3, false},
	{8, "HCAPP", 43, true},
	{8, "RAPL-like HCAPP", 36, true},
	{9, "HCAPP", 93.9, false},
	{9, "RAPL-like HCAPP", 79.7, false},
	{9, "SW-like HCAPP", 69.2, false},
	{10, "CPU", 8.3, true},
	{10, "GPU", 5.4, true},
	{10, "SHA", 12, true},
}

func newFigureEvaluator(seed int64, r *experiment.Runner) *experiment.Evaluator {
	ev := experiment.NewEvaluator().WithTargetDur(figuresHorizon).WithRunner(r)
	ev.Cfg.Seed = seed
	return ev
}

// regenerate produces Figs. 4–10 in order; index i holds Fig. i+4.
func regenerate(ev *experiment.Evaluator) ([]*experiment.Matrix, error) {
	figs := []func() (*experiment.Matrix, error){ev.Fig4, ev.Fig5, ev.Fig6, ev.Fig7, ev.Fig8, ev.Fig9, ev.Fig10}
	out := make([]*experiment.Matrix, len(figs))
	for i, f := range figs {
		m, err := f()
		if err != nil {
			return nil, fmt.Errorf("fig %d: %w", i+4, err)
		}
		out[i] = m
	}
	return out, nil
}

// figureRequests lists, in request order, every spec Figs. 4–10 submit
// to the evaluator (the experiment package's figure definitions).
func figureRequests(ev *experiment.Evaluator) []experiment.RunSpec {
	var out []experiment.RunSpec
	suite := experiment.Suite()
	add := func(schemes []config.Scheme, limit config.PowerLimit) {
		for _, s := range schemes {
			for _, c := range suite {
				out = append(out, experiment.RunSpec{Combo: c, Scheme: s, Limit: limit})
			}
		}
	}
	fixed := ev.FixedScheme()
	var dynamic []config.Scheme
	for _, s := range config.StandardSchemes() {
		if s.Kind != config.FixedVoltage {
			dynamic = append(dynamic, s)
		}
	}
	hcapp, _ := config.SchemeByKind(config.HCAPP)
	pin, vr := config.PackagePinLimit(), config.OffPackageVRLimit()
	add(append([]config.Scheme{fixed}, dynamic...), pin) // Fig. 4
	add([]config.Scheme{fixed, fixed, hcapp}, pin)       // Fig. 5: baseline, then rows
	add([]config.Scheme{fixed, hcapp}, pin)              // Fig. 6
	add(dynamic, vr)                                     // Fig. 7
	add(append([]config.Scheme{fixed}, dynamic...), vr)  // Fig. 8
	add(dynamic, vr)                                     // Fig. 9
	for _, c := range suite {                            // Fig. 10
		out = append(out, experiment.RunSpec{Combo: c, Scheme: hcapp, Limit: pin})
		for _, comp := range components {
			out = append(out, experiment.RunSpec{Combo: c, Scheme: hcapp, Limit: pin, Priorities: experiment.PriorityFor(comp)})
		}
	}
	return out
}

// uniqueSpecs dedups requests by the evaluator's cache key, keeping
// first-request order: the engine runs one regeneration performs.
func uniqueSpecs(ev *experiment.Evaluator, reqs []experiment.RunSpec) []experiment.RunSpec {
	seen := make(map[string]bool, len(reqs))
	var out []experiment.RunSpec
	for _, r := range reqs {
		k := ev.CacheKey(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// figureCheck verifies one regeneration against the evaluator's cached
// results for the same specs: every run completed, no cell is NaN,
// HCAPP holds the package-pin limit, and every cell is reproduced from
// the run results (which proves the request list above matches what
// the figures asked for). Failed checks go to rep; it returns the
// engine steps behind the regeneration.
func figureCheck(ev *experiment.Evaluator, figs []*experiment.Matrix, rep *report) (int64, error) {
	specs := uniqueSpecs(ev, figureRequests(ev))
	results, err := ev.RunSpecs(context.Background(), specs)
	if err != nil {
		return 0, err
	}
	byKey := make(map[string]experiment.RunResult, len(specs))
	var steps int64
	for i, r := range results {
		byKey[ev.CacheKey(specs[i])] = r
		steps += int64(r.Duration / ev.Cfg.TimeStep)
		if !r.Completed {
			rep.fail("figure run %s|%s|%s did not complete", specs[i].Combo.Name, specs[i].Scheme.Kind, specs[i].Limit.Name)
		}
		if specs[i].Scheme.Kind == config.HCAPP && specs[i].Limit.Name == config.PackagePinLimit().Name && r.MaxOverLimit > 1 {
			rep.fail("HCAPP exceeded the package-pin limit on %s (max/limit %.4f)", specs[i].Combo.Name, r.MaxOverLimit)
		}
	}
	for fi, m := range figs {
		for _, row := range m.Rows {
			for _, col := range m.Cols {
				v, ok := m.Get(row, col)
				if !ok || math.IsNaN(v) {
					rep.fail("Fig %d cell %s/%s is NaN or unset", fi+4, row, col)
				}
			}
		}
	}
	if bad := rebuildMismatches(ev, figs, byKey); bad > 0 {
		rep.fail("%d figure cells differ from the cell rebuilt from run results", bad)
	}
	return steps, nil
}

// rebuildMismatches recomputes every cell of Figs. 4–10 from run
// results and counts cells that differ from the figure.
func rebuildMismatches(ev *experiment.Evaluator, figs []*experiment.Matrix, byKey map[string]experiment.RunResult) int {
	res := func(s experiment.RunSpec) experiment.RunResult { return byKey[ev.CacheKey(s)] }
	bad := 0
	check := func(fig int, row, col string, want float64) {
		got, _ := figs[fig-4].Get(row, col)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			bad++
		}
	}
	fixed := ev.FixedScheme()
	pin, vr := config.PackagePinLimit(), config.OffPackageVRLimit()
	for _, c := range experiment.Suite() {
		for _, s := range config.StandardSchemes() {
			if s.Kind == config.FixedVoltage {
				s = fixed
			}
			p := res(experiment.RunSpec{Combo: c, Scheme: s, Limit: pin})
			check(4, s.String(), c.Name, p.MaxOverLimit)
			basePin := res(experiment.RunSpec{Combo: c, Scheme: fixed, Limit: pin})
			if s.Kind == config.FixedVoltage || s.Kind == config.HCAPP {
				_, sp := p.SpeedupOver(basePin)
				check(5, s.String(), c.Name, sp)
				check(6, s.String(), c.Name, p.PPE)
			}
			if s.Kind == config.FixedVoltage {
				continue
			}
			v := res(experiment.RunSpec{Combo: c, Scheme: s, Limit: vr})
			baseVR := res(experiment.RunSpec{Combo: c, Scheme: fixed, Limit: vr})
			_, sp := v.SpeedupOver(baseVR)
			check(7, s.String(), c.Name, v.MaxOverLimit)
			check(8, s.String(), c.Name, sp)
			check(9, s.String(), c.Name, v.PPE)
		}
		hcapp, _ := config.SchemeByKind(config.HCAPP)
		base := res(experiment.RunSpec{Combo: c, Scheme: hcapp, Limit: pin})
		for comp, row := range map[string]string{"cpu": "CPU", "gpu": "GPU", "sha": "SHA"} {
			p := res(experiment.RunSpec{Combo: c, Scheme: hcapp, Limit: pin, Priorities: experiment.PriorityFor(comp)})
			per, _ := p.SpeedupOver(base)
			check(10, row, c.Name, per[comp])
		}
	}
	return bad
}

// paperError prints each measured Fig. 5–10 average beside the paper's
// and returns the mean absolute gap in percentage points.
func paperError(figs []*experiment.Matrix) float64 {
	note("paper comparison at a %s horizon (the paper ran ~200 ms, so gaps are expected):", sim.FormatTime(figuresHorizon))
	sum := 0.0
	for _, pa := range paperAverages {
		avg := figs[pa.fig-4].RowAvg(pa.row)
		got := avg * 100
		if pa.speedup {
			got = (avg - 1) * 100
		}
		sum += math.Abs(got - pa.paper)
		note("  Fig %-2d %-16s measured %7.2f%%  paper %5.1f%%", pa.fig, pa.row, got, pa.paper)
	}
	return sum / float64(len(paperAverages))
}

// sameFigures reports whether two regenerations are bit-identical.
func sameFigures(a, b []*experiment.Matrix) bool {
	for i := range a {
		for _, row := range a[i].Rows {
			for _, col := range a[i].Cols {
				x, _ := a[i].Get(row, col)
				y, _ := b[i].Get(row, col)
				if math.Float64bits(x) != math.Float64bits(y) {
					return false
				}
			}
		}
	}
	return true
}

// figuresSetup times what one regeneration needs before its first
// engine run: a ready evaluator on a fresh runner, with every suite
// combo's work pools sized.
func figuresSetup(seed int64) (time.Duration, error) {
	start := time.Now()
	ev := newFigureEvaluator(seed, experiment.NewRunner(figuresWidth))
	for _, c := range experiment.Suite() {
		if _, err := experiment.SizeWork(ev.Cfg, c, ev.FixedV, ev.TargetDur); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// figurePass is one timed regeneration on a fresh (uncached) evaluator.
// A non-nil registry attaches runner metrics, the traced variant.
func figurePass(seed int64, reg *telemetry.Registry) ([]*experiment.Matrix, *experiment.Evaluator, time.Duration, error) {
	r := experiment.NewRunner(figuresWidth)
	if reg != nil {
		r.WithMetrics(experiment.NewRunnerMetrics(reg))
	}
	start := time.Now()
	ev := newFigureEvaluator(seed, r)
	figs, err := regenerate(ev)
	return figs, ev, time.Since(start), err
}

// runnerBusy reads the summed per-task wall time from runner metrics.
func runnerBusy(reg *telemetry.Registry) (float64, error) {
	samples, err := telemetry.ParseText(strings.NewReader(reg.Text()))
	if err != nil {
		return 0, err
	}
	return telemetry.GatherMap(samples)["hcapp_run_duration_seconds_sum"], nil
}

func runFigures(o options, rep *report) error {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		d, err := figuresSetup(o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	rep.set("setup_s", median(setups))

	// Warm-up regeneration: fully checked, not timed.
	ref, ev, _, err := figurePass(o.seed, nil)
	if err != nil {
		return err
	}
	rep.attempted++
	steps, err := figureCheck(ev, ref, rep)
	if err != nil {
		return err
	}
	reqs := figureRequests(ev)
	unique := uniqueSpecs(ev, reqs)
	pe := paperError(ref)
	note("figures: %d specs requested, %d engine runs, %d engine steps per regeneration", len(reqs), len(unique), steps)

	var plain, traced, busy []float64
	deadline := time.Now().Add(o.seconds)
	for time.Now().Before(deadline) || len(plain) == 0 {
		variants := []*telemetry.Registry{nil}
		if o.trace {
			variants = append(variants, telemetry.NewRegistry())
		}
		for _, reg := range variants {
			figs, _, d, err := figurePass(o.seed, reg)
			rep.attempted++
			if err != nil {
				rep.fail("regeneration: %v", err)
				continue
			}
			if !sameFigures(ref, figs) {
				rep.fail("regeneration differs from the checked reference")
			}
			if reg == nil {
				plain = append(plain, d.Seconds())
				continue
			}
			traced = append(traced, d.Seconds())
			sum, err := runnerBusy(reg)
			if err != nil {
				return err
			}
			busy = append(busy, sum/(figuresWidth*d.Seconds()))
		}
	}
	p50 := median(plain)
	note("figures: %d timed regenerations, median %.4f s (figures_s); all: %.3f", len(plain), p50, plain)
	rep.set("op_p50_ms", p50*1000)
	rep.set("op_tail_ms", tail(plain)*1000)
	rep.set("ops_per_s", 1/p50)
	rep.set("steps_per_s", float64(steps)/p50)
	rep.set("paper_err_pp", pe)
	rep.set("experiment.engine_runs", float64(len(unique)))
	rep.set("experiment.dedup_ratio", float64(len(unique))/float64(len(reqs)))
	if !o.trace {
		return nil
	}
	rep.set("experiment.runner_busy_frac", median(busy))
	rep.set("trace_overhead_frac", median(traced)/p50-1)

	jobs := make([]layerJob, len(unique))
	results, err := ev.RunSpecs(context.Background(), unique)
	if err != nil {
		return err
	}
	for i, s := range unique {
		jobs[i] = layerJob{seed: o.seed, dur: figuresHorizon, spec: s, expect: &results[i]}
	}
	ls := newLayerSplit()
	if err := ls.measure(jobs, figuresWidth); err != nil {
		return err
	}
	ls.publish(rep)
	return nil
}
