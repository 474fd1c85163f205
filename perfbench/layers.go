package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sched"
	"hcapp/internal/sim"
	"hcapp/internal/trace"
)

// layerJob is one simulation the per-layer split re-executes outside
// the evaluator: the evaluator parameters, the spec, and (optionally)
// the evaluator's own result, which the split must reproduce exactly.
type layerJob struct {
	seed   int64
	dur    sim.Time
	spec   experiment.RunSpec
	expect *experiment.RunResult
}

// layerSplit accumulates host time per layer across layer jobs. Engine
// time is timed around Engine.Run; chiplet, accelerator and recorder
// time come from replaying the engine's recorded per-step inputs into
// fresh copies of those components, so each is timed alone.
type layerSplit struct {
	mu                                   sync.Mutex
	jobs                                 int
	steps                                int64
	sizing, build, engine, post          time.Duration
	chiplet, accel, record               time.Duration
	repeats, domainSteps                 map[config.SchemeKind]int64
	replayedSteps, replayMismatch, wrong int
}

func newLayerSplit() *layerSplit {
	return &layerSplit{
		repeats:     make(map[config.SchemeKind]int64),
		domainSteps: make(map[config.SchemeKind]int64),
	}
}

// tape records one engine run's per-step inputs and outputs for the
// scalable slots (cpu, gpu, sha): the observer the replay feeds from.
type tape struct {
	now   []sim.Time
	total []float64
	volt  [3][]float64
	power [3][]float64
}

func (t *tape) ObserveStep(now sim.Time, total float64, domains []sched.DomainSample) {
	t.now = append(t.now, now)
	t.total = append(t.total, total)
	for i := range t.volt {
		t.volt[i] = append(t.volt[i], domains[i].Voltage)
		t.power[i] = append(t.power[i], domains[i].Power)
	}
}

// buildOptions mirrors the evaluator's mapping from a spec to a system
// for specs without a software policy.
func buildOptions(spec experiment.RunSpec, sz experiment.Sizing) experiment.BuildOptions {
	opts := experiment.BuildOptions{
		Scheme:           spec.Scheme,
		Priorities:       spec.Priorities,
		CPUWork:          sz.CPUWork,
		GPUWork:          sz.GPUWork,
		AccelWorkGB:      sz.AccelGB,
		AdversarialAccel: spec.AdversarialAccel,
	}
	if spec.Scheme.Kind != config.FixedVoltage {
		opts.TargetPower = experiment.TargetPowerFor(spec.Limit)
	}
	return opts
}

// measure runs the split for every job over width goroutines.
func (ls *layerSplit) measure(jobs []layerJob, width int) error {
	r := experiment.NewRunner(width)
	return r.Tasks(context.Background(), len(jobs), func(_ context.Context, i int) error {
		return ls.one(jobs[i])
	})
}

// one splits a single job. Mismatches are counted, not returned: a
// wrong replay is a correctness failure of the run, not a crash.
func (ls *layerSplit) one(j layerJob) error {
	if j.spec.Policy != "" {
		return fmt.Errorf("layer split: policy specs are not supported (%s)", j.spec.Policy)
	}
	cfg := config.Default()
	cfg.Seed = j.seed
	fixedV := experiment.DefaultFixedV
	maxDur := sim.Time(float64(j.dur) * experiment.DefaultMaxDurFactor)

	t0 := time.Now()
	sz, err := experiment.SizeWork(cfg, j.spec.Combo, fixedV, j.dur)
	if err != nil {
		return err
	}
	t1 := time.Now()
	opts := buildOptions(j.spec, sz)
	sys, err := experiment.Build(cfg, j.spec.Combo, opts)
	if err != nil {
		return err
	}
	t2 := time.Now()
	res := sys.Engine.Run(maxDur)
	t3 := time.Now()
	rec := sys.Engine.Recorder()
	maxWin := rec.MaxWindowAvg(j.spec.Limit.Window)
	avg := rec.AvgPower()
	ppe := rec.PPE(j.spec.Limit.Watts)
	t4 := time.Now()
	steps := sys.Engine.Steps()

	wrong := 0
	if e := j.expect; e != nil && (maxWin != e.MaxWindowPower || avg != e.AvgPower || ppe != e.PPE || res.Duration != e.Duration) {
		wrong++
	}

	// Record the per-step voltages on a second, identically built
	// system, then replay them into the components of a third.
	tp := &tape{}
	capHint := int(maxDur/cfg.TimeStep) + 1
	tp.now = make([]sim.Time, 0, capHint)
	tp.total = make([]float64, 0, capHint)
	for i := range tp.volt {
		tp.volt[i] = make([]float64, 0, capHint)
		tp.power[i] = make([]float64, 0, capHint)
	}
	recOpts := opts
	recOpts.Observer = tp
	sys2, err := experiment.Build(cfg, j.spec.Combo, recOpts)
	if err != nil {
		return err
	}
	sys2.Engine.Run(maxDur)
	mismatch := 0
	if !sameBits(sys2.Engine.Recorder().Totals(), rec.Totals()) {
		mismatch++ // the observer changed the run it watched
	}
	sys3, err := experiment.Build(cfg, j.spec.Combo, opts)
	if err != nil {
		return err
	}
	dt := cfg.TimeStep
	n := len(tp.now)
	got := make([]float64, n)
	replay := func(i int, step func(now sim.Time, dt sim.Time, vdd float64) sim.StepResult) time.Duration {
		v := tp.volt[i]
		start := time.Now()
		for k := 0; k < n; k++ {
			got[k] = step(tp.now[k], dt, v[k]).Power
		}
		el := time.Since(start)
		if !sameBits(got, tp.power[i]) {
			mismatch++
		}
		return el
	}
	chip := replay(0, sys3.CPU.Step) + replay(1, sys3.GPU.Step)
	acc := replay(2, sys3.Accel.Step)
	fresh := trace.MustRecorder(dt, false)
	start := time.Now()
	for _, p := range tp.total {
		fresh.Record(p)
	}
	recT := time.Since(start)
	if !sameBits(fresh.Totals(), rec.Totals()) {
		mismatch++
	}

	var rep, tot int64
	for i := range tp.volt {
		v := tp.volt[i]
		for k := 1; k < len(v); k++ {
			if v[k] == v[k-1] {
				rep++
			}
			tot++
		}
	}

	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.jobs++
	ls.steps += steps
	ls.sizing += t1.Sub(t0)
	ls.build += t2.Sub(t1)
	ls.engine += t3.Sub(t2)
	ls.post += t4.Sub(t3)
	ls.chiplet += chip
	ls.accel += acc
	ls.record += recT
	ls.repeats[j.spec.Scheme.Kind] += rep
	ls.domainSteps[j.spec.Scheme.Kind] += tot
	ls.replayedSteps += n
	ls.replayMismatch += mismatch
	ls.wrong += wrong
	return nil
}

// sameBits reports whether two float slices are identical element by
// element (exact equality; the simulator never produces NaN here).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// publish writes the split's per-layer metrics and counts its
// mismatches as failed checks.
func (ls *layerSplit) publish(rep *report) {
	rep.attempted += ls.jobs
	if ls.replayMismatch > 0 {
		rep.fail("component replay diverged from the engine in %d component streams", ls.replayMismatch)
	}
	if ls.wrong > 0 {
		rep.fail("%d layer-split runs differ from the evaluator's result for the same spec", ls.wrong)
	}
	if ls.jobs == 0 || ls.steps == 0 {
		return
	}
	perStep := func(d time.Duration) float64 { return float64(d) / float64(ls.steps) }
	perJob := func(d time.Duration) float64 { return ms(d) / float64(ls.jobs) }
	step := perStep(ls.engine)
	rep.set("sched.step_ns", step)
	rep.set("chiplet.step_ns", perStep(ls.chiplet))
	rep.set("accelsim.step_ns", perStep(ls.accel))
	rep.set("trace.record_ns", perStep(ls.record))
	rep.set("sched.other_ns", step-perStep(ls.chiplet)-perStep(ls.accel)-perStep(ls.record))
	rep.set("trace.post_ms", perJob(ls.post))
	rep.set("experiment.build_ms", perJob(ls.build))
	rep.set("experiment.sizing_ms", perJob(ls.sizing))
	note("layer split: %d runs, %d engine steps, %d replayed steps, replay bit-identical: %v",
		ls.jobs, ls.steps, ls.replayedSteps, ls.replayMismatch == 0)
	for _, s := range config.StandardSchemes() {
		tot := ls.domainSteps[s.Kind]
		if tot == 0 {
			continue
		}
		rep.set("chiplet.vdom_repeat_frac."+string(s.Kind), float64(ls.repeats[s.Kind])/float64(tot))
		note("vdom repeats %-14s %d / %d domain-steps", s.Kind, ls.repeats[s.Kind], tot)
	}
}
