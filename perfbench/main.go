// Command perfbench is the repository's end-to-end benchmark. It drives
// the HCAPP reproduction through its public packages and HTTP API on one
// of three workloads, checks the outputs, and prints every metric with
// its unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 they
// are the per-layer set, timed from outside by wrapping the calls into
// each layer. Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one named quantity with its unit.
type metric struct {
	name, unit string
}

// endToEnd are the user-visible metrics every workload reports with
// tracing off. "op" is the workload's unit of work: one Fig. 4–10
// regeneration (figures), one job (serve), one batch (fleet).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"steps_per_s", "steps/s"},
}

// perLayer are the traced-run metrics. Every workload prints all of
// them; a layer the workload does not exercise reports 0.
var perLayer = []metric{
	{"sched.step_ns", "ns"},
	{"chiplet.step_ns", "ns"},
	{"accelsim.step_ns", "ns"},
	{"trace.record_ns", "ns"},
	{"sched.other_ns", "ns"},
	{"trace.post_ms", "ms"},
	{"experiment.build_ms", "ms"},
	{"experiment.sizing_ms", "ms"},
	{"experiment.engine_runs", "count"},
	{"experiment.dedup_ratio", "ratio"},
	{"experiment.runner_busy_frac", "frac"},
	{"chiplet.vdom_repeat_frac.fixed-voltage", "frac"},
	{"chiplet.vdom_repeat_frac.hcapp", "frac"},
	{"chiplet.vdom_repeat_frac.rapl-like", "frac"},
	{"chiplet.vdom_repeat_frac.sw-like", "frac"},
	{"server.submit_p50_ms", "ms"},
	{"server.submit_p90_ms", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p90_ms", "ms"},
	{"server.run_p50_ms", "ms"},
	{"server.run_p90_ms", "ms"},
	{"server.observer_overhead_frac", "frac"},
	{"server.rejected_frac", "frac"},
	{"gen.late_ms", "ms"},
	{"cluster.cache_hit_frac", "frac"},
	{"cluster.hedged_slices", "count"},
	{"cluster.resharded_slices", "count"},
	{"cluster.hit_batch_ms", "ms"},
	{"cluster.slice_ms", "ms"},
	{"cluster.slice_rpc_ms", "ms"},
	{"cluster.wasted_frac", "frac"},
	{"op_tail_ms", "ms"},
	{"trace_overhead_frac", "frac"},
	{"paper_err_pp", "pp"},
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records one failed operation or check, with its reason on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// note prints a human-readable line above the result JSON.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

var workloads = map[string]func(options, *report) error{
	"figures": runFigures,
	"serve":   runServe,
	"fleet":   runFleet,
}

func main() {
	name := flag.String("workload", "", "workload: figures, serve or fleet")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement length in seconds")
	traced := flag.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %v, -seconds > 0, -trace 0|1\n", names)
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traced == 1}
	rep := newReport()
	if err := run(opts, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.set("peak_rss_mb", peakRSSMB())
	if err := emit(os.Stdout, rep, opts.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints each metric as a readable line, then the result JSON.
func emit(w io.Writer, rep *report, traced bool) error {
	set := endToEnd
	if traced {
		set = perLayer
	}
	if rep.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	metrics := make(map[string]jsonMetric, len(set))
	for _, m := range set {
		v := rep.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no encoding for these; the run is wrong anyway.
			rep.fail("metric %s is %v", m.name, v)
			v = -1
		}
		metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-40s %16.6g %s\n", m.name, v, m.unit)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
