package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/sim"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	span := 3 * time.Second
	if !reflect.DeepEqual(openLoopJobs(7, serveRate, span), openLoopJobs(7, serveRate, span)) {
		t.Error("open-loop schedule differs for the same seed")
	}
	if reflect.DeepEqual(openLoopJobs(7, serveRate, span), openLoopJobs(8, serveRate, span)) {
		t.Error("open-loop schedule identical across seeds")
	}
	if n := len(openLoopJobs(7, serveRate, span)); n != int(serveRate*span.Seconds()) {
		t.Errorf("open-loop schedule has %d arrivals, want %d", n, int(serveRate*span.Seconds()))
	}
	if !reflect.DeepEqual(closedLoopJobs(7, 64), closedLoopJobs(7, 64)) {
		t.Error("closed-loop jobs differ for the same seed")
	}
	if reflect.DeepEqual(closedLoopJobs(7, 64), closedLoopJobs(8, 64)) {
		t.Error("closed-loop jobs identical across seeds")
	}
	if !reflect.DeepEqual(fleetBatches(7, 64), fleetBatches(7, 64)) {
		t.Error("fleet batches differ for the same seed")
	}
	if reflect.DeepEqual(fleetBatches(7, 64), fleetBatches(8, 64)) {
		t.Error("fleet batches identical across seeds")
	}
}

func TestFleetBatchShape(t *testing.T) {
	sent := make(map[string]bool)
	for i, b := range fleetBatches(3, 200) {
		if len(b.items) != batchSize {
			t.Fatalf("batch %d has %d items, want %d", i, len(b.items), batchSize)
		}
		inBatch := make(map[string]bool)
		fresh := 0
		for _, s := range b.items {
			k := itemKey(b.params, s)
			if !sent[k] && !inBatch[k] {
				fresh++
			}
			inBatch[k] = true
		}
		if b.allHits && fresh != 0 {
			t.Errorf("all-hit batch %d carries %d new items", i, fresh)
		}
		if !b.allHits && fresh != newPerBatch {
			t.Errorf("batch %d carries %d new items, want %d", i, fresh, newPerBatch)
		}
		for k := range inBatch {
			sent[k] = true
		}
	}
}

func TestFigureRequestsMatchFigures(t *testing.T) {
	ev := newFigureEvaluator(1, nil)
	reqs := figureRequests(ev)
	if len(reqs) != 184 {
		t.Errorf("figures request %d specs, want 184", len(reqs))
	}
	if n := len(uniqueSpecs(ev, reqs)); n != 88 {
		t.Errorf("figures need %d engine runs, want 88", n)
	}
}

// TestReplayBitIdentical replays one short run per scheme into fresh
// components and expects every per-step power to match the engine's.
func TestReplayBitIdentical(t *testing.T) {
	combo, err := experiment.ComboByName("Burst-Burst")
	if err != nil {
		t.Fatal(err)
	}
	dur := 200 * sim.Microsecond
	for _, scheme := range config.StandardSchemes() {
		t.Run(string(scheme.Kind), func(t *testing.T) {
			spec := experiment.RunSpec{Combo: combo, Scheme: scheme, Limit: config.PackagePinLimit()}
			ev := experiment.NewEvaluator().WithTargetDur(dur)
			ev.Cfg.Seed = 5
			want, err := ev.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			ls := newLayerSplit()
			if err := ls.one(layerJob{seed: 5, dur: dur, spec: spec, expect: &want}); err != nil {
				t.Fatal(err)
			}
			if ls.replayMismatch != 0 || ls.wrong != 0 {
				t.Errorf("replay mismatches %d, evaluator mismatches %d", ls.replayMismatch, ls.wrong)
			}
			if ls.replayedSteps == 0 || int64(ls.replayedSteps) != ls.steps {
				t.Errorf("replayed %d steps of %d", ls.replayedSteps, ls.steps)
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that the printed metric sets
// and BENCHMARK.json name the same metrics with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		rep := newReport()
		rep.attempted = 1
		var buf bytes.Buffer
		if err := emit(&buf, rep, tc.traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var out struct {
			Metrics map[string]struct{ Unit string } `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Metrics) != len(tc.want) {
			t.Errorf("trace=%v prints %d metrics, BENCHMARK.json lists %d", tc.traced, len(out.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := out.Metrics[m.Name]
			if !ok {
				t.Errorf("trace=%v: %s is in BENCHMARK.json but not printed", tc.traced, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {20, 0.5}, {50, 0.8}, {100, 0.9}, {1000, 0.9}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}
