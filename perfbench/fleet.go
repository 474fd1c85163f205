package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hcapp/internal/cluster"
	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/server"
	"hcapp/internal/telemetry"
)

// fleetWorkers is the fleet size; each worker simulates one item at a
// time, so the fleet runs at most two simulations at once.
const fleetWorkers = 2

// fleetNode is one in-process worker behind its own loopback listener.
type fleetNode struct {
	w      *cluster.Worker
	hs     *http.Server
	served chan error
	cancel context.CancelFunc
	loop   chan error
}

// fleet is a coordinator (a job server in coordinator role) plus its
// registered workers.
type fleet struct {
	coord   *cluster.Coordinator
	head    *serveNode
	workers []*fleetNode
}

// startFleet boots the coordinator and the workers and returns once
// every worker has registered. A non-nil tap carries the coordinator's
// slice traffic to the workers.
func startFleet(client *http.Client, tap *sliceTap) (*fleet, error) {
	ccfg := cluster.CoordinatorConfig{Logf: func(string, ...any) {}}
	if tap != nil {
		ccfg.Client = &http.Client{Transport: tap}
	}
	coord := cluster.NewCoordinator(ccfg)
	srv := server.New(server.Config{
		Workers: 1, // the coordinator delegates; its local pool stays idle
		Cluster: coord,
		Logf:    func(string, ...any) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	head := &serveNode{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { head.served <- head.hs.Serve(ln) }()
	f := &fleet{coord: coord, head: head}
	for i := 0; i < fleetWorkers; i++ {
		wl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		w := cluster.NewWorker(cluster.WorkerConfig{
			ID:            fmt.Sprintf("w%d", i+1),
			Coordinator:   head.base,
			AdvertiseAddr: "http://" + wl.Addr().String(),
			Workers:       1,
			Logf:          func(string, ...any) {},
		})
		ctx, cancel := context.WithCancel(context.Background())
		n := &fleetNode{w: w, hs: &http.Server{Handler: w.Handler()}, served: make(chan error, 1), cancel: cancel, loop: make(chan error, 1)}
		go func() { n.served <- n.hs.Serve(wl) }()
		go func() { n.loop <- w.Run(ctx) }()
		f.workers = append(f.workers, n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkersLive() < fleetWorkers {
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet: %d of %d workers registered after 10s", coord.WorkersLive(), fleetWorkers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return f, waitReady(client, head.base+"/readyz")
}

// stop shuts the workers down, then the coordinator, waiting for each
// goroutine it started.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range f.workers {
		n.cancel()
		<-n.loop
		n.hs.Shutdown(ctx)
		<-n.served
	}
	f.head.stop()
}

// sliceTap wraps the coordinator's transport. While on, it records each
// slice sent to a worker (its decoded request and round-trip time).
type sliceTap struct {
	base http.RoundTripper
	on   atomic.Bool

	mu     sync.Mutex
	rpc    []float64
	slices []cluster.RunRequest
	items  int
}

func (t *sliceTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() || !strings.HasSuffix(req.URL.Path, "/v1/worker/run") || req.Body == nil {
		return t.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	start := time.Now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	// Read the whole reply so the round trip includes the transfer.
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(reply))
	d := time.Since(start)
	var rr cluster.RunRequest
	if json.Unmarshal(body, &rr) == nil {
		t.mu.Lock()
		t.rpc = append(t.rpc, ms(d))
		t.slices = append(t.slices, rr)
		t.items += len(rr.Items)
		t.mu.Unlock()
	}
	return resp, nil
}

// sentBatch is one batch's outcome. Results are kept as digests of
// their wire form, so the benchmark's own memory does not grow with
// the number of items a run completes.
type sentBatch struct {
	batch   fleetBatch
	results []itemOutcome
	latency float64 // ms
}

// itemOutcome is one item's result in digest form.
type itemOutcome struct {
	err    string
	digest [sha256.Size]byte
	steps  int64
}

func digest(r cluster.Result) ([sha256.Size]byte, error) {
	b, err := json.Marshal(r)
	return sha256.Sum256(b), err
}

// runBatches submits batches in order from one closed-loop client until
// span has passed.
func runBatches(c *cluster.Client, batches []fleetBatch, span time.Duration) ([]sentBatch, time.Duration, error) {
	start := time.Now()
	dt := config.Default().TimeStep
	var out []sentBatch
	for i := 0; i < len(batches) && time.Since(start) < span; i++ {
		b := batches[i]
		items := make([]cluster.Item, len(b.items))
		for k := range b.items {
			spec := b.items[k]
			items[k] = cluster.Item{Spec: &spec}
		}
		t := time.Now()
		resp, err := c.Run(context.Background(), b.params, items)
		if err != nil {
			return nil, 0, fmt.Errorf("batch %d: %w", i, err)
		}
		sb := sentBatch{batch: b, latency: ms(time.Since(t)), results: make([]itemOutcome, len(items))}
		for k, res := range resp.Results {
			o := &sb.results[k]
			if o.err = res.Error; res.Result == nil && o.err == "" {
				o.err = "no result"
			}
			if o.err != "" {
				continue
			}
			if o.digest, err = digest(*res.Result); err != nil {
				return nil, 0, err
			}
			o.steps = int64(res.Result.DurationNS / dt)
		}
		out = append(out, sb)
	}
	return out, time.Since(start), nil
}

// itemKey content-addresses one item the way the fleet cache does.
func itemKey(p cluster.Params, s cluster.Spec) string {
	b, _ := json.Marshal(struct {
		P cluster.Params
		S cluster.Spec
	}{p, s})
	return string(b)
}

// standalone runs one item on a local evaluator built from the wire
// parameters, energy ledger attached as fleet workers do.
func standalone(p cluster.Params, s cluster.Spec) (cluster.Result, error) {
	spec, err := s.RunSpec()
	if err != nil {
		return cluster.Result{}, err
	}
	ev := experiment.NewEvaluator().WithTargetDur(p.TargetDurNS)
	ev.Cfg.Seed = p.Seed
	ev.MaxDurFactor = p.MaxDurFactor
	ev.FixedV = p.FixedV
	ev.TrackEnergy = true
	res, err := ev.Run(spec)
	if err != nil {
		return cluster.Result{}, err
	}
	return cluster.ResultOf(res), nil
}

// verifyBatches checks every item against its standalone result, byte
// for byte in wire form, and returns the distinct items with their
// simulated steps.
func verifyBatches(sent []sentBatch, rep *report) (map[string]int64, error) {
	type item struct {
		p    cluster.Params
		s    cluster.Spec
		want [sha256.Size]byte
	}
	distinct := make(map[string]*item)
	var order []*item
	for _, b := range sent {
		for _, s := range b.batch.items {
			k := itemKey(b.batch.params, s)
			if distinct[k] == nil {
				distinct[k] = &item{p: b.batch.params, s: s}
				order = append(order, distinct[k])
			}
		}
	}
	err := experiment.NewRunner(fleetWorkers).Tasks(context.Background(), len(order), func(_ context.Context, i int) error {
		r, err := standalone(order[i].p, order[i].s)
		if err != nil {
			return err
		}
		order[i].want, err = digest(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	steps := make(map[string]int64, len(distinct))
	for _, b := range sent {
		rep.attempted++
		bad := 0
		for k, s := range b.batch.items {
			res := b.results[k]
			key := itemKey(b.batch.params, s)
			if res.err != "" || res.digest != distinct[key].want {
				bad++
				continue
			}
			steps[key] = res.steps
		}
		if bad > 0 {
			rep.fail("batch of %d items: %d differ from standalone results", len(b.batch.items), bad)
		}
	}
	note("fleet: %d distinct items verified byte-identical to standalone runs", len(order))
	return steps, nil
}

// counters scrapes the coordinator's cluster counters.
func counters(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	return telemetry.GatherMap(samples), nil
}

func runFleet(o options, rep *report) error {
	client := newClient()
	defer client.CloseIdleConnections()
	var tap *sliceTap
	if o.trace {
		tap = &sliceTap{base: &http.Transport{}}
	}

	var setups []float64
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		n, err := startFleet(client, tap)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			n.stop()
		} else {
			f = n
		}
	}
	defer f.stop()
	rep.set("setup_s", median(setups))
	fc, err := cluster.NewClient(f.head.base)
	if err != nil {
		return err
	}

	const maxBatches = 4096
	var plain []sentBatch
	var c0 map[string]float64
	span := o.seconds
	if o.trace {
		span /= 2
		if plain, _, err = runBatches(fc, fleetBatches(o.seed+1, maxBatches), span); err != nil {
			return err
		}
		if c0, err = counters(client, f.head.base); err != nil {
			return err
		}
		tap.on.Store(true)
	}
	stopScrape := startTicker(nil)
	if o.trace {
		stopScrape = startTicker(func() { counters(client, f.head.base) })
	}
	sent, wall, err := runBatches(fc, fleetBatches(o.seed, maxBatches), span)
	stopScrape()
	if err != nil {
		return err
	}
	if tap != nil {
		tap.on.Store(false)
	}
	steps, err := verifyBatches(append(append([]sentBatch(nil), plain...), sent...), rep)
	if err != nil {
		return err
	}

	var lat []float64
	items := 0
	unique := make(map[string]bool)
	var simSteps int64
	for _, b := range sent {
		lat = append(lat, b.latency)
		items += len(b.batch.items)
		for _, s := range b.batch.items {
			k := itemKey(b.batch.params, s)
			if !unique[k] {
				unique[k] = true
				simSteps += steps[k]
			}
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no batch completed")
	}
	rep.set("op_p50_ms", median(lat))
	rep.set("op_tail_ms", tail(lat))
	rep.set("ops_per_s", float64(items)/wall.Seconds())
	rep.set("steps_per_s", float64(simSteps)/wall.Seconds())
	note("fleet: %d batches, %d items, %d distinct simulations in %.3f s (fleet_items_per_s %.3f); batch_p50_ms %.3f, p%.0f %.3f",
		len(sent), items, len(unique), wall.Seconds(), float64(items)/wall.Seconds(), median(lat), 100*tailQuantile(len(lat)), tail(lat))
	if !o.trace {
		return nil
	}

	c1, err := counters(client, f.head.base)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return c1[name] - c0[name] }
	var plainLat, hitLat []float64
	for _, b := range plain {
		plainLat = append(plainLat, b.latency)
	}
	for _, b := range sent {
		if b.batch.allHits {
			hitLat = append(hitLat, b.latency)
		}
	}
	rep.set("trace_overhead_frac", median(lat)/median(plainLat)-1)
	rep.set("experiment.engine_runs", float64(len(unique)))
	rep.set("experiment.dedup_ratio", float64(len(unique))/float64(items))
	rep.set("cluster.cache_hit_frac", delta("hcapp_cluster_cache_hits_total")/delta("hcapp_cluster_items_total"))
	rep.set("cluster.hedged_slices", delta("hcapp_cluster_hedged_slices_total"))
	rep.set("cluster.resharded_slices", delta("hcapp_cluster_jobs_resharded_total"))
	rep.set("cluster.hit_batch_ms", median(hitLat))
	tap.mu.Lock()
	rpc, slices, dispatched := tap.rpc, tap.slices, tap.items
	tap.mu.Unlock()
	if dispatched > 0 {
		rep.set("cluster.wasted_frac", 1-float64(len(unique))/float64(dispatched))
	}

	// The same slices, executed directly on a worker outside the fleet.
	if len(slices) > layerSample {
		slices, rpc = slices[:layerSample], rpc[:layerSample]
	}
	rep.set("cluster.slice_rpc_ms", median(rpc))
	direct := cluster.NewWorker(cluster.WorkerConfig{Workers: 1, Logf: func(string, ...any) {}})
	var sliceMS []float64
	for _, s := range slices {
		t := time.Now()
		if _, err := direct.RunSlice(context.Background(), s.Params, s.Items); err != nil {
			return err
		}
		sliceMS = append(sliceMS, ms(time.Since(t)))
	}
	rep.set("cluster.slice_ms", median(sliceMS))

	var jobs []layerJob
	seen := make(map[string]bool)
	for _, b := range sent {
		for _, s := range b.batch.items {
			k := itemKey(b.batch.params, s)
			if seen[k] || len(jobs) == layerSample {
				continue
			}
			seen[k] = true
			spec, err := s.RunSpec()
			if err != nil {
				return err
			}
			jobs = append(jobs, layerJob{seed: b.batch.params.Seed, dur: b.batch.params.TargetDurNS, spec: spec})
		}
	}
	ls := newLayerSplit()
	if err := ls.measure(jobs, fleetWorkers); err != nil {
		return err
	}
	ls.publish(rep)
	return nil
}
