package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hcapp/internal/config"
	"hcapp/internal/experiment"
	"hcapp/internal/server"
	"hcapp/internal/sim"
	"hcapp/internal/telemetry"
)

const (
	// serveWorkers is the job server's pool width.
	serveWorkers = 2
	// serveRate is the open-loop arrival rate: about 60% of the
	// closed-loop capacity of this job mix on the 2-vCPU reference host
	// while other tenants loaded it (19–20 jobs/s; 38 jobs/s unloaded),
	// so a slow host still leaves headroom instead of a growing backlog.
	serveRate = 12.0
	// serveQueue is deep enough that a slow host shows as latency, not
	// as refused jobs.
	serveQueue = 128
	// openShare is the share of the run given to the open-loop phase;
	// the closed-loop phase takes the rest.
	openShare = 0.5
	// serveClients is the closed-loop client count.
	serveClients = 2
	// pollEvery paces status polls; latency is read from the server's
	// own timestamps, so the cadence only bounds closed-loop idle time.
	pollEvery = 2 * time.Millisecond
	// layerSample bounds how many distinct jobs the per-layer split
	// re-executes.
	layerSample = 24
)

// serveNode is one in-process job server behind a loopback listener.
type serveNode struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
}

// startServe starts a job server that retains maxJobs finished jobs:
// enough for the open-loop phase's final read, and a fixed bound so
// memory does not grow with how many closed-loop jobs a run completes.
func startServe(client *http.Client, maxJobs int) (*serveNode, error) {
	srv := server.New(server.Config{
		Workers:    serveWorkers,
		QueueDepth: serveQueue,
		MaxJobs:    maxJobs,
		Logf:       func(string, ...any) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &serveNode{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { n.served <- n.hs.Serve(ln) }()
	if err := waitReady(client, n.base+"/readyz"); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// waitReady polls url until it answers 200.
func waitReady(client *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s (last error %v)", url, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop drains the HTTP listener and the job pool, and waits for both.
func (n *serveNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.hs.Shutdown(ctx)
	<-n.served
	n.srv.Shutdown(ctx)
}

// newClient returns an HTTP client holding at most two connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// submit POSTs one job. A 429 returns ok=false with no error.
func submit(client *http.Client, base string, req server.JobRequest) (id string, ok bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", false, err
	}
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var st server.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return "", false, err
		}
		return st.ID, true, nil
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return "", false, nil
	default:
		b, _ := io.ReadAll(resp.Body)
		return "", false, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func terminal(s server.JobState) bool { return s == server.StateDone || s == server.StateFailed }

// waitJob polls one job until it is done or failed.
func waitJob(client *http.Client, base, id string) (server.JobStatus, error) {
	for {
		var st server.JobStatus
		if err := getJSON(client, base+"/v1/jobs/"+id, &st); err != nil {
			return st, err
		}
		if terminal(st.State) {
			return st, nil
		}
		time.Sleep(pollEvery)
	}
}

// sentJob is one job the benchmark submitted.
type sentJob struct {
	req      server.JobRequest
	due      time.Time // open loop only
	late     time.Duration
	submit   time.Duration
	rejected bool
	status   server.JobStatus
}

// openLoop sends the schedule on time from one goroutine, then waits
// for every accepted job to finish. A non-nil scrape is called every
// 100 ms while jobs are in flight (the traced variant).
func openLoop(client *http.Client, base string, jobs []scheduledJob, scrape func()) ([]sentJob, error) {
	out := make([]sentJob, len(jobs))
	stopScrape := startTicker(scrape)
	defer stopScrape()
	start := time.Now()
	ids := make(map[string]int, len(jobs))
	for i, j := range jobs {
		due := start.Add(j.due)
		time.Sleep(time.Until(due))
		t := time.Now()
		id, ok, err := submit(client, base, j.req)
		if err != nil {
			return nil, err
		}
		out[i] = sentJob{req: j.req, due: due, late: t.Sub(due), submit: time.Since(t), rejected: !ok}
		if ok {
			ids[id] = i
		}
	}
	deadline := time.Now().Add(time.Minute)
	for len(ids) > 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d open-loop jobs unfinished or evicted after a minute", len(ids))
		}
		var list struct {
			Jobs []server.JobStatus `json:"jobs"`
		}
		if err := getJSON(client, base+"/v1/jobs", &list); err != nil {
			return nil, err
		}
		for _, st := range list.Jobs {
			if i, ok := ids[st.ID]; ok && terminal(st.State) {
				out[i].status = st
				delete(ids, st.ID)
			}
		}
		if len(ids) > 0 {
			time.Sleep(25 * time.Millisecond)
		}
	}
	return out, nil
}

// startTicker calls f every 100 ms until the returned stop is called;
// stop waits for the ticking goroutine to exit. A nil f is a no-op.
func startTicker(f func()) func() {
	if f == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				f()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// closedLoop runs serveClients clients, each submitting its next job
// once the previous one finished, until span has passed.
func closedLoop(client *http.Client, base string, jobs []server.JobRequest, span time.Duration) ([]sentJob, time.Time, error) {
	start := time.Now()
	deadline := start.Add(span)
	var next atomic.Int64
	var mu sync.Mutex
	var out []sentJob
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(jobs)
				t := time.Now()
				id, ok, err := submit(client, base, jobs[i])
				sj := sentJob{req: jobs[i], submit: time.Since(t), rejected: !ok}
				if err == nil && ok {
					sj.status, err = waitJob(client, base, id)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out = append(out, sj)
				mu.Unlock()
				if err != nil {
					return
				}
				if !ok {
					time.Sleep(pollEvery)
				}
			}
		}()
	}
	wg.Wait()
	return out, start, firstErr
}

// compileJob maps a request onto the evaluator vocabulary exactly as
// the job server documents it (defaults: hcapp, package-pin, 2 ms,
// seed 42).
func compileJob(req server.JobRequest) (experiment.RunSpec, sim.Time, int64, error) {
	combo, err := experiment.ComboByName(req.Combo)
	if err != nil {
		return experiment.RunSpec{}, 0, 0, err
	}
	kind := config.SchemeKind(req.Scheme)
	if req.Scheme == "" {
		kind = config.HCAPP
	}
	scheme, err := config.SchemeByKind(kind)
	if err != nil {
		return experiment.RunSpec{}, 0, 0, err
	}
	if scheme.Kind == config.FixedVoltage && req.FixedV != 0 {
		scheme.FixedV = req.FixedV
	}
	limit := config.PackagePinLimit()
	if req.Limit == config.OffPackageVRLimit().Name {
		limit = config.OffPackageVRLimit()
	}
	dur := sim.Time(req.DurMS * float64(sim.Millisecond))
	if req.DurMS == 0 {
		dur = 2 * sim.Millisecond
	}
	seed := int64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	spec := experiment.RunSpec{Combo: combo, Scheme: scheme, Limit: limit, Priorities: req.Priorities, AdversarialAccel: req.AdversarialAccel, Policy: req.Policy}
	return spec, dur, seed, nil
}

// directRun runs a job's spec on a fresh evaluator, as the job server
// does but without its observers unless trackEnergy asks for the ledger.
func directRun(req server.JobRequest, trackEnergy bool) (experiment.RunResult, time.Duration, error) {
	spec, dur, seed, err := compileJob(req)
	if err != nil {
		return experiment.RunResult{}, 0, err
	}
	ev := experiment.NewEvaluator().WithTargetDur(dur)
	ev.Cfg.Seed = seed
	ev.TrackEnergy = trackEnergy
	start := time.Now()
	res, err := ev.Run(spec)
	return res, time.Since(start), err
}

// expectedResult projects a direct run onto the job API's result type.
func expectedResult(r experiment.RunResult) server.JobResult {
	out := server.JobResult{
		MaxWindowPower: r.MaxWindowPower,
		MaxOverLimit:   r.MaxOverLimit,
		Violated:       r.Violated,
		AvgPower:       r.AvgPower,
		PPE:            r.PPE,
		CompletionNS:   r.Completion,
		Completed:      r.Completed,
		DurationNS:     r.Duration,
		ControlCycles:  r.ControlCycles,
	}
	if r.Energy != nil {
		out.EnergyJoules = r.Energy.TotalJ
	}
	return out
}

func reqKey(req server.JobRequest) string {
	b, _ := json.Marshal(req)
	return string(b)
}

// verified is one distinct request's direct results.
type verified struct {
	req   server.JobRequest
	want  experiment.RunResult
	plain time.Duration // direct run with no observer (traced runs only)
}

// verifyJobs reruns every distinct request directly (two at a time)
// and fails each served job whose result differs field by field.
func verifyJobs(sent []sentJob, timed bool, rep *report) (map[string]*verified, error) {
	distinct := make(map[string]*verified)
	var order []*verified
	for _, s := range sent {
		if s.status.Result == nil {
			continue
		}
		k := reqKey(s.req)
		if distinct[k] == nil {
			distinct[k] = &verified{req: s.req}
			order = append(order, distinct[k])
		}
	}
	err := experiment.NewRunner(serveWorkers).Tasks(context.Background(), len(order), func(_ context.Context, i int) error {
		v := order[i]
		var err error
		if v.want, _, err = directRun(v.req, true); err != nil {
			return err
		}
		if timed {
			_, v.plain, err = directRun(v.req, false)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, s := range sent {
		if s.status.Result == nil {
			continue
		}
		want := expectedResult(distinct[reqKey(s.req)].want)
		if !reflect.DeepEqual(*s.status.Result, want) {
			rep.fail("job %s result differs from a direct evaluator run of %s", s.status.ID, reqKey(s.req))
		}
	}
	note("serve: %d distinct jobs verified against direct evaluator runs", len(order))
	return distinct, nil
}

// account counts each sent job as an operation and fails rejected or
// failed ones.
func account(sent []sentJob, rep *report) {
	for _, s := range sent {
		rep.attempted++
		switch {
		case s.rejected:
			rep.fail("job %s was rejected with 429", reqKey(s.req))
		case s.status.State != server.StateDone:
			rep.fail("job %s ended %s: %s", s.status.ID, s.status.State, s.status.Error)
		}
	}
}

// latencies returns each open-loop job's latency from its due time to
// the server's ended_at; rejected or failed jobs count as +Inf.
func latencies(sent []sentJob) []float64 {
	out := make([]float64, len(sent))
	for i, s := range sent {
		if s.rejected || s.status.State != server.StateDone || s.status.EndedAt == nil {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ms(s.status.EndedAt.Sub(s.due))
	}
	return out
}

func runServe(o options, rep *report) error {
	client := newClient()
	defer client.CloseIdleConnections()

	openSpan := time.Duration(float64(o.seconds) * openShare)
	closedSpan := o.seconds - openSpan
	maxJobs := int(serveRate*openSpan.Seconds()) + 256
	var setups []float64
	var node *serveNode
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		n, err := startServe(client, maxJobs)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			n.stop()
		} else {
			node = n
		}
	}
	defer node.stop()
	rep.set("setup_s", median(setups))

	metricsAt := func() float64 {
		var m float64
		resp, err := client.Get(node.base + "/metrics")
		if err != nil {
			return m
		}
		defer resp.Body.Close()
		samples, err := telemetry.ParseText(resp.Body)
		if err == nil {
			m = telemetry.GatherMap(samples)["hcapp_run_duration_seconds_sum"]
		}
		return m
	}

	var sentOpen, sentPlain []sentJob
	var err error
	busy0, t0 := metricsAt(), time.Now()
	if o.trace {
		// Untraced and traced halves of the same open-loop schedule.
		half := openSpan / 2
		if sentPlain, err = openLoop(client, node.base, openLoopJobs(o.seed, serveRate, half), nil); err != nil {
			return err
		}
		if sentOpen, err = openLoop(client, node.base, openLoopJobs(o.seed+1, serveRate, half), func() { metricsAt() }); err != nil {
			return err
		}
	} else if sentOpen, err = openLoop(client, node.base, openLoopJobs(o.seed, serveRate, openSpan), nil); err != nil {
		return err
	}
	sentClosed, closedStart, err := closedLoop(client, node.base, closedLoopJobs(o.seed, 1<<12), closedSpan)
	if err != nil {
		return err
	}
	busy := (metricsAt() - busy0) / (serveWorkers * time.Since(t0).Seconds())

	all := append(append(append([]sentJob(nil), sentPlain...), sentOpen...), sentClosed...)
	account(all, rep)
	distinct, err := verifyJobs(all, o.trace, rep)
	if err != nil {
		return err
	}

	lat := latencies(sentOpen)
	rep.set("op_p50_ms", median(lat))
	rep.set("op_tail_ms", tail(lat))
	note("serve: open loop %d jobs at %.1f/s: job_p50_ms %.3f, p%.0f %.3f", len(lat), serveRate, median(lat), 100*tailQuantile(len(lat)), tail(lat))
	var done int
	var steps int64
	var lastEnd time.Time
	dt := config.Default().TimeStep
	for _, s := range sentClosed {
		if s.status.State == server.StateDone && s.status.Result != nil {
			done++
			steps += int64(s.status.Result.DurationNS / dt)
			if s.status.EndedAt.After(lastEnd) {
				lastEnd = *s.status.EndedAt
			}
		}
	}
	span := lastEnd.Sub(closedStart).Seconds()
	if done == 0 || span <= 0 {
		return fmt.Errorf("closed loop completed no job")
	}
	rep.set("ops_per_s", float64(done)/span)
	rep.set("steps_per_s", float64(steps)/span)
	note("serve: closed loop %d clients, %d jobs in %.3f s (jobs_per_s %.3f)", serveClients, done, span, float64(done)/span)
	if !o.trace {
		return nil
	}

	rep.set("trace_overhead_frac", median(lat)/median(latencies(sentPlain))-1)
	rep.set("experiment.runner_busy_frac", busy)
	rep.set("experiment.engine_runs", float64(len(all)))
	rep.set("experiment.dedup_ratio", 1) // the server runs every job; nothing is shared
	var submitMS, waitMS, runMS, late, overhead []float64
	rejected := 0
	for _, s := range all {
		submitMS = append(submitMS, ms(s.submit))
		if s.rejected {
			rejected++
		}
	}
	for _, s := range sentOpen {
		late = append(late, ms(s.late))
		st := s.status
		if st.StartedAt == nil || st.EndedAt == nil {
			continue
		}
		waitMS = append(waitMS, ms(st.StartedAt.Sub(st.CreatedAt)))
		run := st.EndedAt.Sub(*st.StartedAt)
		runMS = append(runMS, ms(run))
		if v := distinct[reqKey(s.req)]; v != nil && v.plain > 0 {
			overhead = append(overhead, float64(run)/float64(v.plain)-1)
		}
	}
	rep.set("server.submit_p50_ms", median(submitMS))
	rep.set("server.submit_p90_ms", percentile(submitMS, 0.9))
	rep.set("server.queue_wait_p50_ms", median(waitMS))
	rep.set("server.queue_wait_p90_ms", percentile(waitMS, 0.9))
	rep.set("server.run_p50_ms", median(runMS))
	rep.set("server.run_p90_ms", percentile(runMS, 0.9))
	rep.set("server.observer_overhead_frac", median(overhead))
	rep.set("server.rejected_frac", float64(rejected)/float64(len(all)))
	rep.set("gen.late_ms", percentile(late, 0.9))

	var jobs []layerJob
	picked := make(map[*verified]bool)
	for _, s := range sentOpen {
		v := distinct[reqKey(s.req)]
		if v == nil || picked[v] || s.req.Policy != "" || len(jobs) == layerSample {
			continue
		}
		picked[v] = true
		spec, dur, seed, err := compileJob(s.req)
		if err != nil {
			return err
		}
		want := v.want
		jobs = append(jobs, layerJob{seed: seed, dur: dur, spec: spec, expect: &want})
	}
	ls := newLayerSplit()
	if err := ls.measure(jobs, serveWorkers); err != nil {
		return err
	}
	ls.publish(rep)
	return nil
}
