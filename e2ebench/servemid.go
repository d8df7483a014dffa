package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/serve"
)

const (
	// nominalRate is serve-mid's reference load in requests per second,
	// about a quarter of what two cores sustain.
	nominalRate = 300.0
	// p99LimitMS is the latency limit a rate step must meet at its tail
	// percentile to count as sustained.
	p99LimitMS = 50.0
	// sessionCycle is how many requests one turn of a session's traffic
	// takes: cmd/loadgen's churn lifecycle between create and close —
	// advance, inject one request, advance.
	sessionCycle = 3
	// injectInS is the appearance offset of every injected request, the
	// one cmd/loadgen's churn lifecycle uses.
	injectInS = 120
	// stepSessions is how many sessions a step spreads its requests over,
	// and how many clients the closed-loop step runs: cmd/loadgen's 16. A
	// step gets more sessions, in multiples of it, when it sends more than
	// maxAdvancesPerSession advances per session.
	stepSessions = 16
	// maxAdvancesPerSession keeps every session short of the day's 288
	// windows, so no advance meets a finished run.
	maxAdvancesPerSession = 240
	// closedLoopSessions is how many sessions the closed-loop clients share
	// out: one of each method per client.
	closedLoopSessions = 4 * stepSessions
	// closedLoopPerClient is how many requests each closed-loop client
	// sends, about five seconds' worth on two cores: 100 advances on each
	// of its sessions.
	closedLoopPerClient = 600
	// closedLoopParts is how many parts of equal request count the
	// closed-loop step is cut into, in completion order; its capacity is
	// the median of the parts' rates.
	closedLoopParts = 32
	// rateGrid is the ratio between neighbouring rate steps.
	rateGrid = 1.0905077326652577 // 2^(1/8)
	// minAdvances is how many advances a step needs for its p99 to have
	// minBeyond samples beyond it, with a margin.
	minAdvances = 1100
	// nominalSegments is how many consecutive parts of the nominal step
	// each report their own latency percentiles; the step reports the
	// median over the parts.
	nominalSegments = 3
)

// sessionMethods is the session mix: session i runs sessionMethods[i mod 4].
var sessionMethods = []string{"mr", "greedy", "rescue", "schedule"}

// apiClient calls the service's HTTP handler in process.
type apiClient struct{ h http.Handler }

func (c apiClient) call(method, path string, body any) (int, []byte) {
	var b []byte
	if body != nil {
		b, _ = json.Marshal(body) // the benchmark's own request types always encode
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
	return rec.Code, rec.Body.Bytes()
}

// op is one scheduled request of a step.
type op struct {
	due     time.Duration // offset from the step's start
	session int
	inject  []serve.InjectSpec // nil: advance one window
}

// sample is one completed request.
type sample struct {
	openLoopSample
	session int
	inject  bool
	status  int
}

// stepPlan is one step: its sessions and schedule.
type stepPlan struct {
	sessions int
	ops      []op
}

// planStep builds a schedule over the given due offsets. Requests visit
// the sessions round robin, so one session's requests are always
// `sessions` slots apart, and each session repeats the sessionCycle
// advance, inject, advance; an inject streams one request on a segment
// drawn from segs.
func planStep(rng *rand.Rand, dues []time.Duration, segs []roadnet.SegmentID) stepPlan {
	n := len(dues)
	perSession := maxAdvancesPerSession * sessionCycle / 2
	sessions := stepSessions * int(math.Ceil(float64(n)/float64(stepSessions*perSession)))
	p := stepPlan{sessions: sessions}
	for i, due := range dues {
		o := op{due: due, session: i % sessions}
		if (i/sessions)%sessionCycle == 1 {
			o.inject = []serve.InjectSpec{{Seg: int(segs[rng.Intn(len(segs))]), InS: injectInS}}
		}
		p.ops = append(p.ops, o)
	}
	return p
}

// stepRequests is how many requests a step at rate sends: seconds' worth,
// but at least enough for minAdvances advances beside the injects.
func stepRequests(rate, seconds float64) int {
	min := float64(minAdvances) * sessionCycle / (sessionCycle - 1)
	return int(math.Round(math.Max(rate*seconds, min)))
}

// methodOf is session i's dispatch method.
func methodOf(i int) string { return sessionMethods[i%len(sessionMethods)] }

// stepResult is what one step measured.
type stepResult struct {
	plan      stepPlan
	ids       []string
	samples   []sample
	createDur []time.Duration
	statuses  map[int]int
	start     time.Time
	end       time.Time // last reply
}

// advanceLatencies returns the advance requests' latencies from their due
// times, in ms.
func (r *stepResult) advanceLatencies() []float64 {
	var out []float64
	for _, s := range r.samples {
		if !s.inject {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// sustained reports whether the step met the latency limit at its tail
// percentile, turned nothing away, and drained its backlog: the last reply
// came within the limit of the last due time.
func (r *stepResult) sustained() (bool, latencySummary) {
	lat := summarize(r.advanceLatencies())
	last := r.start.Add(r.plan.ops[len(r.plan.ops)-1].due)
	ok := lat.TailPct >= 99 && lat.Tail <= p99LimitMS && ms(r.end.Sub(last)) <= p99LimitMS
	for _, s := range r.samples {
		ok = ok && s.status == http.StatusOK
	}
	return ok, lat
}

// send issues one scheduled request and times it from its due time.
func send(c apiClient, id string, o op, due time.Time) sample {
	s := sample{session: o.session, inject: o.inject != nil}
	s.due, s.sent = due, time.Now()
	if o.inject != nil {
		s.status, _ = c.call("POST", "/api/sessions/"+id+"/inject", map[string]any{"requests": o.inject})
	} else {
		s.status, _ = c.call("POST", "/api/sessions/"+id+"/advance", map[string]int{"windows": 1})
	}
	s.done = time.Now()
	return s
}

// runStep creates the step's sessions, drives its open-loop schedule and
// leaves the sessions open. Each request goes out at its due time on a
// goroutine of its own, however many are still in flight, so a step above
// capacity fills the sessions' queues and meets 429s. One session's
// requests are due `sessions` slots apart, far longer than a request takes
// to reach the session's queue, so each session sees them in schedule
// order.
func runStep(c apiClient, p stepPlan, seed int64) (*stepResult, error) {
	r := &stepResult{plan: p, statuses: map[int]int{}}
	if err := r.create(c, seed); err != nil {
		return nil, err
	}
	r.samples = make([]sample, len(p.ops))
	var wg sync.WaitGroup
	r.start = time.Now().Add(5 * time.Millisecond)
	for i, o := range p.ops {
		due := r.start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, o op, due time.Time) {
			defer wg.Done()
			r.samples[i] = send(c, r.ids[o.session], o, due)
		}(i, o, due)
	}
	wg.Wait()
	r.tally()
	return r, nil
}

// create opens the plan's sessions, session i running methodOf(i).
func (r *stepResult) create(c apiClient, seed int64) error {
	for i := 0; i < r.plan.sessions; i++ {
		t0 := time.Now()
		code, body := c.call("POST", "/api/sessions", serve.SessionSpec{Method: methodOf(i), Seed: seed + int64(i)})
		r.createDur = append(r.createDur, time.Since(t0))
		if code != http.StatusCreated {
			return fmt.Errorf("create session: HTTP %d: %s", code, body)
		}
		var st serve.Status
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("create session: %w", err)
		}
		r.ids = append(r.ids, st.ID)
	}
	return nil
}

// tally counts the samples' statuses and finds the last reply.
func (r *stepResult) tally() {
	for _, s := range r.samples {
		r.statuses[s.status]++
		if s.done.After(r.end) {
			r.end = s.done
		}
	}
}

// closeAll closes the step's sessions, optionally advancing each to the
// end of its day first, and returns the summaries and close times.
func closeAll(c apiClient, r *stepResult, finish bool) ([]serve.Summary, []time.Duration, error) {
	var sums []serve.Summary
	var closes []time.Duration
	for _, id := range r.ids {
		if finish {
			code, body := c.call("POST", "/api/sessions/"+id+"/advance", map[string]int{"windows": 0})
			r.statuses[code]++
			if code != http.StatusOK {
				return nil, nil, fmt.Errorf("finish %s: HTTP %d: %s", id, code, body)
			}
		}
		t0 := time.Now()
		code, body := c.call("DELETE", "/api/sessions/"+id, nil)
		closes = append(closes, time.Since(t0))
		r.statuses[code]++
		if code != http.StatusOK {
			return nil, nil, fmt.Errorf("close %s: HTTP %d: %s", id, code, body)
		}
		var sum serve.Summary
		if err := json.Unmarshal(body, &sum); err != nil {
			return nil, nil, fmt.Errorf("close %s: %w", id, err)
		}
		sums = append(sums, sum)
	}
	return sums, closes, nil
}

// servePass is one nominal-rate pass through a fresh service: the step,
// then every session run to the end of its day and closed.
type servePass struct {
	step      *stepResult
	sums      []serve.Summary
	closes    []time.Duration
	windows   int
	events    int64
	bytes     int64
	advSecs   float64 // server-side advance time in the step
	svcEmpty  bool
	listEmpty bool
}

// newService builds a service with event recording on.
func newService(world serve.World, seed int64, reg *obs.Registry) (*serve.Service, *eventlog.Log, error) {
	log, err := eventlog.New(io.Discard, eventlog.Manifest{Scale: "mid", Seed: seed}, eventlog.Options{})
	if err != nil {
		return nil, nil, err
	}
	svc, err := serve.NewService(world, serve.Config{Log: log, Metrics: reg})
	return svc, log, err
}

func runNominalPass(sys *core.System, world serve.World, p stepPlan, seed int64, reg *obs.Registry, rep *report) (*servePass, error) {
	sys.EvalProvider.ResetCache()
	svc, log, err := newService(world, seed, reg)
	if err != nil {
		return nil, err
	}
	c := apiClient{svc.Handler()}
	adv := reg.Histogram(serve.MetricAdvanceSecs, "", nil)
	adv0 := adv.Sum()
	step, err := runStep(c, p, seed)
	if err != nil {
		return nil, err
	}
	pass := &servePass{step: step, advSecs: adv.Sum() - adv0}
	rep.markHeap()
	ev0, by0, _ := log.Stats()
	pass.sums, pass.closes, err = closeAll(c, step, true)
	if err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, fmt.Errorf("event log: %w", err)
	}
	ev1, by1, _ := log.Stats()
	pass.events, pass.bytes = ev1-ev0, by1-by0
	for _, s := range pass.sums {
		pass.windows += s.Progress.Window
	}
	pass.svcEmpty = svc.SessionCount() == 0
	code, body := c.call("GET", "/api/sessions", nil)
	var list struct {
		Sessions []serve.Status `json:"sessions"`
	}
	pass.listEmpty = code == http.StatusOK && json.Unmarshal(body, &list) == nil && len(list.Sessions) == 0
	return pass, nil
}

// checkPass checks statuses, accounting and teardown of a nominal pass.
func checkPass(rep *report, label string, p *servePass) {
	for code, n := range p.step.statuses {
		rep.check(code/100 == 2 || code == http.StatusTooManyRequests, "%s: %d responses with HTTP %d", label, n, code)
	}
	rep.check(p.svcEmpty && p.listEmpty, "%s: session table not empty after teardown", label)
	for _, s := range p.sums {
		rep.check(s.State == "finished", "%s: session %s %s after finishing", label, s.ID, s.State)
		rep.check(s.Served+s.Unserved == s.Progress.Requests, "%s: session %s served %d + unserved %d != %d requests",
			label, s.ID, s.Served, s.Unserved, s.Progress.Requests)
		rep.check(s.Timely <= s.Served, "%s: session %s timely %d > served %d", label, s.ID, s.Timely, s.Served)
	}
}

// summaryKey renders a pass's session outcomes for comparison.
func summaryKey(p *servePass) string {
	var b bytes.Buffer
	for _, s := range p.sums {
		fmt.Fprintf(&b, "%s %s %d %d %d %d %d;", s.ID, s.Spec.Method, s.Progress.Window, s.Progress.Requests, s.Served, s.Timely, s.Unserved)
	}
	return b.String()
}

// runServeMid serves mid-scale sessions through the HTTP API.
func runServeMid(o options, rep *report) error {
	var reg *obs.Registry
	if o.trace {
		reg = obs.NewRegistry()
	}
	sys, builds, err := buildRepeated(midBuilds, "mid", o.seed, reg)
	if err != nil {
		return err
	}
	reportSetup(rep, builds, o.trace)
	rep.markHeap()
	world, err := core.NewSessionWorld(sys)
	if err != nil {
		return err
	}
	ep := sys.Scenario.Eval
	var segs []roadnet.SegmentID
	for _, r := range core.RequestsForDay(ep, ep.PeakRequestDay()) {
		segs = append(segs, r.Seg)
	}
	rng := rand.New(rand.NewSource(o.seed))
	nominal := planStep(rng, evenSchedule(nominalRate, nominalSegments*stepRequests(nominalRate, float64(o.seconds)/4)), segs)
	if o.trace {
		return traceServeMid(sys, world, nominal, rng, o, segs, reg, rep)
	}
	pass, err := runNominalPass(sys, world, nominal, o.seed, nil, rep)
	if err != nil {
		return err
	}
	checkPass(rep, "nominal", pass)
	lat := segmented(pass.step.advanceLatencies(), nominalSegments)
	rep.check(lat.TailPct >= 99, "nominal step: %d advances in a segment, too few for p99", lat.N)
	timely, requests := 0, 0
	for _, s := range pass.sums {
		timely += s.Timely
		requests += s.Progress.Requests
	}
	rep.attempted, rep.failed = len(pass.step.samples), pass.step.statuses[http.StatusTooManyRequests]

	capacity, err := closedLoopCapacity(sys, world, rng, o.seed, segs, rep)
	if err != nil {
		return err
	}
	rep.set("latency_p50_ms", lat.P50, "ms")
	rep.set("latency_tail_ms", lat.Tail, "ms")
	rep.set("throughput_per_s", capacity, "1/s")
	rep.set("timely_share", float64(timely)/float64(requests), "ratio")
	rep.note("advance_p50_ms", lat.P50, "ms")
	rep.note(fmt.Sprintf("advance_p%g_ms", lat.TailPct), lat.Tail, fmt.Sprintf("ms (median of %d segments, n=%d each)", nominalSegments, lat.N))
	var service, late []float64
	for _, smp := range pass.step.samples {
		if !smp.inject {
			service = append(service, ms(smp.done.Sub(smp.sent)))
			late = append(late, ms(smp.lateness()))
		}
	}
	svcLat := segmented(service, nominalSegments)
	rep.note("advance_service_p50_ms", svcLat.P50, "ms")
	rep.note(fmt.Sprintf("advance_service_p%g_ms", svcLat.TailPct), svcLat.Tail, "ms (sent to reply)")
	rep.note(fmt.Sprintf("lateness_p%g_ms", svcLat.TailPct), segmented(late, nominalSegments).Tail, "ms")
	rep.note("nominal_rate", nominalRate, "1/s")
	rep.note("sessions_timely_served", float64(timely), "count")
	rep.note("sessions_requests", float64(requests), "count")
	return nil
}

// closedLoopCapacity runs stepSessions clients on fresh sessions of the
// nominal mix and returns the requests completed per second: the median
// rate over closedLoopParts parts of equal request count. Client c owns
// sessions 4c to 4c+3, one of each method, and sends closedLoopPerClient
// requests of their share of the schedule in order, each as soon as the
// previous reply is in. Every client carries the same mix, so they finish
// together and every run measures the same work. With one request per
// client in flight no queue can fill, so a 429 here counts as failed.
func closedLoopCapacity(sys *core.System, world serve.World, rng *rand.Rand, seed int64, segs []roadnet.SegmentID, rep *report) (float64, error) {
	sys.EvalProvider.ResetCache()
	svc, log, err := newService(world, seed, nil)
	if err != nil {
		return 0, err
	}
	defer log.Close()
	c := apiClient{svc.Handler()}
	p := planStep(rng, make([]time.Duration, closedLoopSessions*maxAdvancesPerSession*sessionCycle/2), segs)
	r := &stepResult{plan: p, statuses: map[int]int{}}
	if err := r.create(c, seed); err != nil {
		return 0, err
	}
	owned := make([][]op, stepSessions)
	for _, o := range p.ops {
		if cl := o.session / len(sessionMethods); len(owned[cl]) < closedLoopPerClient {
			owned[cl] = append(owned[cl], o)
		}
	}
	per := make([][]sample, stepSessions)
	var wg sync.WaitGroup
	r.start = time.Now()
	for cl := range owned {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for _, o := range owned[cl] {
				per[cl] = append(per[cl], send(c, r.ids[o.session], o, r.start))
			}
		}(cl)
	}
	wg.Wait()
	for _, ss := range per {
		r.samples = append(r.samples, ss...)
	}
	r.tally()
	if _, _, err := closeAll(c, r, false); err != nil {
		return 0, err
	}
	rep.attempted += len(r.samples)
	rep.failed += r.statuses[http.StatusTooManyRequests]
	for code, n := range r.statuses {
		rep.check(code/100 == 2 || code == http.StatusTooManyRequests, "closed loop: %d responses with HTTP %d", n, code)
	}
	rep.check(svc.SessionCount() == 0, "closed loop: session table not empty after teardown")
	done := make([]time.Time, len(r.samples))
	for i, smp := range r.samples {
		done[i] = smp.done
	}
	rep.note("closed_loop_requests_per_s", float64(len(r.samples))/r.end.Sub(r.start).Seconds(), "1/s (over the whole step)")
	return medianRate(countSlices(r.start, done, closedLoopParts)), nil
}

// searchMaxRate finds the highest sustained step on the grid nominalRate
// · rateGrid^k: starting from the nominal step's outcome (k = 0) it
// doubles the rate until a step fails, then bisects k between the last
// sustained and the first failed step. A step above capacity is meant to
// meet 429s, so the search's requests are printed apart from the run's
// attempted and failed counts.
func searchMaxRate(sys *core.System, world serve.World, rng *rand.Rand, o options, segs []roadnet.SegmentID, nominalOK bool, rep *report) (float64, int, error) {
	svc, log, err := newService(world, o.seed, nil)
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	c := apiClient{svc.Handler()}
	steps, sent, busy := 0, 0, 0
	tryK := func(k int) (bool, error) {
		rate := nominalRate * math.Pow(rateGrid, float64(k))
		sys.EvalProvider.ResetCache()
		r, err := runStep(c, planStep(rng, evenSchedule(rate, stepRequests(rate, float64(o.seconds)/12)), segs), o.seed)
		if err != nil {
			return false, err
		}
		steps++
		ok, lat := r.sustained()
		_, _, err = closeAll(c, r, false)
		sent += len(r.samples)
		busy += r.statuses[http.StatusTooManyRequests]
		for code, n := range r.statuses {
			rep.check(code/100 == 2 || code == http.StatusTooManyRequests, "rate %.0f: %d responses with HTTP %d", rate, n, code)
		}
		rep.note(fmt.Sprintf("step_%.0f_per_s", rate), lat.Tail, fmt.Sprintf("ms p%g (n=%d, 429s=%d, sustained=%v)", lat.TailPct, lat.N, r.statuses[http.StatusTooManyRequests], ok))
		return ok, err
	}
	lo, hi := -1, -1 // highest sustained and lowest failed k seen
	if nominalOK {
		lo = 0
	} else {
		hi = 0
	}
	for k := 8; hi < 0; k += 8 {
		ok, err := tryK(k)
		if err != nil {
			return 0, steps, err
		}
		if ok {
			lo = k
		} else {
			hi = k
		}
		if k >= 32 {
			break
		}
	}
	for lo >= 0 && hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := tryK(mid)
		if err != nil {
			return 0, steps, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	rep.check(svc.SessionCount() == 0, "rate search: session table not empty after teardown")
	rep.note("search_requests", float64(sent), "count")
	rep.note("search_busy_429", float64(busy), "count")
	if lo < 0 {
		lo = -8 // not even the nominal rate held
	}
	return nominalRate * math.Pow(rateGrid, float64(lo)), steps, nil
}

// traceServeMid runs the nominal pass plain and then with the serve and
// event-log series on, and reports the serving layers. It then searches
// for serve_max_rate, which is printed and not gated, so the plain runs
// the regression check repeats do not pay for its steps.
func traceServeMid(sys *core.System, world serve.World, nominal stepPlan, rng *rand.Rand, o options, segs []roadnet.SegmentID, reg *obs.Registry, rep *report) error {
	seed := o.seed
	plain, err := runNominalPass(sys, world, nominal, seed, nil, rep)
	if err != nil {
		return err
	}
	c0 := snapCounters(reg, sys)
	dijk := reg.Histogram(roadnet.MetricDijkstraSeconds, "", nil)
	pred := reg.Histogram(core.MetricPredictSeconds, "", nil)
	dijk0, pred0, predN0 := dijk.Sum(), pred.Sum(), pred.Count()
	traced, err := runNominalPass(sys, world, nominal, seed, reg, rep)
	if err != nil {
		return err
	}
	c1 := snapCounters(reg, sys)
	checkPass(rep, "plain", plain)
	checkPass(rep, "traced", traced)
	rep.check(summaryKey(plain) == summaryKey(traced), "traced vs plain: session outcomes differ")

	perMethod := map[string][]float64{}
	var injects, lates, advService []float64
	for _, s := range traced.step.samples {
		service := ms(s.done.Sub(s.sent))
		lates = append(lates, ms(s.lateness()))
		if s.inject {
			injects = append(injects, service)
			continue
		}
		m := methodOf(s.session)
		perMethod[m] = append(perMethod[m], service)
		advService = append(advService, service)
	}
	for _, m := range sessionMethods {
		rep.set("serve.advance_ms."+m, mean(perMethod[m]), "ms")
	}
	rep.set("serve.inject_ms", mean(injects), "ms")
	rep.set("serve.late_ms", mean(lates), "ms")
	rep.set("serve.create_ms", meanDur(traced.step.createDur), "ms")
	rep.set("serve.close_ms", meanDur(traced.closes), "ms")
	rep.set("serve.busy_429", float64(traced.step.statuses[http.StatusTooManyRequests]), "count")
	if traced.windows > 0 {
		rep.set("eventlog.events_per_window", float64(traced.events)/float64(traced.windows), "count")
		rep.set("eventlog.bytes_per_window", float64(traced.bytes)/float64(traced.windows), "bytes")
	}
	lt := layerTotals{windows: traced.windows, simDijk: secs(dijk.Sum() - dijk0)}
	c1.report(rep, c0, lt)
	if n := pred.Count() - predN0; n > 0 {
		rep.set("predict.window_ms", (pred.Sum()-pred0)*1e3/float64(n), "ms")
	}
	// The share of client-seen advance time the session worker did not
	// spend advancing its simulator: HTTP, JSON and queue hand-off.
	var client float64
	for _, v := range advService {
		client += v / 1e3
	}
	if client > 0 {
		rep.set("unattributed_share", math.Max(0, 1-traced.advSecs/client), "ratio")
	}
	var plainService []float64
	for _, s := range plain.step.samples {
		if !s.inject {
			plainService = append(plainService, ms(s.done.Sub(s.sent)))
		}
	}
	rep.set("trace.overhead_share", (mean(advService)-mean(plainService))/mean(plainService), "ratio")
	rep.note("plain_advance_service_ms", mean(plainService), "ms")
	rep.note("traced_advance_service_ms", mean(advService), "ms")
	rep.note("lateness_p99_ms", percentile(lates, 99), "ms")
	rep.attempted = len(plain.step.samples) + len(traced.step.samples)
	rep.failed = plain.step.statuses[http.StatusTooManyRequests] + traced.step.statuses[http.StatusTooManyRequests]
	nominalOK, _ := plain.step.sustained()
	maxRate, steps, err := searchMaxRate(sys, world, rng, o, segs, nominalOK, rep)
	if err != nil {
		return err
	}
	rep.note("serve_max_rate", maxRate, fmt.Sprintf("1/s (%d steps, p99 limit %g ms)", steps, p99LimitMS))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return mean(xs)
}
