package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/ilp"
	"mobirescue/internal/obs"
	"mobirescue/internal/rl"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// setupTimes splits one scenario-plus-system build.
type setupTimes struct {
	total, scenario, system, flood, mobility time.Duration
}

// scenarioSeed fixes the world every workload runs in — the city, the
// storms, the floods and the population — to the repository's default
// scenario, as the paper evaluates one city and one dataset. The workload
// seed varies what an operator would: the teams' start positions, the
// policy's initial weights, the training actors' streams and the serving
// traffic.
const scenarioSeed = 1

// buildSystem builds the scenario at scale and assembles the system on it
// (the SVM training is the bulk of NewSystem) with the workload seed, and
// Workers = 0 so every parallel layer uses GOMAXPROCS. reg, when non-nil,
// is wired through SystemConfig.Metrics for the traced run.
func buildSystem(scale string, seed int64, reg *obs.Registry) (*core.System, setupTimes, error) {
	var st setupTimes
	cfg, err := core.ScenarioConfigForScale(scale)
	if err != nil {
		return nil, st, err
	}
	cfg.Seed = scenarioSeed
	tracer := obs.NewTracer()
	t0 := time.Now()
	sc, err := core.BuildScenarioContext(obs.ContextWithTracer(context.Background(), tracer), cfg)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	scfg := core.DefaultSystemConfig()
	scfg.Seed = seed
	scfg.Workers = 0
	scfg.Metrics = reg
	sys, err := core.NewSystem(sc, scfg)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	st.scenario, st.system, st.total = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)
	st.flood = spanTotal(tracer.Roots(), "flood.history")
	st.mobility = spanTotal(tracer.Roots(), "mobility.generate")
	return sys, st, nil
}

// buildRepeated builds the system n times and returns the last system
// with every build's timings, so set-up time is reported as a median.
func buildRepeated(n int, scale string, seed int64, reg *obs.Registry) (*core.System, []setupTimes, error) {
	var sys *core.System
	var all []setupTimes
	for i := 0; i < n; i++ {
		sys = nil // let the previous build be collected before the next
		runtime.GC()
		s, st, err := buildSystem(scale, seed, reg)
		if err != nil {
			return nil, nil, err
		}
		sys = s
		all = append(all, st)
	}
	return sys, all, nil
}

// spanTotal sums the durations of every span named name in the trees.
func spanTotal(spans []*obs.Span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name() == name {
			d += s.Duration()
		}
		d += spanTotal(s.Children(), name)
	}
	return d
}

// reportSetup records setup_s (median over builds) in a plain run, or the
// set-up layer split in a traced run.
func reportSetup(rep *report, builds []setupTimes, traced bool) {
	pick := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(builds))
		for i, b := range builds {
			xs[i] = f(b).Seconds()
		}
		return median(xs)
	}
	if !traced {
		rep.set("setup_s", pick(func(b setupTimes) time.Duration { return b.total }), "s")
		return
	}
	rep.set("setup.scenario_s", pick(func(b setupTimes) time.Duration { return b.scenario }), "s")
	rep.set("setup.svm_train_s", pick(func(b setupTimes) time.Duration { return b.system }), "s")
	rep.set("setup.flood_history_s", pick(func(b setupTimes) time.Duration { return b.flood }), "s")
	rep.set("setup.mobility_generate_s", pick(func(b setupTimes) time.Duration { return b.mobility }), "s")
}

// markHeap collects garbage and records the live heap, keeping the
// largest reading. Workloads call it at phase boundaries (after set-up,
// after each day or step), outside every timed span, so peak_heap_mb is
// the largest live heap the workload holds, independent of when the
// collector would otherwise have run.
func (r *report) markHeap() {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		if mb := float64(sample[0].Value.Uint64()) / (1 << 20); mb > r.peakHeapMB {
			r.peakHeapMB = mb
		}
	}
}

// windowClock is the plain run's only instrument: it stamps the start of
// every Decide, which is a dispatch-window boundary.
type windowClock struct {
	inner  sim.Dispatcher
	starts []time.Time
}

func (w *windowClock) Name() string { return w.inner.Name() }

func (w *windowClock) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	w.starts = append(w.starts, time.Now())
	return w.inner.Decide(snap)
}

// windowsMS returns each window's wall time in ms: the gap from one
// Decide start to the next, the last window ending at end.
func windowsMS(starts []time.Time, end time.Time) []float64 {
	out := make([]float64, len(starts))
	for i, s := range starts {
		next := end
		if i+1 < len(starts) {
			next = starts[i+1]
		}
		out[i] = ms(next.Sub(s))
	}
	return out
}

// dayRun is one evaluation day under one dispatcher.
type dayRun struct {
	res     *sim.Result
	wall    time.Duration
	windows []float64 // window wall times, ms
	trace   *dayTrace // traced runs only
}

// runPlainDay runs the evaluation peak day under disp with only window
// boundaries stamped.
func runPlainDay(sys *core.System, disp sim.Dispatcher) (dayRun, error) {
	clock := &windowClock{inner: disp}
	t0 := time.Now()
	res, err := sys.RunDispatcher(clock)
	end := time.Now()
	if err != nil {
		return dayRun{}, fmt.Errorf("%s day: %w", disp.Name(), err)
	}
	return dayRun{res: res, wall: end.Sub(t0), windows: windowsMS(clock.starts, end)}, nil
}

// runTracedDay runs the evaluation peak day under a tracedDispatcher.
func runTracedDay(sys *core.System, td *tracedDispatcher) (dayRun, error) {
	t0 := time.Now()
	res, err := sys.RunDispatcher(td)
	end := time.Now()
	if err != nil {
		return dayRun{}, fmt.Errorf("traced %s day: %w", td.Name(), err)
	}
	td.closeWindow(end)
	starts := make([]time.Time, len(td.trace.windows))
	for i, w := range td.trace.windows {
		starts[i] = w.window.start
	}
	return dayRun{res: res, wall: end.Sub(t0), windows: windowsMS(starts, end), trace: td.trace}, nil
}

// checkDay verifies that a day accounts for every request it was given:
// served + unserved = requests, every served request was picked up by a
// real team no earlier than it appeared, and timely <= served.
func checkDay(rep *report, label string, r *sim.Result, wantRequests int) {
	served, unserved := 0, 0
	for _, o := range r.Requests {
		if o.Served() {
			served++
			rep.check(o.ServedBy >= 0 && !o.PickedUpAt.Before(o.AppearAt.Add(-r.Config.Step)),
				"%s: request %d served by %d at %v before it appeared at %v", label, o.ID, o.ServedBy, o.PickedUpAt, o.AppearAt)
		} else {
			unserved++
		}
	}
	rep.check(served+unserved == wantRequests, "%s: served %d + unserved %d != %d requests", label, served, unserved, wantRequests)
	rep.check(served == r.TotalServed(), "%s: served count %d disagrees with result %d", label, served, r.TotalServed())
	rep.check(r.TotalTimelyServed() <= served, "%s: timely %d > served %d", label, r.TotalTimelyServed(), served)
}

// fingerprint hashes every request outcome, so two runs of one day can be
// compared for identical behaviour.
func fingerprint(r *sim.Result) uint64 {
	h := fnv.New64a()
	for _, o := range r.Requests {
		fmt.Fprintf(h, "%d %d %d %d %d;", o.ID, o.ServedBy, o.PickedUpAt.UnixNano(), o.DeliveredAt.UnixNano(), o.DrivingDelay)
	}
	return h.Sum64()
}

// timedPolicy is the traced run's rl.Policy: it decides greedily with the
// learner's network, times every forward pass, and drops transitions, so
// an ActorView over it decides exactly as the learner-driven dispatcher
// does in evaluation.
type timedPolicy struct {
	agent *rl.DQN
	dur   time.Duration
	calls int
}

func (p *timedPolicy) SelectAction(state []float64, mask []bool) int { return p.Greedy(state, mask) }

func (p *timedPolicy) Greedy(state []float64, mask []bool) int {
	t := time.Now()
	a := p.agent.Greedy(state, mask)
	p.dur += time.Since(t)
	p.calls++
	return a
}

func (p *timedPolicy) Observe(rl.Transition) {}

// windowTrace is one traced dispatch window. Its top-level spans are the
// seam calls the wrapper makes (predict, region totals, tree prefetch),
// the delegated Decide, and the simulator's stepping from Decide's return
// to the next window.
type windowTrace struct {
	window                             interval
	predict, regions, prefetch, decide interval
	forward                            time.Duration
	forwardCalls                       int
	ilp                                time.Duration
	ilpSolves                          int64
	dijkDecide, dijkSim                time.Duration
}

func (w windowTrace) simSpan() interval { return interval{w.decide.end, w.window.end} }

// unattributed is the part of the window no top-level span covers.
func (w windowTrace) unattributed() time.Duration {
	return selfTime(w.window, []interval{w.predict, w.regions, w.prefetch, w.decide, w.simSpan()})
}

// dispatchSelf is Decide minus the layers it calls that the trace sees.
func (w windowTrace) dispatchSelf() time.Duration {
	return clampSub(w.decide.dur(), w.forward+w.ilp+w.dijkDecide)
}

// simSelf is the stepping span minus the Dijkstra runs inside it.
func (w windowTrace) simSelf() time.Duration { return clampSub(w.simSpan().dur(), w.dijkSim) }

// clampSub returns a-b, floored at 0: child times read from histogram
// sums can exceed a span when a layer ran on several cores.
func clampSub(a, b time.Duration) time.Duration {
	if b > a {
		return 0
	}
	return a - b
}

// dayTrace is one traced day.
type dayTrace struct {
	windows []windowTrace
}

// tracedDispatcher wraps a dispatcher for the traced run. Before
// delegating it calls the prediction provider and the router's tree
// prefetch itself (when prov is set), so those layers are timed at their
// public seams and the dispatcher then reads them from cache. Layers with
// no public seam (ilp, Dijkstra) are read from the registry's series at
// the span boundaries.
type tracedDispatcher struct {
	inner    sim.Dispatcher
	prov     *core.PredictProvider
	policy   *timedPolicy
	capacity int
	dijkstra *obs.Histogram
	solve    *obs.Histogram
	trace    *dayTrace
	dijkMark float64
}

func newTracedDispatcher(inner sim.Dispatcher, prov *core.PredictProvider, policy *timedPolicy, reg *obs.Registry) *tracedDispatcher {
	return &tracedDispatcher{
		inner:    inner,
		prov:     prov,
		policy:   policy,
		capacity: sim.DefaultConfig(time.Time{}).Capacity,
		dijkstra: reg.Histogram(roadnet.MetricDijkstraSeconds, "", nil),
		solve:    reg.Histogram(ilp.MetricHungarianSeconds, "", nil),
		trace:    &dayTrace{},
	}
}

func (t *tracedDispatcher) Name() string { return t.inner.Name() }

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// closeWindow ends the open window at now.
func (t *tracedDispatcher) closeWindow(now time.Time) {
	if n := len(t.trace.windows); n > 0 {
		w := &t.trace.windows[n-1]
		w.window.end = now
		w.dijkSim = secs(t.dijkstra.Sum() - t.dijkMark)
	}
}

func (t *tracedDispatcher) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	now := time.Now()
	t.closeWindow(now)
	w := windowTrace{window: interval{start: now}}
	if t.prov != nil {
		w.predict.start = time.Now()
		t.prov.Predict(snap.Time)
		w.predict.end = time.Now()
		w.regions.start = w.predict.end
		t.prov.RegionTotals(snap.Time)
		w.regions.end = time.Now()
		g := snap.City.Graph
		heads := make([]roadnet.LandmarkID, 0, len(snap.Vehicles))
		for _, v := range snap.Vehicles {
			if (v.Phase == sim.PhaseIdle || v.Phase == sim.PhaseToDepot) && v.Onboard < t.capacity {
				heads = append(heads, g.Segment(v.Pos.Seg).To)
			}
		}
		w.prefetch.start = time.Now()
		snap.Router.PrefetchTrees(heads)
		w.prefetch.end = time.Now()
	}
	var fwd time.Duration
	var calls int
	if t.policy != nil {
		fwd, calls = t.policy.dur, t.policy.calls
	}
	dijk0, ilp0, solves0 := t.dijkstra.Sum(), t.solve.Sum(), t.solve.Count()
	w.decide.start = time.Now()
	orders, delay := t.inner.Decide(snap)
	w.decide.end = time.Now()
	t.dijkMark = t.dijkstra.Sum()
	w.dijkDecide = secs(t.dijkMark - dijk0)
	w.ilp = secs(t.solve.Sum() - ilp0)
	w.ilpSolves = t.solve.Count() - solves0
	if t.policy != nil {
		w.forward = t.policy.dur - fwd
		w.forwardCalls = t.policy.calls - calls
	}
	t.trace.windows = append(t.trace.windows, w)
	return orders, delay
}

// layerTotals sums one day's traced windows.
type layerTotals struct {
	windows                                      int
	wall, predict, regions, prefetch, decideDijk time.Duration
	simDijk, forward, ilp, dispatchSelf, simSelf time.Duration
	unattributed                                 time.Duration
	forwardCalls                                 int
	ilpSolves                                    int64
	unattributedShares                           []float64
}

func (d *dayTrace) totals() layerTotals {
	var lt layerTotals
	for _, w := range d.windows {
		lt.windows++
		lt.wall += w.window.dur()
		lt.predict += w.predict.dur()
		lt.regions += w.regions.dur()
		lt.prefetch += w.prefetch.dur()
		lt.decideDijk += w.dijkDecide
		lt.simDijk += w.dijkSim
		lt.forward += w.forward
		lt.forwardCalls += w.forwardCalls
		lt.ilp += w.ilp
		lt.ilpSolves += w.ilpSolves
		lt.dispatchSelf += w.dispatchSelf()
		lt.simSelf += w.simSelf()
		u := w.unattributed()
		lt.unattributed += u
		if w.window.dur() > 0 {
			lt.unattributedShares = append(lt.unattributedShares, float64(u)/float64(w.window.dur()))
		}
	}
	return lt
}

// perWindowMS is a day total spread over the day's windows, in ms.
func (lt layerTotals) perWindowMS(d time.Duration) float64 {
	if lt.windows == 0 {
		return 0
	}
	return ms(d) / float64(lt.windows)
}

// ratio returns a/(a+b), or 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// finite reports whether every value is a finite number.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
