package main

import (
	"fmt"
	"os"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/dispatch"
	"mobirescue/internal/obs"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// methods are the evaluation-day dispatchers, in the order they run.
var methods = []string{"mr", "rescue", "schedule"}

// newBaseline builds a fresh Rescue or Schedule dispatcher the way the
// system's own comparison does.
func newBaseline(sys *core.System, method string) (sim.Dispatcher, error) {
	switch method {
	case "rescue":
		return sys.NewRescueBaseline()
	case "schedule":
		s := dispatch.NewSchedule(sys.Scenario.City.Graph, sys.Config.IPLatency)
		s.SetWorkers(sys.Config.Workers)
		return s, nil
	}
	return nil, fmt.Errorf("unknown baseline %q", method)
}

// evalCycle is one pass of the evaluation peak day under every method.
type evalCycle struct {
	days map[string]dayRun
	wall time.Duration // the days' wall times, without the heap marks between them
}

// runEvalCycle runs MobiRescue (the system's own dispatcher, greedy and
// untrained), then Rescue, then Schedule, each on the evaluation peak day.
// With reg set the days are traced. The prediction cache is emptied first
// so the plain and the traced cycle do the same work.
func runEvalCycle(sys *core.System, reg *obs.Registry, rep *report) (evalCycle, error) {
	sys.EvalProvider.ResetCache()
	sys.MR.SetTraining(false)
	c := evalCycle{days: make(map[string]dayRun)}
	for _, m := range methods {
		var disp sim.Dispatcher = sys.MR
		var prov *core.PredictProvider
		var policy *timedPolicy
		if m != "mr" {
			d, err := newBaseline(sys, m)
			if err != nil {
				return c, err
			}
			disp = d
		} else if reg != nil {
			policy = &timedPolicy{agent: sys.MR.Agent()}
			disp = sys.MR.ActorView(policy)
			prov = sys.EvalProvider
		}
		var run dayRun
		var err error
		if reg == nil {
			run, err = runPlainDay(sys, disp)
		} else {
			run, err = runTracedDay(sys, newTracedDispatcher(disp, prov, policy, reg))
		}
		if err != nil {
			return c, err
		}
		c.days[m] = run
		c.wall += run.wall
		rep.markHeap()
	}
	return c, nil
}

// checkCycle checks every day of a cycle against the request count.
func checkCycle(rep *report, label string, c evalCycle, want int) {
	for _, m := range methods {
		checkDay(rep, label+" "+m, c.days[m].res, want)
	}
}

// sameOutcomes checks that two cycles served every request identically.
func sameOutcomes(rep *report, a, b evalCycle) {
	for _, m := range methods {
		rep.check(fingerprint(a.days[m].res) == fingerprint(b.days[m].res),
			"traced vs plain: %s outcomes differ (timely %d vs %d)", m,
			a.days[m].res.TotalTimelyServed(), b.days[m].res.TotalTimelyServed())
	}
}

// runEvalFull is the paper's evaluation day at full scale (8,590 people).
func runEvalFull(o options, rep *report) error {
	var reg *obs.Registry
	if o.trace {
		reg = obs.NewRegistry()
	}
	sys, builds, err := buildRepeated(1, "full", o.seed, reg)
	if err != nil {
		return err
	}
	reportSetup(rep, builds, o.trace)
	rep.markHeap()
	ep := sys.Scenario.Eval
	want := len(core.RequestsForDay(ep, ep.PeakRequestDay()))

	if o.trace {
		return traceEvalFull(sys, reg, rep, want)
	}
	c, err := runEvalCycle(sys, nil, rep)
	if err != nil {
		return err
	}
	checkCycle(rep, "cycle", c, want)
	windows, allTimely := 0, 0
	for _, m := range methods {
		windows += len(c.days[m].windows)
		allTimely += c.days[m].res.TotalTimelyServed()
	}
	lat := summarize(c.days["mr"].windows)
	rep.check(lat.TailPct >= 95, "only %d MobiRescue windows: no p95 with %d samples beyond", lat.N, minBeyond)
	rep.set("latency_p50_ms", lat.P50, "ms")
	rep.set("latency_tail_ms", lat.Tail, "ms")
	rep.set("throughput_per_s", float64(windows)/c.wall.Seconds(), "1/s")
	rep.set("timely_share", float64(allTimely)/float64(len(methods)*want), "ratio")
	rep.note("window_p50_ms", lat.P50, "ms")
	rep.note(fmt.Sprintf("window_p%g_ms", lat.TailPct), lat.Tail, fmt.Sprintf("ms (n=%d)", lat.N))
	for _, m := range methods {
		rep.note(m+"_day_s", c.days[m].wall.Seconds(), "s")
	}
	for _, m := range methods {
		rep.note(m+"_timely_served", float64(c.days[m].res.TotalTimelyServed()), "count")
	}
	rep.note("mr_served", float64(c.days["mr"].res.TotalServed()), "count")
	rep.note("requests", float64(want), "count")
	rep.attempted = windows
	return nil
}

// traceEvalFull runs one plain cycle and one traced cycle on the same
// system and reports the layer split of every method's day.
func traceEvalFull(sys *core.System, reg *obs.Registry, rep *report, want int) error {
	plain, err := runEvalCycle(sys, nil, rep)
	if err != nil {
		return err
	}
	c0 := snapCounters(reg, sys)
	traced, err := runEvalCycle(sys, reg, rep)
	if err != nil {
		return err
	}
	c1 := snapCounters(reg, sys)
	checkCycle(rep, "plain", plain, want)
	checkCycle(rep, "traced", traced, want)
	sameOutcomes(rep, plain, traced)

	var all layerTotals
	for _, m := range methods {
		lt := traced.days[m].trace.totals()
		setLayers(rep, m, lt)
		if m == "mr" {
			setMRLayers(rep, lt)
		}
		all.add(lt)
	}
	c1.report(rep, c0, all)
	rep.set("trace.overhead_share", (traced.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds(), "ratio")
	rep.note("plain_cycle_s", plain.wall.Seconds(), "s")
	rep.note("traced_cycle_s", traced.wall.Seconds(), "s")
	printUnattributed(all)
	rep.attempted = 2 * all.windows
	return nil
}

// counterSnap is a reading of the registry's counters the traced run
// reports as deltas.
type counterSnap struct {
	reroutes, orders, treeHits, treeMisses int64
	persons, predWindows                   int64
	predHits, predMisses                   int64
}

func snapCounters(reg *obs.Registry, sys *core.System) counterSnap {
	c := func(name string) int64 { return reg.Counter(name, "").Value() }
	var s counterSnap
	s.reroutes = methodCounter(reg, sim.MetricReroutes)
	s.orders = methodCounter(reg, sim.MetricOrders)
	s.treeHits = c(roadnet.MetricTreeCacheHits)
	s.treeMisses = c(roadnet.MetricTreeCacheMisses)
	s.persons = c(core.MetricPredictPersons)
	s.predWindows = c(core.MetricPredictWindows)
	for _, p := range []*core.PredictProvider{sys.TrainProvider, sys.EvalProvider} {
		h, m := p.CacheCounters()
		s.predHits += h
		s.predMisses += m
	}
	return s
}

// dispatcherNames are the sim.Dispatcher names the simulator labels its
// per-method series with.
var dispatcherNames = []string{"MobiRescue", "Rescue", "Schedule", "greedy"}

// methodCounter sums a simulator counter over every method label.
func methodCounter(reg *obs.Registry, name string) int64 {
	var n int64
	for _, m := range dispatcherNames {
		n += reg.Counter(name, "", obs.L("method", m)).Value()
	}
	return n
}

// report records the counter deltas since base, with Dijkstra time
// outside the timed prefetch spread over the traced windows.
func (s counterSnap) report(rep *report, base counterSnap, lt layerTotals) {
	rep.set("sim.reroutes", float64(s.reroutes-base.reroutes), "count")
	rep.set("sim.orders", float64(s.orders-base.orders), "count")
	rep.set("roadnet.tree_hit_ratio", ratio(float64(s.treeHits-base.treeHits), float64(s.treeMisses-base.treeMisses)), "ratio")
	rep.set("predict.cache_hit_ratio", ratio(float64(s.predHits-base.predHits), float64(s.predMisses-base.predMisses)), "ratio")
	if w := s.predWindows - base.predWindows; w > 0 {
		rep.set("predict.people_per_window", float64(s.persons-base.persons)/float64(w), "count")
	}
	if lt.windows > 0 {
		rep.set("roadnet.dijkstra_ms", lt.perWindowMS(lt.decideDijk+lt.simDijk), "ms")
		rep.set("unattributed_share", float64(lt.unattributed)/float64(lt.wall), "ratio")
	}
}

// add folds another day's totals in.
func (lt *layerTotals) add(o layerTotals) {
	lt.windows += o.windows
	lt.wall += o.wall
	lt.predict += o.predict
	lt.regions += o.regions
	lt.prefetch += o.prefetch
	lt.decideDijk += o.decideDijk
	lt.simDijk += o.simDijk
	lt.forward += o.forward
	lt.forwardCalls += o.forwardCalls
	lt.ilp += o.ilp
	lt.ilpSolves += o.ilpSolves
	lt.dispatchSelf += o.dispatchSelf
	lt.simSelf += o.simSelf
	lt.unattributed += o.unattributed
	lt.unattributedShares = append(lt.unattributedShares, o.unattributedShares...)
}

// printUnattributed prints the per-window unattributed share's
// distribution to standard error.
func printUnattributed(lt layerTotals) {
	s := summarize(lt.unattributedShares)
	fmt.Fprintf(os.Stderr, "unattributed share per window: n=%d p50=%.4f p%g=%.4f max=%.4f\n",
		s.N, s.P50, s.TailPct, s.Tail, percentile(lt.unattributedShares, 100))
}
