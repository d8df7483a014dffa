package main

// metricSpec is one metric the result object carries: its name, unit and
// which way is better.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of a plain run, reported by every workload.
// What each means on each workload is in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"timely_share", "ratio", "higher"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. Every workload reports every
// one; a layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"predict.window_ms", "ms", "lower"},
	{"predict.region_totals_ms", "ms", "lower"},
	{"predict.people_per_window", "count", "lower"},
	{"predict.cache_hit_ratio", "ratio", "higher"},
	{"roadnet.prefetch_ms", "ms", "lower"},
	{"roadnet.dijkstra_ms", "ms", "lower"},
	{"roadnet.tree_hit_ratio", "ratio", "higher"},
	{"rl.forward_us", "us", "lower"},
	{"rl.forward_calls", "count", "lower"},
	{"train.rollout_s", "s", "lower"},
	{"train.learner_apply_s", "s", "lower"},
	{"rl.learn_steps", "count", "lower"},
	{"nn.learn_step_ms", "ms", "lower"},
	{"ilp.solve_ms.mr", "ms", "lower"},
	{"ilp.solve_ms.rescue", "ms", "lower"},
	{"ilp.solve_ms.schedule", "ms", "lower"},
	{"ilp.solves.mr", "count", "lower"},
	{"ilp.solves.rescue", "count", "lower"},
	{"ilp.solves.schedule", "count", "lower"},
	{"dispatch.self_ms.mr", "ms", "lower"},
	{"dispatch.self_ms.rescue", "ms", "lower"},
	{"dispatch.self_ms.schedule", "ms", "lower"},
	{"sim.self_ms.mr", "ms", "lower"},
	{"sim.self_ms.rescue", "ms", "lower"},
	{"sim.self_ms.schedule", "ms", "lower"},
	{"sim.reroutes", "count", "lower"},
	{"sim.orders", "count", "lower"},
	{"serve.advance_ms.mr", "ms", "lower"},
	{"serve.advance_ms.greedy", "ms", "lower"},
	{"serve.advance_ms.rescue", "ms", "lower"},
	{"serve.advance_ms.schedule", "ms", "lower"},
	{"serve.inject_ms", "ms", "lower"},
	{"serve.create_ms", "ms", "lower"},
	{"serve.close_ms", "ms", "lower"},
	{"serve.late_ms", "ms", "lower"},
	{"serve.busy_429", "count", "lower"},
	{"eventlog.events_per_window", "count", "lower"},
	{"eventlog.bytes_per_window", "bytes", "lower"},
	{"setup.scenario_s", "s", "lower"},
	{"setup.svm_train_s", "s", "lower"},
	{"setup.flood_history_s", "s", "lower"},
	{"setup.mobility_generate_s", "s", "lower"},
	{"unattributed_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// complete adds every metric of specs the workload did not set, at 0, and
// drops any metric outside specs, so each run reports exactly the list
// BENCHMARK.json declares for its mode.
func (r *report) complete(specs []metricSpec) {
	want := make(map[string]bool, len(specs))
	for _, s := range specs {
		want[s.name] = true
		if _, ok := r.metrics[s.name]; !ok {
			r.metrics[s.name] = metric{0, s.unit}
		}
	}
	for name := range r.metrics {
		if !want[name] {
			r.check(false, "metric %q is not declared", name)
			delete(r.metrics, name)
		}
	}
}

// setLayers records a traced day's layer split for one method.
func setLayers(rep *report, method string, lt layerTotals) {
	rep.set("dispatch.self_ms."+method, lt.perWindowMS(lt.dispatchSelf), "ms")
	rep.set("sim.self_ms."+method, lt.perWindowMS(lt.simSelf), "ms")
	rep.set("ilp.solve_ms."+method, lt.perWindowMS(lt.ilp), "ms")
	rep.set("ilp.solves."+method, float64(lt.ilpSolves), "count")
}

// setMRLayers records the layers only a MobiRescue day has: the seams the
// traced dispatcher calls before delegating, and the policy's forward
// passes.
func setMRLayers(rep *report, lt layerTotals) {
	rep.set("predict.window_ms", lt.perWindowMS(lt.predict), "ms")
	rep.set("predict.region_totals_ms", lt.perWindowMS(lt.regions), "ms")
	rep.set("roadnet.prefetch_ms", lt.perWindowMS(lt.prefetch), "ms")
	if lt.forwardCalls > 0 {
		rep.set("rl.forward_us", float64(lt.forward)/1e3/float64(lt.forwardCalls), "us")
	}
	rep.set("rl.forward_calls", float64(lt.forwardCalls), "count")
}
