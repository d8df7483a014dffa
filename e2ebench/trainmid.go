package main

import (
	"fmt"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/obs"
	"mobirescue/internal/rl"
	"mobirescue/internal/train"
)

const (
	// trainEpisodes with the default 4 actors is one full learner round
	// and a one-episode second round: the fewest episodes that still
	// exercise two rounds.
	trainEpisodes = 5
	// midBuilds is how many times the mid-scale workloads set up, so
	// setup_s is a median.
	midBuilds = 3
	// evalDays is how many times the trained policy's evaluation day
	// runs; its window latencies are medians over the days.
	evalDays = 3
	// learnerSlice is how often training's learn-step counter is read;
	// throughput_per_s is the median rate over these slices.
	learnerSlice = 250 * time.Millisecond
)

// trainRun is one training run followed by the trained policy's greedy
// evaluation day.
type trainRun struct {
	rewards     []float64
	wall        time.Duration
	transitions int // transitions the learner absorbed
	// learnRate is the median over learnerSlice slices of the learner's
	// gradient steps per second.
	learnRate float64
	eval      dayRun
}

// trainOnce trains the system's MobiRescue policy for trainEpisodes with
// the parallel actor-learner trainer. Training has no public seam: its
// progress is read from the registry's learn-step counter, the only
// reading of the learner that is safe while it runs, every learnerSlice.
func trainOnce(sys *core.System, reg *obs.Registry, rep *report) (trainRun, error) {
	var tr trainRun
	sys.TrainProvider.ResetCache()
	steps := sys.MR.Agent().Steps()
	learnSteps := reg.Counter(rl.MetricLearnSteps, "")
	t0 := time.Now()
	readings := []progress{{at: t0, n: learnSteps.Value()}}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(learnerSlice)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				readings = append(readings, progress{at: now, n: learnSteps.Value()})
			}
		}
	}()
	rewards, err := sys.TrainRLParallel(trainEpisodes)
	tr.wall = time.Since(t0)
	close(stop)
	<-sampled
	tr.learnRate = medianRate(readings)
	tr.rewards = rewards
	tr.transitions = sys.MR.Agent().Steps() - steps
	if err != nil {
		return tr, fmt.Errorf("training: %w", err)
	}
	rep.markHeap()
	return tr, nil
}

// evalTrained runs the evaluation peak day with the trained policy,
// traced when reg is set.
func evalTrained(sys *core.System, reg *obs.Registry, rep *report) (dayRun, error) {
	defer rep.markHeap()
	sys.EvalProvider.ResetCache()
	sys.MR.SetTraining(false)
	if reg == nil {
		return runPlainDay(sys, sys.MR)
	}
	policy := &timedPolicy{agent: sys.MR.Agent()}
	return runTracedDay(sys, newTracedDispatcher(sys.MR.ActorView(policy), sys.EvalProvider, policy, reg))
}

// checkTrain checks that every episode finished with a finite reward and
// that the evaluation day accounts for every request.
func checkTrain(rep *report, label string, tr trainRun, want int) {
	rep.check(len(tr.rewards) == trainEpisodes, "%s: %d of %d episodes finished", label, len(tr.rewards), trainEpisodes)
	rep.check(finite(tr.rewards), "%s: non-finite episode reward in %v", label, tr.rewards)
	checkDay(rep, label+" eval", tr.eval.res, want)
}

// runTrainMid trains at mid scale and evaluates the trained policy.
func runTrainMid(o options, rep *report) error {
	// Both runs wire a registry: the plain run reads training's progress
	// from its learn-step counter.
	reg := obs.NewRegistry()
	sys, builds, err := buildRepeated(midBuilds, "mid", o.seed, reg)
	if err != nil {
		return err
	}
	reportSetup(rep, builds, o.trace)
	rep.markHeap()
	ep := sys.Scenario.Eval
	want := len(core.RequestsForDay(ep, ep.PeakRequestDay()))
	if o.trace {
		return traceTrainMid(sys, reg, rep, want)
	}
	tr, err := trainOnce(sys, reg, rep)
	if err != nil {
		return err
	}
	// The day runs evalDays times, as the same decisions each time; a
	// burst of host CPU steal that spoils one day's tail leaves the median
	// over the days unmoved.
	var windows, walls []float64
	for i := 0; i < evalDays; i++ {
		day, err := evalTrained(sys, nil, rep)
		if err != nil {
			return err
		}
		if i == 0 {
			tr.eval = day
		}
		rep.check(fingerprint(day.res) == fingerprint(tr.eval.res), "trained evaluation day %d: outcomes differ from day 1", i+1)
		windows = append(windows, day.windows...)
		walls = append(walls, day.wall.Seconds())
	}
	checkTrain(rep, "train", tr, want)
	lat := segmented(windows, evalDays)
	timely := tr.eval.res.TotalTimelyServed()
	episodeS := tr.wall.Seconds() / float64(trainEpisodes)
	// Timely share over the training episodes, which replay the training
	// peak day, and the evaluation day (every repeat serves alike).
	trainDay := sys.Scenario.Train
	perEpisode := len(core.RequestsForDay(trainDay, trainDay.PeakRequestDay()))
	allTimely := float64(timely)
	for _, r := range tr.rewards {
		allTimely += r
	}
	rep.set("latency_p50_ms", lat.P50, "ms")
	rep.set("latency_tail_ms", lat.Tail, "ms")
	rep.set("throughput_per_s", tr.learnRate, "1/s")
	rep.set("timely_share", allTimely/float64(len(tr.rewards)*perEpisode+want), "ratio")
	rep.note("train_transitions", float64(tr.transitions), "count")
	rep.note("train_transitions_per_s", float64(tr.transitions)/tr.wall.Seconds(), "1/s (over the whole training wall time)")
	rep.note("train_timely_per_episode", (allTimely-float64(timely))/float64(len(tr.rewards)), fmt.Sprintf("count (of %d requests)", perEpisode))
	rep.note("train_episode_s", episodeS, "s")
	rep.note("trained_timely_served", float64(timely), "count")
	rep.note("trained_window_p50_ms", lat.P50, "ms")
	rep.note(fmt.Sprintf("trained_window_p%g_ms", lat.TailPct), lat.Tail, fmt.Sprintf("ms (median of %d days, n=%d each)", evalDays, lat.N))
	rep.note("trained_day_s", median(walls), fmt.Sprintf("s (median of %d days)", evalDays))
	rep.note("requests", float64(want), "count")
	rep.attempted = len(tr.rewards) + len(windows)
	rep.failed = trainEpisodes - len(tr.rewards)
	return nil
}

// traceTrainMid trains once with the registry's series on, then runs the
// trained evaluation day traced and plain; both days must agree exactly.
func traceTrainMid(sys *core.System, reg *obs.Registry, rep *report, want int) error {
	c0 := snapCounters(reg, sys)
	actor0, learn0 := reg.Histogram(train.MetricActorSeconds, "", nil).Sum(), reg.Histogram(train.MetricLearnerSeconds, "", nil).Sum()
	steps0 := reg.Counter(rl.MetricLearnSteps, "").Value()
	tr, err := trainOnce(sys, reg, rep)
	if err != nil {
		return err
	}
	if tr.eval, err = evalTrained(sys, reg, rep); err != nil {
		return err
	}
	c1 := snapCounters(reg, sys)
	plain, err := evalTrained(sys, nil, rep)
	if err != nil {
		return err
	}
	checkTrain(rep, "traced", tr, want)
	checkDay(rep, "plain eval", plain.res, want)
	rep.check(fingerprint(plain.res) == fingerprint(tr.eval.res), "traced vs plain: trained evaluation day outcomes differ")

	learn := reg.Histogram(train.MetricLearnerSeconds, "", nil).Sum() - learn0
	steps := reg.Counter(rl.MetricLearnSteps, "").Value() - steps0
	rep.set("train.rollout_s", (reg.Histogram(train.MetricActorSeconds, "", nil).Sum()-actor0)/trainEpisodes, "s")
	rep.set("train.learner_apply_s", learn/trainEpisodes, "s")
	rep.set("rl.learn_steps", float64(steps), "count")
	if steps > 0 {
		rep.set("nn.learn_step_ms", learn*1e3/float64(steps), "ms")
	}
	lt := tr.eval.trace.totals()
	setLayers(rep, "mr", lt)
	setMRLayers(rep, lt)
	c1.report(rep, c0, lt)
	rep.set("trace.overhead_share", (tr.eval.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds(), "ratio")
	rep.note("train_episode_s", tr.wall.Seconds()/trainEpisodes, "s")
	rep.note("plain_day_s", plain.wall.Seconds(), "s")
	rep.note("traced_day_s", tr.eval.wall.Seconds(), "s")
	printUnattributed(lt)
	rep.attempted = trainEpisodes + 2*lt.windows
	rep.failed = trainEpisodes - len(tr.rewards)
	return nil
}
