package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"mobirescue/internal/roadnet"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},
		{19, 0},
		{20, 50},   // rank 10, 10 beyond
		{99, 50},   // p90 rank 90 leaves 9
		{100, 90},  // p90 rank 90 leaves 10
		{288, 95},  // a day of windows: p95 rank 274 leaves 14, p99 leaves 2
		{999, 95},  // p99 rank 990 leaves 9
		{1000, 99}, // p99 rank 990 leaves 10
		{9999, 99}, // p99.9 rank 9990 leaves 9
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: percentile must sort a copy
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile modified its input")
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50 || s.TailPct != 90 || s.Tail != 90 {
		t.Errorf("summarize = %+v", s)
	}
	// Beyond the reported tail there are at least minBeyond samples.
	for _, n := range []int{20, 288, 1000, 1333, 10000} {
		p := tailPercentile(n)
		if beyond := n - rank(p, n); beyond < minBeyond {
			t.Errorf("n=%d p%g leaves %d samples beyond", n, p, beyond)
		}
	}
}

func TestSegmented(t *testing.T) {
	// Three parts of 1,000 samples; a stall spoils the tail of the middle one.
	var xs []float64
	for part, base := range []float64{1, 2, 3} {
		for i := 0; i < 1000; i++ {
			x := base
			if i%100 == 99 { // 10 samples per part at the part's tail
				x = base * 10
			}
			if part == 1 && i >= 950 {
				x = 500
			}
			xs = append(xs, x)
		}
	}
	got := segmented(xs, 3)
	want := latencySummary{N: 1000, P50: 2, TailPct: 99, Tail: 3} // part tails 1, 500, 3
	if got != want {
		t.Errorf("segmented = %+v, want %+v", got, want)
	}
	if one := segmented(xs, 1); one != summarize(xs) {
		t.Errorf("one part = %+v, want %+v", one, summarize(xs))
	}
}

func TestOpenLoopTimingFromDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var due []time.Time
	for i, off := range evenSchedule(100, 5) { // every 10 ms
		if want := time.Duration(i) * 10 * time.Millisecond; off != want {
			t.Fatalf("due[%d] = %v, want %v", i, off, want)
		}
		due = append(due, t0.Add(off))
	}
	// One sender, a 25 ms stall on the first request, 1 ms thereafter:
	// each request goes out when it is due or when the sender is free.
	service := []time.Duration{25, 1, 1, 1, 1}
	var samples []openLoopSample
	free := t0
	for i, d := range due {
		sent := d
		if free.After(sent) {
			sent = free
		}
		done := sent.Add(service[i] * time.Millisecond)
		samples = append(samples, openLoopSample{due: d, sent: sent, done: done})
		free = done
	}
	wantLat := []float64{25, 16, 7, 1, 1} // the stall is charged to the requests it delayed
	wantLate := []float64{0, 15, 6, 0, 0}
	for i, s := range samples {
		if got := ms(s.latency()); got != wantLat[i] {
			t.Errorf("request %d latency = %g ms, want %g", i, got, wantLat[i])
		}
		if got := ms(s.lateness()); got != wantLate[i] {
			t.Errorf("request %d lateness = %g ms, want %g", i, got, wantLate[i])
		}
	}
	early := openLoopSample{due: t0, sent: t0.Add(-time.Millisecond), done: t0.Add(time.Millisecond)}
	if early.lateness() != 0 || early.latency() != time.Millisecond {
		t.Errorf("early send: lateness %v latency %v", early.lateness(), early.latency())
	}
}

func TestMedianRate(t *testing.T) {
	// 100 units per 100 ms slice, except one slice a stall stretched to
	// 1 s and one where the work waited on something else.
	ps := []progress{{at(0), 0}, {at(100), 100}, {at(1100), 200}, {at(1200), 300}, {at(1300), 300}, {at(1400), 400}}
	if got := medianRate(ps); got != 1000 {
		t.Errorf("medianRate = %g, want 1000 (slice rates 1000, 100, 1000, 0, 1000)", got)
	}
	if got := medianRate(ps[:1]); got == got {
		t.Errorf("medianRate of one reading = %g, want NaN", got)
	}

	// Ten units done out of order; five parts of two, cut in completion order.
	var done []time.Time
	for _, d := range []int{90, 10, 20, 100, 30, 40, 50, 60, 70, 80} {
		done = append(done, at(d))
	}
	got := countSlices(at(0), done, 5)
	want := []progress{{at(0), 0}, {at(20), 2}, {at(40), 4}, {at(60), 6}, {at(80), 8}, {at(100), 10}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("countSlices = %v, want %v", got, want)
	}
	if r := medianRate(got); r != 100 {
		t.Errorf("rate over the parts = %g, want 100/s", r)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func iv(a, b int) interval { return interval{at(a), at(b)} }

func TestSelfTimeArithmetic(t *testing.T) {
	span := iv(0, 100)
	for _, tc := range []struct {
		name     string
		children []interval
		self     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping counted once", []interval{iv(10, 40), iv(30, 60)}, 50},
		{"nested counted once", []interval{iv(10, 60), iv(20, 30)}, 50},
		{"clipped to the span", []interval{iv(-50, 10), iv(90, 200)}, 80},
		{"outside the span", []interval{iv(-20, -10), iv(100, 120)}, 100},
		{"touching", []interval{iv(0, 50), iv(50, 100)}, 0},
		{"empty child", []interval{iv(40, 40), iv(60, 50)}, 100},
	} {
		if got := selfTime(span, tc.children); got != tc.self*time.Millisecond {
			t.Errorf("%s: self = %v, want %v ms", tc.name, got, tc.self)
		}
	}
}

func TestWindowLayerSplit(t *testing.T) {
	w := windowTrace{
		window:     iv(0, 100),
		predict:    iv(0, 40),
		regions:    iv(40, 41),
		prefetch:   iv(42, 45), // 41–42 belongs to no span
		decide:     iv(45, 70),
		forward:    5 * time.Millisecond,
		ilp:        3 * time.Millisecond,
		dijkDecide: 2 * time.Millisecond,
		dijkSim:    10 * time.Millisecond,
	}
	if got := w.unattributed(); got != time.Millisecond {
		t.Errorf("unattributed = %v, want 1ms", got)
	}
	if got := w.dispatchSelf(); got != 15*time.Millisecond {
		t.Errorf("dispatch self = %v, want 15ms", got)
	}
	if got := w.simSelf(); got != 20*time.Millisecond {
		t.Errorf("sim self = %v, want 20ms", got)
	}
	// The layers and the unattributed rest add up to the window.
	sum := w.predict.dur() + w.regions.dur() + w.prefetch.dur() + w.forward + w.ilp + w.dijkDecide +
		w.dispatchSelf() + w.dijkSim + w.simSelf() + w.unattributed()
	if sum != w.window.dur() {
		t.Errorf("layers sum to %v, window is %v", sum, w.window.dur())
	}
	// Child time read from a histogram may exceed its span when the layer
	// ran on several cores; self time floors at zero.
	w.dijkSim = time.Second
	if got := w.simSelf(); got != 0 {
		t.Errorf("sim self with oversized child = %v, want 0", got)
	}
	d := dayTrace{windows: []windowTrace{w, w}}
	lt := d.totals()
	if lt.windows != 2 || lt.perWindowMS(lt.predict) != 40 || len(lt.unattributedShares) != 2 || lt.unattributedShares[0] != 0.01 {
		t.Errorf("totals = %+v", lt)
	}
}

func TestPlanStep(t *testing.T) {
	segs := []roadnet.SegmentID{3, 5, 8}
	n := 2 * stepSessions * maxAdvancesPerSession // needs a second set of sessions
	p := planStep(rand.New(rand.NewSource(7)), evenSchedule(500, n), segs)
	if len(p.ops) != n || p.sessions != 2*stepSessions {
		t.Fatalf("ops %d sessions %d", len(p.ops), p.sessions)
	}
	seen := make([]int, p.sessions) // requests per session so far
	advances := make([]int, p.sessions)
	for i, o := range p.ops {
		if want := time.Duration(i) * 2 * time.Millisecond; o.due != want {
			t.Fatalf("op %d due %v, want %v", i, o.due, want)
		}
		if o.session != i%p.sessions {
			t.Fatalf("op %d goes to session %d, not round robin", i, o.session)
		}
		// Each session repeats advance, inject, advance.
		if wantInject := seen[o.session]%sessionCycle == 1; (o.inject != nil) != wantInject {
			t.Fatalf("op %d: session %d request %d inject=%v", i, o.session, seen[o.session], o.inject != nil)
		}
		seen[o.session]++
		if o.inject == nil {
			advances[o.session]++
			continue
		}
		if len(o.inject) != 1 || o.inject[0].InS != injectInS {
			t.Fatalf("op %d injects %+v, want one request at %d s", i, o.inject, injectInS)
		}
		if seg := o.inject[0].Seg; seg != 3 && seg != 5 && seg != 8 {
			t.Fatalf("inject on segment %d outside the day's request segments", seg)
		}
	}
	for s, a := range advances {
		if a > maxAdvancesPerSession {
			t.Errorf("session %d gets %d advances, above %d", s, a, maxAdvancesPerSession)
		}
	}
	q := planStep(rand.New(rand.NewSource(7)), evenSchedule(500, n), segs)
	if !reflect.DeepEqual(p, q) {
		t.Error("the same seed planned different steps")
	}
	// Every method runs on the same number of sessions.
	per := map[string]int{}
	for i := 0; i < p.sessions; i++ {
		per[methodOf(i)]++
	}
	for _, m := range sessionMethods {
		if per[m] != p.sessions/len(sessionMethods) {
			t.Errorf("method mix %v over %d sessions", per, p.sessions)
		}
	}
	if got := stepRequests(nominalRate, 1); got*(sessionCycle-1)/sessionCycle < minAdvances {
		t.Errorf("a short step sends %d requests, fewer than %d advances", got, minAdvances)
	}
}

// TestBenchmarkFileMatches pins BENCHMARK.json's metric lists to the ones
// the benchmark reports.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: file has %+v, benchmark reports %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
	for _, w := range file.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
