package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles the tail rule chooses from.
var tailLadder = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps decimal percentiles such as 99.9 from rounding
	// up a rank that is exact in decimal.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n > 0 && n-rank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p of xs (NaN when xs is
// empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// latencySummary is a timing reported the way the benchmark reports every
// timing: the median, the highest percentile with minBeyond samples
// beyond it, and the sample count.
type latencySummary struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

func summarize(xs []float64) latencySummary {
	tp := tailPercentile(len(xs))
	return latencySummary{N: len(xs), P50: median(xs), TailPct: tp, Tail: percentile(xs, tp)}
}

// segmented summarizes xs split into k contiguous parts of (nearly) equal
// size: the median of the parts' medians and of their tails, the lowest
// tail percentile of any part, and the smallest part's count. A stall that
// spoils one part's tail leaves the median of the parts unmoved.
func segmented(xs []float64, k int) latencySummary {
	var p50s, tails []float64
	out := latencySummary{N: len(xs), TailPct: tailLadder[len(tailLadder)-1]}
	for j := 0; j < k; j++ {
		part := summarize(xs[j*len(xs)/k : (j+1)*len(xs)/k])
		p50s, tails = append(p50s, part.P50), append(tails, part.Tail)
		out.N = min(out.N, part.N)
		out.TailPct = math.Min(out.TailPct, part.TailPct)
	}
	out.P50, out.Tail = median(p50s), median(tails)
	return out
}

// progress is one reading of a cumulative count of finished work.
type progress struct {
	at time.Time
	n  int64
}

// medianRate is the median, over the slices between consecutive readings,
// of the work finished per second in the slice. A stall spoils the slices
// it falls in, not the median; NaN when there are fewer than two readings.
func medianRate(ps []progress) float64 {
	var rates []float64
	for i := 1; i < len(ps); i++ {
		if dt := ps[i].at.Sub(ps[i-1].at).Seconds(); dt > 0 {
			rates = append(rates, float64(ps[i].n-ps[i-1].n)/dt)
		}
	}
	return median(rates)
}

// countSlices turns the completion times of units of work begun at start
// into k+1 readings: start, then the time each k-th part of the units (in
// completion order) was done. Parts hold equal counts, so a run of fixed
// work cuts the same parts every time.
func countSlices(start time.Time, done []time.Time, k int) []progress {
	s := append([]time.Time(nil), done...)
	sort.Slice(s, func(i, j int) bool { return s[i].Before(s[j]) })
	ps := []progress{{at: start}}
	for j := 1; j <= k && len(s) > 0; j++ {
		n := j * len(s) / k
		ps = append(ps, progress{at: s[n-1], n: int64(n)})
	}
	return ps
}

// interval is a closed-open span of wall time.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration {
	if iv.end.Before(iv.start) {
		return 0
	}
	return iv.end.Sub(iv.start)
}

// covered returns how much of span the union of children covers; parts of
// children outside span, and overlaps between children, count once or not
// at all.
func covered(span interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(span.start) {
			c.start = span.start
		}
		if c.end.After(span.end) {
			c.end = span.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			total += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(span interval, children []interval) time.Duration {
	return span.dur() - covered(span, children)
}

// openLoopSample is one request of an open-loop schedule: when it was due,
// when the generator actually sent it, and when its reply arrived.
type openLoopSample struct {
	due, sent, done time.Time
}

// latency is measured from the due time, so a stall that delays the
// generator is charged to every request it delays.
func (s openLoopSample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind its schedule the generator sent the request.
func (s openLoopSample) lateness() time.Duration {
	if d := s.sent.Sub(s.due); d > 0 {
		return d
	}
	return 0
}

// evenSchedule returns n due offsets spaced 1/rate apart, the first at 0.
func evenSchedule(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	gap := float64(time.Second) / rate
	for i := range out {
		out[i] = time.Duration(float64(i) * gap)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
