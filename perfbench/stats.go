package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile: p99 is reported only with at least this many samples above
// it, otherwise the highest percentile that has them.
const minTail = 10

// tail returns the highest percentile at or below 99 that has at least
// minTail samples strictly beyond it, as (value, percentile). sorted must
// be ascending. ok is false when there are too few samples for any tail.
func tail(sorted []float64) (v, pct float64, ok bool) {
	n := len(sorted)
	if n <= minTail {
		return 0, 0, false
	}
	r := int(math.Ceil(0.99*float64(n))) - 1 // nearest-rank p99
	if r > n-1-minTail {
		r = n - 1 - minTail
	}
	return sorted[r], 100 * float64(r+1) / float64(n), true
}

// median returns the middle value of an ascending slice (the mean of the
// two middle values for even lengths); 0 for an empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timing is the due-time accounting of one open-loop request. All
// instants are offsets from the step's start.
type timing struct {
	Due   time.Duration // when the schedule said to send it
	Free  time.Duration // when a connection became free to take it
	Start time.Duration // when the request was actually sent
	End   time.Duration // when the full response had been read
}

// Latency is the user-visible latency: from when the request was due,
// so a stall is charged to every request it delays.
func (t timing) Latency() time.Duration { return t.End - t.Due }

// RoundTrip is the time on the wire and in the server.
func (t timing) RoundTrip() time.Duration { return t.End - t.Start }

// Wait is the time the request was due but not yet sent: queueing for a
// free connection plus generator lateness.
func (t timing) Wait() time.Duration { return t.Start - t.Due }

// Lag is the generator's own lateness: how long after the request was
// both due and had a free connection it was actually sent. A healthy
// open-loop generator keeps this near zero.
func (t timing) Lag() time.Duration {
	ready := t.Due
	if t.Free > ready {
		ready = t.Free
	}
	return t.Start - ready
}

// backlogGrowing reports whether the queue of due-but-unsent requests
// grew through the step: at the end of the step's schedule it holds more
// than four requests per connection — more than a connection could have
// in hand — and more than it did halfway through.
func backlogGrowing(ts []timing, stepLen time.Duration, conns int) bool {
	queued := func(at time.Duration) int {
		n := 0
		for _, t := range ts {
			if t.Due <= at && t.Start > at {
				n++
			}
		}
		return n
	}
	end := queued(stepLen)
	return end > 4*conns && end > queued(stepLen/2)
}

// stepResult summarises one fixed-rate open-loop step.
type stepResult struct {
	Rate     float64 // offered requests per second
	N        int     // requests attempted
	Failed   int     // non-200, shed, deadline or oracle mismatch
	P50Ms    float64 // median due-time latency
	TailMs   float64 // tail latency (see tail)
	TailPct  float64 // the percentile TailMs is at
	LagP99Ms float64 // generator send lag, p99
	LagMaxMs float64 // generator send lag, max
	Backlog  bool    // the backlog grew through the step
	Valid    bool    // the generator kept its schedule (lag within bound)
	// Throughput is the completion rate from the first send to the last
	// response: the daemon's capacity when the backlog grew.
	Throughput float64
}

// passes reports whether a step meets the latency limit with no failures
// and no growing backlog.
func (s stepResult) passes(limitMs float64) bool {
	return s.Valid && s.Failed == 0 && !s.Backlog && s.TailMs <= limitMs
}

// goodput is the highest offered rate at which every valid step at or
// below it passes; invalid steps (the generator lost its schedule) are
// not counted either way. The next valid step above moves the figure
// toward its own rate when it did not pass for want of capacity alone:
// on latency (no failures, no growing backlog) it is interpolated where
// the tail latency, on a log scale, crosses the limit; on a growing
// backlog it is the throughput that step achieved — the capacity it ran
// out of — clamped between the two rates. A knee between two probed
// rates so moves the figure smoothly instead of by a whole step. A step
// with failures moves it nowhere. It returns 0 when the lowest valid
// step does not pass.
func goodput(all []stepResult, limitMs float64) float64 {
	var steps []stepResult
	for _, s := range all {
		if s.Valid {
			steps = append(steps, s)
		}
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].Rate < steps[j].Rate })
	best := 0.0
	for i, s := range steps {
		if s.passes(limitMs) {
			best = s.Rate
			continue
		}
		if i == 0 || s.Failed > 0 {
			return best
		}
		lo := steps[i-1]
		if s.Backlog {
			return math.Max(lo.Rate, math.Min(s.Rate, s.Throughput))
		}
		frac := (math.Log(limitMs) - math.Log(lo.TailMs)) / (math.Log(s.TailMs) - math.Log(lo.TailMs))
		return lo.Rate + (s.Rate-lo.Rate)*math.Max(0, math.Min(1, frac))
	}
	return best
}
