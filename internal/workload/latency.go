package workload

import (
	"math"
	"sort"
	"sync"
	"time"
)

// LatencyRecorder accumulates request latencies and reports percentiles.
// Observation is mutex-guarded append; reporting sorts a copy.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Observe records one latency.
func (r *LatencyRecorder) Observe(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (r *LatencyRecorder) sorted() []time.Duration {
	r.mu.Lock()
	out := append([]time.Duration(nil), r.samples...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Percentile returns the p-th percentile (p in [0,100], nearest-rank), or
// 0 with no samples.
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	s := r.sorted()
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Mean returns the mean latency, or 0 with no samples.
func (r *LatencyRecorder) Mean() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.samples {
		sum += d
	}
	return sum / time.Duration(len(r.samples))
}

// HistogramPercentile estimates the p-th percentile (p in [0,100]) from a
// cumulative Prometheus histogram: bounds are the le upper bounds in
// ascending order (without +Inf) and cum the matching cumulative counts,
// with total the overall count (the +Inf bucket). Linear interpolation
// within the winning bucket, like Prometheus's histogram_quantile. Used by
// bvqload to turn scraped bvqd_query_latency_seconds deltas into
// server-side percentiles.
func HistogramPercentile(bounds []float64, cum []float64, total float64, p float64) float64 {
	if total <= 0 || len(bounds) == 0 || len(bounds) != len(cum) {
		return math.NaN()
	}
	target := p / 100 * total
	prevCum, prevBound := 0.0, 0.0
	for i, b := range bounds {
		if cum[i] >= target {
			in := cum[i] - prevCum
			if in <= 0 {
				return b
			}
			return prevBound + (b-prevBound)*(target-prevCum)/in
		}
		prevCum, prevBound = cum[i], b
	}
	// Landed in the +Inf bucket: the largest finite bound is the best
	// answer available.
	return bounds[len(bounds)-1]
}
