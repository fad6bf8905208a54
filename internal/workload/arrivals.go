package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Arrival process kinds for the closed-loop load harness (bvqload). A
// closed process has no arrival clock at all — each worker fires its next
// request the moment the previous one completes, so offered load adapts to
// the system (the classic closed-loop benchmark). Open and Poisson
// processes launch requests on a clock regardless of completions: open at
// a fixed rate, Poisson with exponentially distributed gaps of the same
// mean — the memoryless process that real independent clients approximate,
// and the one that exposes queueing behavior fixed-rate load hides.
const (
	ArrivalClosed  = "closed"
	ArrivalOpen    = "open"
	ArrivalPoisson = "poisson"
)

// Arrivals generates inter-arrival gaps for one load run. Deterministic
// per seed. Safe for concurrent use (a single dispatcher is the expected
// caller, but nothing breaks otherwise).
type Arrivals struct {
	kind string
	mean time.Duration // 1/rate
	mu   sync.Mutex
	rng  *rand.Rand
}

// NewArrivals builds an arrival process. rate is requests/second and must
// be positive for open and poisson; it is ignored for closed.
func NewArrivals(kind string, rate float64, seed uint64) (*Arrivals, error) {
	switch kind {
	case ArrivalClosed:
		return &Arrivals{kind: kind}, nil
	case ArrivalOpen, ArrivalPoisson:
		if rate <= 0 {
			return nil, fmt.Errorf("workload: %s arrivals need a positive rate, got %v", kind, rate)
		}
		return &Arrivals{
			kind: kind,
			mean: time.Duration(float64(time.Second) / rate),
			rng:  rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		}, nil
	default:
		return nil, fmt.Errorf("workload: unknown arrival process %q (want closed, open or poisson)", kind)
	}
}

// Closed reports whether the process is completion-driven (no clock).
func (a *Arrivals) Closed() bool { return a.kind == ArrivalClosed }

// Next returns the gap before the next launch. Zero for closed processes.
func (a *Arrivals) Next() time.Duration {
	switch a.kind {
	case ArrivalOpen:
		return a.mean
	case ArrivalPoisson:
		a.mu.Lock()
		g := a.rng.ExpFloat64()
		a.mu.Unlock()
		return time.Duration(g * float64(a.mean))
	default:
		return 0
	}
}

// Mix is a weighted traffic mix over named scenarios, e.g.
// "twohop=3,tc=1,reach=1". Weights are relative; a bare name means
// weight 1.
type Mix struct {
	names   []string
	weights []float64
	total   float64
}

// ParseMix parses a comma-separated name=weight list.
func ParseMix(s string) (*Mix, error) {
	m := &Mix{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wtext, hasW := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("workload: empty scenario name in mix %q", s)
		}
		w := 1.0
		if hasW {
			var err error
			w, err = strconv.ParseFloat(strings.TrimSpace(wtext), 64)
			if err != nil || w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("workload: bad weight for %q in mix %q", name, s)
			}
		}
		m.names = append(m.names, name)
		m.weights = append(m.weights, w)
		m.total += w
	}
	if len(m.names) == 0 || m.total <= 0 {
		return nil, fmt.Errorf("workload: mix %q selects nothing", s)
	}
	return m, nil
}

// Names returns the scenario names in declaration order.
func (m *Mix) Names() []string { return append([]string(nil), m.names...) }

// Pick maps u ∈ [0,1) onto a scenario by weight. The caller owns the
// randomness so runs stay deterministic per seed.
func (m *Mix) Pick(u float64) string {
	target := u * m.total
	acc := 0.0
	for i, w := range m.weights {
		acc += w
		if target < acc {
			return m.names[i]
		}
	}
	return m.names[len(m.names)-1]
}

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

// Attainment returns the fraction of observations at or under slo.
func (r *LatencyRecorder) Attainment(slo time.Duration) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	ok := 0
	for _, d := range r.samples {
		if d <= slo {
			ok++
		}
	}
	return float64(ok) / float64(len(r.samples))
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
