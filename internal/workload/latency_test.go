package workload

import (
	"math"
	"testing"
	"time"
)

func TestLatencyRecorderPercentiles(t *testing.T) {
	var r LatencyRecorder
	if r.Percentile(50) != 0 || r.Mean() != 0 {
		t.Fatalf("empty recorder not zero")
	}
	// 1..100 ms.
	for i := 1; i <= 100; i++ {
		r.Observe(time.Duration(i) * time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {90, 90 * time.Millisecond}, {99, 99 * time.Millisecond}, {100, 100 * time.Millisecond}} {
		if got := r.Percentile(c.p); got != c.want {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got, want := r.Mean(), 50500*time.Microsecond; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestHistogramPercentile(t *testing.T) {
	// 100 observations: 50 in (0, 0.01], 40 in (0.01, 0.1], 10 in (0.1, 1].
	bounds := []float64{0.01, 0.1, 1}
	cum := []float64{50, 90, 100}
	if got := HistogramPercentile(bounds, cum, 100, 50); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("P50 = %v, want 0.01", got)
	}
	// P75: target 75 lands in the second bucket, 25/40 of the way through.
	want := 0.01 + (0.1-0.01)*25/40
	if got := HistogramPercentile(bounds, cum, 100, 75); math.Abs(got-want) > 1e-9 {
		t.Fatalf("P75 = %v, want %v", got, want)
	}
	if got := HistogramPercentile(bounds, cum, 100, 99); math.Abs(got-0.91) > 1e-9 {
		t.Fatalf("P99 = %v, want 0.91", got)
	}
	if got := HistogramPercentile(nil, nil, 0, 50); !math.IsNaN(got) {
		t.Fatalf("empty histogram gave %v, want NaN", got)
	}
	// All mass beyond the largest finite bound clamps to it.
	if got := HistogramPercentile([]float64{0.01}, []float64{0}, 10, 50); got != 0.01 {
		t.Fatalf("+Inf-bucket percentile = %v, want 0.01", got)
	}
}
