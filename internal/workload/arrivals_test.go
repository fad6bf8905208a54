package workload

import (
	"math"
	"testing"
	"time"
)

func TestArrivalsClosedHasNoClock(t *testing.T) {
	a, err := NewArrivals(ArrivalClosed, 0, 1)
	if err != nil {
		t.Fatalf("NewArrivals: %v", err)
	}
	if !a.Closed() {
		t.Fatalf("closed process not Closed()")
	}
	for i := 0; i < 5; i++ {
		if g := a.Next(); g != 0 {
			t.Fatalf("closed gap = %v, want 0", g)
		}
	}
}

func TestArrivalsOpenFixedGap(t *testing.T) {
	a, err := NewArrivals(ArrivalOpen, 200, 1)
	if err != nil {
		t.Fatalf("NewArrivals: %v", err)
	}
	want := 5 * time.Millisecond
	for i := 0; i < 3; i++ {
		if g := a.Next(); g != want {
			t.Fatalf("open gap = %v, want %v", g, want)
		}
	}
}

func TestArrivalsPoissonMeanAndDeterminism(t *testing.T) {
	const rate, n = 100.0, 20000
	a, err := NewArrivals(ArrivalPoisson, rate, 42)
	if err != nil {
		t.Fatalf("NewArrivals: %v", err)
	}
	b, _ := NewArrivals(ArrivalPoisson, rate, 42)
	var sum time.Duration
	for i := 0; i < n; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, ga, gb)
		}
		if ga < 0 {
			t.Fatalf("negative gap %v", ga)
		}
		sum += ga
	}
	mean := sum.Seconds() / n
	// Mean gap should be ~1/rate = 10ms; the exponential's CLT error at
	// n=20000 is well under 5%.
	if math.Abs(mean-1/rate) > 0.05/rate {
		t.Fatalf("poisson mean gap = %vs, want ~%vs", mean, 1/rate)
	}
}

func TestArrivalsRejectsBadInput(t *testing.T) {
	if _, err := NewArrivals("burst", 10, 1); err == nil {
		t.Fatalf("unknown kind accepted")
	}
	if _, err := NewArrivals(ArrivalPoisson, 0, 1); err == nil {
		t.Fatalf("zero rate accepted for poisson")
	}
}

func TestParseMixWeightsAndPick(t *testing.T) {
	m, err := ParseMix("twohop=3, tc=1 ,reach")
	if err != nil {
		t.Fatalf("ParseMix: %v", err)
	}
	if got := m.Names(); len(got) != 3 || got[0] != "twohop" || got[1] != "tc" || got[2] != "reach" {
		t.Fatalf("Names = %v", got)
	}
	// Total weight 5: [0,3) → twohop, [3,4) → tc, [4,5) → reach.
	cases := map[float64]string{0: "twohop", 0.59: "twohop", 0.61: "tc", 0.79: "tc", 0.81: "reach", 0.999: "reach"}
	for u, want := range cases {
		if got := m.Pick(u); got != want {
			t.Fatalf("Pick(%v) = %q, want %q", u, got, want)
		}
	}
	// Degenerate u=1 (rand gives [0,1) but be safe).
	if got := m.Pick(1); got != "reach" {
		t.Fatalf("Pick(1) = %q", got)
	}
}

func TestParseMixRejectsBadInput(t *testing.T) {
	for _, s := range []string{"", "=3", "a=-1", "a=x", "a=0,b=0", ","} {
		if _, err := ParseMix(s); err == nil {
			t.Fatalf("ParseMix(%q) accepted", s)
		}
	}
}

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
	if got := r.Attainment(75 * time.Millisecond); got != 0.75 {
		t.Fatalf("Attainment = %v, want 0.75", got)
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
