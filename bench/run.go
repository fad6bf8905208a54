package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// options are the settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	basePort int
	// ops, when positive, replaces the timed phase by exactly that many
	// operations per client (the self-check and the tests).
	ops int
	// clients overrides min(nproc, 2); the self-check uses one, which makes
	// every server counter a function of the op sequence alone.
	clients int
	scale   int // divides text counts and sequence lengths (1 for real runs)
	setups  int // how many times the service is set up; the median is reported
}

// result is everything one run measured.
type result struct {
	workload  string
	digest    string
	attempted int
	failed    int
	failures  []string
	values    map[string]float64 // metric name → value
	counts    map[string]int     // metric name → samples behind a timing
	counters  counters           // raw class-(a) deltas of the measured phase
}

// crossChecked is how many texts of a run are also evaluated through the
// engines in-process (oracle.go); more would cost as much as the run itself.
const crossChecked = 64

func defaultClients() int { return min(runtime.NumCPU(), 2) }

// percentile is the nearest-rank percentile of sorted durations, in ms.
func percentileMS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runWorkload generates the workload, sets the service up (several times:
// set-up time is reported as a median), runs the measured phase against the
// last set-up and tears everything down.
func runWorkload(p paths, opt options) (*result, error) {
	clients := opt.clients
	if clients == 0 {
		clients = defaultClients()
	}
	w, err := generate(opt.workload, opt.seed, clients, opt.scale)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, digest: w.digest(),
		values: map[string]float64{}, counts: map[string]int{}}

	oracleStart := time.Now()
	checked, err := crossCheck(w, opt.seed, crossChecked)
	if err != nil {
		return nil, err
	}
	// A traced run does a fixed amount of work, so that its counters can
	// repeat, and sets up once: set-up time is an end-to-end metric.
	ops, setupRuns := opt.ops, opt.setups
	if opt.trace {
		setupRuns = 1
		if ops == 0 {
			ops = max(traceLoadOps[w.name]/opt.scale, 1)
		}
	}
	probe := &http.Client{Timeout: 10 * time.Second}
	d := newDriver(w, "", clients)
	fmt.Printf("# %s seed=%d clients=%d (closed loop) digest=%s: %d texts, %d cross-checked against the engines, oracle ready in %.2fs\n",
		w.name, opt.seed, clients, res.digest, len(w.queries), checked, time.Since(oracleStart).Seconds())
	var f *fleet
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if f != nil {
			f.stop()
		}
		d.restart()
		t0 := time.Now()
		if f, err = launch(p, w, opt.basePort, probe); err != nil {
			return nil, err
		}
		d.target = f.target
		if err := d.warmUp(); err != nil {
			f.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.stop()
	res.values["setup_s"] = median(setups)
	res.counts["setup_s"] = len(setups)

	before, err := f.scrape(probe)
	if err != nil {
		return nil, err
	}
	cpu0, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	speed := startSpeedometer()
	samples, wall := d.phase(time.Duration(opt.seconds)*time.Second, ops)
	slowness := speed.finish()
	cpu1, err := f.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := f.scrape(probe)
	if err != nil {
		return nil, err
	}
	rss, err := f.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.counters = after.minus(before)
	res.failures = d.failures
	summarize(res, w, samples, wall, cpu1-cpu0, rss)
	toNominalSpeed(res, slowness)
	if opt.trace {
		f.stop() // the in-process timings want the machine to themselves
		tm, err := layerTimings(p, w, d)
		if err != nil {
			return nil, err
		}
		layerValues(res, tm)
	}
	return res, nil
}

// toNominalSpeed rescales the time-based metrics by the slowness the
// speedometer saw during the measured phase (speed.go), keeping the
// figures as measured under "raw." names. Memory is not a time.
func toNominalSpeed(res *result, slowness float64) {
	res.values["machine_slowness"], res.counts["machine_slowness"] = slowness, 1
	for _, name := range []string{"setup_s", "p50_ms", "p90_ms", "p99_ms", "write_p50_ms", "stream_ttft_p50_ms", "cpu_ms_per_op"} {
		res.values["raw."+name], res.counts["raw."+name] = res.values[name], res.counts[name]
		res.values[name] /= slowness
	}
	for _, name := range []string{"ops_per_s", "stream_rows_per_s"} {
		res.values["raw."+name], res.counts["raw."+name] = res.values[name], res.counts[name]
		res.values[name] *= slowness
	}
}

// blockStats are the timings of one block of one client.
type blockStats struct {
	rate               float64 // ops per second
	p50, p90           float64 // ms
	ttft, drainRows    float64 // ms, rows per second of drain time
	writeP50           float64 // ms
	drains, writeCount int
}

func sortedMS(ds []time.Duration) []time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

// summarize turns the samples of the measured phase into the end-to-end
// metrics. Every block of a client's sequence is the same work, so each
// timing is taken per complete block and the median block is reported: a
// stall of the machine spoils the blocks it falls in, not the figure. The
// trailing partial block counts only towards attempted, failed and the CPU
// share. A failed op has no latency.
func summarize(res *result, w *workload, perClient [][]sample, wall time.Duration, cpuSeconds, rssMiB float64) {
	var all []time.Duration
	var blocks []blockStats
	rate := 0.0
	for _, samples := range perClient {
		var rates []float64
		prevEnd := time.Duration(0)
		for at := 0; at+w.block <= len(samples); at += w.block {
			var lat, writes, ttft []time.Duration
			var drainTime time.Duration
			rows := 0
			for _, s := range samples[at : at+w.block] {
				if s.failed {
					continue
				}
				lat = append(lat, s.latency)
				switch s.kind {
				case opUpdate:
					writes = append(writes, s.latency)
				case opDrain:
					ttft = append(ttft, s.ttft)
					drainTime += s.latency
					rows += s.rows
				}
			}
			end := samples[at+w.block-1].end
			b := blockStats{
				rate:       float64(len(lat)) / (end - prevEnd).Seconds(),
				p50:        percentileMS(sortedMS(lat), 0.50),
				p90:        percentileMS(lat, 0.90),
				ttft:       percentileMS(sortedMS(ttft), 0.50),
				writeP50:   percentileMS(sortedMS(writes), 0.50),
				drains:     len(ttft),
				writeCount: len(writes),
			}
			if drainTime > 0 {
				b.drainRows = float64(rows) / drainTime.Seconds()
			}
			prevEnd = end
			blocks = append(blocks, b)
			rates = append(rates, b.rate)
		}
		rate += median(rates)
		for _, s := range samples {
			res.attempted++
			if s.failed {
				res.failed++
			} else {
				all = append(all, s.latency)
			}
		}
	}
	ok := len(all)
	set := func(name string, v float64, n int) { res.values[name], res.counts[name] = v, n }
	pick := func(f func(blockStats) (float64, bool)) (float64, int) {
		var vs []float64
		for _, b := range blocks {
			if v, use := f(b); use {
				vs = append(vs, v)
			}
		}
		return median(vs), len(vs)
	}
	n := len(blocks)
	set("blocks", float64(n), n)
	set("ops_per_s", rate, n)
	v, _ := pick(func(b blockStats) (float64, bool) { return b.p50, true })
	set("p50_ms", v, n)
	v, _ = pick(func(b blockStats) (float64, bool) { return b.p90, true })
	set("p90_ms", v, n)
	v, k := pick(func(b blockStats) (float64, bool) { return b.ttft, b.drains > 0 })
	set("stream_ttft_p50_ms", v, k)
	v, k = pick(func(b blockStats) (float64, bool) { return b.drainRows, b.drains > 0 })
	set("stream_rows_per_s", v, k)
	v, k = pick(func(b blockStats) (float64, bool) { return b.writeP50, b.writeCount > 0 })
	set("write_p50_ms", v, k)
	set("p99_ms", percentileMS(sortedMS(all), 0.99), ok)
	if ok > 0 {
		set("cpu_ms_per_op", cpuSeconds*1000/float64(ok), ok)
	}
	set("rss_peak_mib", rssMiB, 1)
	set("measured_s", wall.Seconds(), 1)
}
