// Command bvqload drives a bvqd server or a bvqrouter fleet with a
// configurable workload and reports client-side latency percentiles next
// to server-side ones derived from the /metrics histogram delta.
//
// The traffic mix names bench scenarios over examples/data/graph.db
// (twohop: the acyclic 2-hop join; tc: the k=3 transitive-closure LFP;
// reach: single-source reachability as a width-3 LFP); -churn makes that
// fraction of operations writes (a toggled E-edge insert/delete through
// /db/{name}/update) and -stream makes that fraction of queries NDJSON
// streams. Arrivals are closed (completion-driven: each worker fires the
// next request when the previous returns), open (fixed-rate clock) or
// poisson (exponential gaps, the memoryless open process).
//
// Usage:
//
//	bvqload -target http://127.0.0.1:8080 [-database graph] [-duration 10s]
//	        [-workers 8] [-arrival closed|open|poisson] [-rate 100]
//	        [-mix twohop=3,tc=1,reach=1] [-churn 0] [-stream 0]
//	        [-timeout 5s] [-seed 1] [-slo 50ms] [-json]
//
// The run report counts responses by status class (429 sheds and 409
// update conflicts are expected backpressure, not failures; any 5xx is),
// prints client-observed P50/P90/P99, and — when /metrics is reachable —
// the delta of bvqd_queries_total, bvqd_shed_total, bvqd_timeouts_total
// and bvqd_errors_total over the run plus server-side P50/P99 interpolated
// from the bvqd_query_latency_seconds bucket delta. Against bvqrouter the
// scraped families are already fleet sums.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// scenarios maps mix names to wire query texts. All three run against
// examples/data/graph.db (E for edges, P for reachability sources).
var scenarios = map[string]string{
	"twohop": "(x, y). exists z. E(x, z) & E(z, y)",
	"tc":     "(x, y). [lfp T(x, y). E(x, y) | (exists z. E(x, z) & T(z, y))](x, y)",
	"reach":  "(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)",
}

type config struct {
	target   string
	database string
	duration time.Duration
	workers  int
	arrival  string
	rate     float64
	mix      *workload.Mix
	churn    float64
	stream   float64
	timeout  time.Duration
	seed     uint64
	slo      time.Duration
	jsonOut  bool
	churnRow [2]int
}

// tally is the shared run ledger.
type tally struct {
	mu      sync.Mutex
	codes   map[int]int
	queries atomic.Int64 // successful (2xx) queries
	streams atomic.Int64 // successful streamed queries
	updates atomic.Int64 // successful updates

	shed       atomic.Int64 // 429
	conflicts  atomic.Int64 // 409 (update base_version races through a router fan-out)
	server5xx  atomic.Int64
	transport  atomic.Int64 // connection/read errors
	badStreams atomic.Int64 // streams whose trailer carried an error
	dropped    atomic.Int64 // open-loop arrivals dropped because all workers were busy

	lat workload.LatencyRecorder
}

func (t *tally) code(c int) {
	t.mu.Lock()
	t.codes[c]++
	t.mu.Unlock()
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bvqload:", err)
		os.Exit(2)
	}
	client := &http.Client{Timeout: cfg.timeout + 5*time.Second}

	before, scrapeErr := scrapeMetrics(client, cfg.target)
	start := time.Now()
	tl := run(client, cfg)
	elapsed := time.Since(start)

	var server *serverReport
	if scrapeErr == nil {
		if after, err := scrapeMetrics(client, cfg.target); err == nil {
			server = serverDelta(before, after)
		}
	}
	rep := buildReport(cfg, tl, elapsed, server)
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "bvqload:", err)
			os.Exit(1)
		}
	} else {
		printReport(os.Stdout, rep)
	}
	if rep.Requests == 0 || rep.Succeeded == 0 {
		fmt.Fprintln(os.Stderr, "bvqload: no request succeeded")
		os.Exit(1)
	}
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("bvqload", flag.ContinueOnError)
	var (
		target   = fs.String("target", "http://127.0.0.1:8080", "bvqd or bvqrouter base URL")
		database = fs.String("database", "graph", "database to query")
		duration = fs.Duration("duration", 10*time.Second, "run length")
		workers  = fs.Int("workers", 8, "concurrent workers")
		arrival  = fs.String("arrival", workload.ArrivalClosed, "arrival process: closed, open or poisson")
		rate     = fs.Float64("rate", 100, "target requests/second for open and poisson arrivals")
		mixText  = fs.String("mix", "twohop=3,tc=1,reach=1", "traffic mix over scenarios: twohop, tc, reach")
		churn    = fs.Float64("churn", 0, "fraction of operations that are updates (0..1)")
		stream   = fs.Float64("stream", 0, "fraction of queries issued as NDJSON streams (0..1)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request evaluation deadline")
		seed     = fs.Uint64("seed", 1, "workload RNG seed")
		slo      = fs.Duration("slo", 0, "latency SLO to report attainment against (0: none)")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
		churnRow = fs.String("churn-edge", "60,10", "edge toggled by churn updates, as \"a,b\" domain values")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	mix, err := workload.ParseMix(*mixText)
	if err != nil {
		return nil, err
	}
	for _, name := range mix.Names() {
		if _, ok := scenarios[name]; !ok {
			return nil, fmt.Errorf("unknown scenario %q (have twohop, tc, reach)", name)
		}
	}
	if *churn < 0 || *churn > 1 || *stream < 0 || *stream > 1 {
		return nil, fmt.Errorf("-churn and -stream must be in [0,1]")
	}
	if *workers < 1 {
		return nil, fmt.Errorf("-workers must be positive")
	}
	cfg := &config{
		target:   strings.TrimRight(*target, "/"),
		database: *database,
		duration: *duration,
		workers:  *workers,
		arrival:  *arrival,
		rate:     *rate,
		mix:      mix,
		churn:    *churn,
		stream:   *stream,
		timeout:  *timeout,
		seed:     *seed,
		slo:      *slo,
		jsonOut:  *jsonOut,
	}
	a, b, ok := strings.Cut(*churnRow, ",")
	if !ok {
		return nil, fmt.Errorf("-churn-edge wants \"a,b\", got %q", *churnRow)
	}
	if cfg.churnRow[0], err = strconv.Atoi(strings.TrimSpace(a)); err != nil {
		return nil, fmt.Errorf("-churn-edge: %v", err)
	}
	if cfg.churnRow[1], err = strconv.Atoi(strings.TrimSpace(b)); err != nil {
		return nil, fmt.Errorf("-churn-edge: %v", err)
	}
	return cfg, nil
}

// run drives the workload until the deadline and returns the ledger.
func run(client *http.Client, cfg *config) *tally {
	tl := &tally{codes: make(map[int]int)}
	deadline := time.Now().Add(cfg.duration)
	var churnToggle atomic.Int64

	worker := func(id int, launches <-chan struct{}) {
		rng := rand.New(rand.NewPCG(cfg.seed, uint64(id)*0x9e3779b97f4a7c15+1))
		for time.Now().Before(deadline) {
			if launches != nil {
				if _, ok := <-launches; !ok {
					return
				}
			}
			if cfg.churn > 0 && rng.Float64() < cfg.churn {
				doUpdate(client, cfg, tl, &churnToggle)
			} else {
				name := cfg.mix.Pick(rng.Float64())
				doQuery(client, cfg, tl, name, cfg.stream > 0 && rng.Float64() < cfg.stream)
			}
		}
	}

	var wg sync.WaitGroup
	arr, err := workload.NewArrivals(cfg.arrival, cfg.rate, cfg.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bvqload:", err)
		os.Exit(2)
	}
	if arr.Closed() {
		for i := 0; i < cfg.workers; i++ {
			wg.Add(1)
			go func(id int) { defer wg.Done(); worker(id, nil) }(i)
		}
	} else {
		// Open-loop: a clock goroutine emits launch tokens; workers drain
		// them. A full channel means every worker is busy — dropping the
		// token (rather than blocking) keeps the process honestly open and
		// counts the overload instead of silently degrading to closed.
		launches := make(chan struct{}, cfg.workers)
		for i := 0; i < cfg.workers; i++ {
			wg.Add(1)
			go func(id int) { defer wg.Done(); worker(id, launches) }(i)
		}
		for time.Now().Before(deadline) {
			time.Sleep(arr.Next())
			select {
			case launches <- struct{}{}:
			default:
				tl.dropped.Add(1)
			}
		}
		close(launches)
	}
	wg.Wait()
	return tl
}

func doQuery(client *http.Client, cfg *config, tl *tally, scenario string, stream bool) {
	body, _ := json.Marshal(map[string]any{
		"database":   cfg.database,
		"query":      scenarios[scenario],
		"stream":     stream,
		"timeout_ms": cfg.timeout.Milliseconds(),
	})
	start := time.Now()
	resp, err := client.Post(cfg.target+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		tl.transport.Add(1)
		return
	}
	defer resp.Body.Close()
	tl.code(resp.StatusCode)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		tl.shed.Add(1)
		io.Copy(io.Discard, resp.Body)
		return
	case resp.StatusCode >= 500:
		tl.server5xx.Add(1)
		io.Copy(io.Discard, resp.Body)
		return
	case resp.StatusCode != http.StatusOK:
		io.Copy(io.Discard, resp.Body)
		return
	}
	if !stream {
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			tl.transport.Add(1)
			return
		}
		tl.lat.Observe(time.Since(start))
		tl.queries.Add(1)
		return
	}
	// A trailer carrying an error (or a missing one) is a failed stream even
	// though the status was 200.
	ok, err := streamTrailer(resp.Body)
	if err != nil {
		tl.transport.Add(1)
		return
	}
	if !ok {
		tl.badStreams.Add(1)
		return
	}
	tl.lat.Observe(time.Since(start))
	tl.queries.Add(1)
	tl.streams.Add(1)
}

// streamTrailer drains an NDJSON stream and reports whether its last
// non-blank line is a trailer with no error; err is a read error.
func streamTrailer(r io.Reader) (ok bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var last string
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	var trailer struct {
		Trailer bool   `json:"trailer"`
		Error   string `json:"error"`
	}
	return json.Unmarshal([]byte(last), &trailer) == nil && trailer.Trailer && trailer.Error == "", nil
}

// doUpdate toggles the churn edge: even toggles insert it, odd ones delete
// it, so the database's content stays bounded while every update still
// advances the version chain and moves the reads of the toggled relation to
// a content whose first read maintains its cached answers.
func doUpdate(client *http.Client, cfg *config, tl *tally, toggle *atomic.Int64) {
	op := "insert"
	if toggle.Add(1)%2 == 0 {
		op = "delete"
	}
	body, _ := json.Marshal(map[string]any{
		"updates": []map[string]any{{
			"relation": "E",
			op:         [][]int{{cfg.churnRow[0], cfg.churnRow[1]}},
		}},
	})
	resp, err := client.Post(cfg.target+"/db/"+cfg.database+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		tl.transport.Add(1)
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	tl.code(resp.StatusCode)
	switch {
	case resp.StatusCode == http.StatusOK:
		tl.updates.Add(1)
	case resp.StatusCode == http.StatusConflict:
		tl.conflicts.Add(1)
	case resp.StatusCode >= 500:
		tl.server5xx.Add(1)
	}
}

// scrapeMetrics GETs and parses /metrics.
func scrapeMetrics(client *http.Client, target string) ([]metrics.Family, error) {
	resp, err := client.Get(target + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return metrics.ParseText(resp.Body)
}

// totals sums the samples called name by the value of their le label ("" for
// samples without one): a counter's total over its label sets, or a
// histogram's cumulative bucket counts over its children.
func totals(fams []metrics.Family, name string) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name {
				out[s.Labels["le"]] += s.Value
			}
		}
	}
	return out
}

type serverReport struct {
	Queries  float64 `json:"queries"`
	Shed     float64 `json:"shed"`
	Timeouts float64 `json:"timeouts"`
	Errors   float64 `json:"errors"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// serverDelta turns two /metrics snapshots into the run's server-side
// counters and latency percentiles. The latency histogram is the PR-4
// bvqd_query_latency_seconds family: bucket deltas summed across label
// sets (engines; replicas too when scraping a router aggregate), then
// interpolated like histogram_quantile.
func serverDelta(before, after []metrics.Family) *serverReport {
	delta := func(name string) map[string]float64 {
		d, was := totals(after, name), totals(before, name)
		for le := range d {
			d[le] -= was[le]
		}
		return d
	}
	rep := &serverReport{
		Queries:  delta("bvqd_queries_total")[""],
		Shed:     delta("bvqd_shed_total")[""],
		Timeouts: delta("bvqd_timeouts_total")[""],
		Errors:   delta("bvqd_errors_total")[""],
	}

	// Collapse bucket series to cumulative counts per le bound.
	byLE := make(map[float64]float64)
	for le, d := range delta("bvqd_query_latency_seconds_bucket") {
		if b, err := strconv.ParseFloat(le, 64); err == nil && !math.IsNaN(b) {
			byLE[b] += d
		}
	}
	infDelta := byLE[math.Inf(1)]
	delete(byLE, math.Inf(1))
	bounds := make([]float64, 0, len(byLE))
	for b := range byLE {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	cum := make([]float64, len(bounds))
	for i, b := range bounds {
		cum[i] = byLE[b]
	}
	if p := workload.HistogramPercentile(bounds, cum, infDelta, 50); !math.IsNaN(p) {
		rep.P50MS = p * 1000
	}
	if p := workload.HistogramPercentile(bounds, cum, infDelta, 99); !math.IsNaN(p) {
		rep.P99MS = p * 1000
	}
	return rep
}

type report struct {
	Target    string         `json:"target"`
	Arrival   string         `json:"arrival"`
	DurationS float64        `json:"duration_s"`
	Workers   int            `json:"workers"`
	Requests  int            `json:"requests"`
	Succeeded int64          `json:"succeeded"`
	QPS       float64        `json:"qps"`
	Codes     map[string]int `json:"codes"`
	Queries   int64          `json:"queries"`
	Streams   int64          `json:"streams"`
	Updates   int64          `json:"updates"`
	Shed      int64          `json:"shed"`
	Conflicts int64          `json:"conflicts"`
	Server5xx int64          `json:"server_5xx"`
	Transport int64          `json:"transport_errors"`
	BadStream int64          `json:"bad_streams"`
	Dropped   int64          `json:"dropped_arrivals"`
	Latency   struct {
		P50MS  float64 `json:"p50_ms"`
		P90MS  float64 `json:"p90_ms"`
		P99MS  float64 `json:"p99_ms"`
		MaxMS  float64 `json:"max_ms"`
		MeanMS float64 `json:"mean_ms"`
	} `json:"latency"`
	SLO    *sloReport    `json:"slo,omitempty"`
	Server *serverReport `json:"server,omitempty"`
}

type sloReport struct {
	TargetMS   float64 `json:"target_ms"`
	Attainment float64 `json:"attainment"`
}

func buildReport(cfg *config, tl *tally, elapsed time.Duration, server *serverReport) *report {
	rep := &report{
		Target:    cfg.target,
		Arrival:   cfg.arrival,
		DurationS: elapsed.Seconds(),
		Workers:   cfg.workers,
		Codes:     make(map[string]int),
		Queries:   tl.queries.Load(),
		Streams:   tl.streams.Load(),
		Updates:   tl.updates.Load(),
		Shed:      tl.shed.Load(),
		Conflicts: tl.conflicts.Load(),
		Server5xx: tl.server5xx.Load(),
		Transport: tl.transport.Load(),
		BadStream: tl.badStreams.Load(),
		Dropped:   tl.dropped.Load(),
		Server:    server,
	}
	tl.mu.Lock()
	for code, n := range tl.codes {
		rep.Requests += n
		rep.Codes[strconv.Itoa(code)] = n
	}
	tl.mu.Unlock()
	rep.Requests += int(rep.Transport)
	rep.Succeeded = rep.Queries + rep.Updates
	if elapsed > 0 {
		rep.QPS = float64(rep.Requests) / elapsed.Seconds()
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep.Latency.P50MS = ms(tl.lat.Percentile(50))
	rep.Latency.P90MS = ms(tl.lat.Percentile(90))
	rep.Latency.P99MS = ms(tl.lat.Percentile(99))
	rep.Latency.MaxMS = ms(tl.lat.Percentile(100))
	rep.Latency.MeanMS = ms(tl.lat.Mean())
	if cfg.slo > 0 {
		rep.SLO = &sloReport{TargetMS: ms(cfg.slo), Attainment: tl.lat.Attainment(cfg.slo)}
	}
	return rep
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "bvqload: %s, %s arrivals, %d workers, %.1fs\n", r.Target, r.Arrival, r.Workers, r.DurationS)
	fmt.Fprintf(w, "  requests  %d (%.1f req/s), succeeded %d\n", r.Requests, r.QPS, r.Succeeded)
	codes := make([]string, 0, len(r.Codes))
	for c := range r.Codes {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "    %s: %d\n", c, r.Codes[c])
	}
	fmt.Fprintf(w, "  queries   %d (%d streamed), updates %d\n", r.Queries, r.Streams, r.Updates)
	fmt.Fprintf(w, "  shed %d, conflicts %d, 5xx %d, transport errors %d, bad streams %d",
		r.Shed, r.Conflicts, r.Server5xx, r.Transport, r.BadStream)
	if r.Dropped > 0 {
		fmt.Fprintf(w, ", dropped arrivals %d", r.Dropped)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  latency   p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms  mean %.2fms\n",
		r.Latency.P50MS, r.Latency.P90MS, r.Latency.P99MS, r.Latency.MaxMS, r.Latency.MeanMS)
	if r.SLO != nil {
		fmt.Fprintf(w, "  slo       %.0fms attained %.2f%%\n", r.SLO.TargetMS, 100*r.SLO.Attainment)
	}
	if r.Server != nil {
		fmt.Fprintf(w, "  server    queries %.0f, shed %.0f, timeouts %.0f, errors %.0f, p50 %.2fms, p99 %.2fms\n",
			r.Server.Queries, r.Server.Shed, r.Server.Timeouts, r.Server.Errors, r.Server.P50MS, r.Server.P99MS)
	}
}
