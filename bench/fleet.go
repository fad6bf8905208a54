package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// paths locates the repository and the benchmark's scratch directory. The
// benchmark is run as `go -C bench run repro/bench`, which starts it inside
// bench/; starting the built binary from the repository root works too.
type paths struct {
	root string // the repository: holds cmd/ and go.mod
	out  string // bench/out: binaries, database files, logs, traces
}

func findPaths() (paths, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return paths{}, err
	}
	benchDir := cwd
	if _, err := os.Stat(filepath.Join(cwd, "bench", "gen.go")); err == nil {
		benchDir = filepath.Join(cwd, "bench")
	}
	root := filepath.Dir(benchDir)
	for _, need := range []string{"go.mod", "cmd/bvqd", "cmd/bvqrouter"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return paths{}, fmt.Errorf("%s is not the repository the benchmark measures: %w", root, err)
		}
	}
	return paths{root: root, out: filepath.Join(benchDir, "out")}, nil
}

// buildServers compiles the two daemons from the tree the benchmark sits
// in. The build is not part of setup_s: it happens once per checkout, while
// set-up happens on every start of the service.
func buildServers(p paths) error {
	bin := filepath.Join(p.out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/bvqd", "./cmd/bvqrouter")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building bvqd and bvqrouter: %w\n%s", err, out)
	}
	return nil
}

// proc is one spawned server process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when the process has been waited for
}

// start spawns bin on addr with args, logging to out/logs/<name>.log. The
// port must be free: the ring hashes member URLs, so the benchmark uses
// fixed ports, and a port held by someone else is an error, not a retry.
func start(p paths, name, bin, addr string, args ...string) (*proc, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s needs %s: %w (pick another range with -base-port)", name, addr, err)
	}
	ln.Close()
	logDir := filepath.Join(p.out, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(p.out, "bin", bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Should the benchmark die without stopping its servers, they go too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	pr := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logFile, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop ourselves says nothing
		close(pr.done)
	}()
	return pr, nil
}

// stop terminates the process and returns once it has exited.
func (pr *proc) stop() {
	_ = pr.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-pr.done:
	case <-time.After(5 * time.Second):
		_ = pr.cmd.Process.Kill()
		<-pr.done
	}
	pr.log.Close()
}

// ready polls /healthz until the process answers.
func (pr *proc) ready(client *http.Client) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-pr.done:
			return fmt.Errorf("%s exited during start-up; see out/logs/%s.log", pr.name, pr.name)
		default:
		}
		resp, err := client.Get(pr.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 15s", pr.name)
}

// cpuSeconds is utime+stime of the process from /proc/<pid>/stat.
func (pr *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pr.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line for %s", pr.name)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ on every Linux Go runs on
	return (utime + stime) / clockTicks, nil
}

// peakRSSMiB is VmHWM from /proc/<pid>/status.
func (pr *proc) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pr.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", pr.name)
}

// fleet is the set of processes one workload runs against.
type fleet struct {
	replicas []*proc
	router   *proc // nil for direct workloads
	target   string
	stopped  bool
}

func (f *fleet) procs() []*proc {
	if f.router == nil {
		return f.replicas
	}
	return append(append([]*proc(nil), f.replicas...), f.router)
}

// stop ends every process and waits for it; stopping twice is harmless.
func (f *fleet) stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	for _, pr := range f.procs() {
		pr.stop()
	}
}

func (f *fleet) cpuSeconds() (float64, error) {
	total := 0.0
	for _, pr := range f.procs() {
		s, err := pr.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func (f *fleet) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, pr := range f.procs() {
		m, err := pr.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// launch writes the workload's database files and starts its servers with
// their default flags: only -addr, -db and -replica are set, so a change
// to any default shows in the numbers. It returns when every process
// answers /healthz.
func launch(p paths, w *workload, basePort int, client *http.Client) (*fleet, error) {
	dbDir := filepath.Join(p.out, "db")
	if err := os.MkdirAll(dbDir, 0o755); err != nil {
		return nil, err
	}
	var dbArgs []string
	for i, g := range w.graphs {
		file := filepath.Join(dbDir, g.name+".db")
		if err := os.WriteFile(file, []byte(w.dbText[i]), 0o644); err != nil {
			return nil, err
		}
		dbArgs = append(dbArgs, "-db", g.name+"="+file)
	}
	f := &fleet{}
	fail := func(err error) (*fleet, error) {
		f.stop()
		return nil, err
	}
	replicas := 1
	if w.routed {
		replicas = 3
	}
	for i := 0; i < replicas; i++ {
		pr, err := start(p, fmt.Sprintf("bvqd-%d", i), "bvqd", fmt.Sprintf("127.0.0.1:%d", basePort+1+i), dbArgs...)
		if err != nil {
			return fail(err)
		}
		f.replicas = append(f.replicas, pr)
	}
	for _, pr := range f.replicas {
		if err := pr.ready(client); err != nil {
			return fail(err)
		}
	}
	f.target = f.replicas[0].url
	if w.routed {
		var args []string
		for _, pr := range f.replicas {
			args = append(args, "-replica", pr.url)
		}
		pr, err := start(p, "bvqrouter", "bvqrouter", fmt.Sprintf("127.0.0.1:%d", basePort), args...)
		if err != nil {
			return fail(err)
		}
		f.router = pr
		if err := pr.ready(client); err != nil {
			return fail(err)
		}
		f.target = pr.url
	}
	return f, nil
}

// counters is one scrape of every process: the class-(a) per-layer figures,
// summed over the replicas. They are counts made by the program, so for a
// fixed op sequence they repeat exactly.
type counters map[string]float64

// The /stats fields the benchmark reads; anything else is ignored.
type statsBody struct {
	Queries, Streams, Coalesced, Shed, Errors float64
	PlanCache                                 cacheBody `json:"plan_cache"`
	ResultCache                               cacheBody `json:"result_cache"`
	Churn                                     struct{ Updates, Carried, Maintained, Invalidated float64 }
	Eval                                      struct {
		SubformulaEvals float64 `json:"subformula_evals"`
		FixIterations   float64 `json:"fix_iterations"`
		TuplesTouched   float64 `json:"tuples_touched"`
		RepSwitches     float64 `json:"rep_switches"`
		AcyclicFastPath float64 `json:"acyclic_fast_path"`
	}
}

type cacheBody struct{ Hits, Misses, Evictions float64 }

var stageNames = []string{"compile", "cache_lookup", "admission_wait", "eval", "extract", "stream_drain"}

// scrape reads /stats and /metrics of every replica (and /metrics of the
// router) and sums them.
func (f *fleet) scrape(client *http.Client) (counters, error) {
	c := counters{}
	for _, pr := range f.replicas {
		var st statsBody
		resp, err := client.Get(pr.url + "/stats")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s /stats: %w", pr.name, err)
		}
		c["server.queries"] += st.Queries
		c["server.streams"] += st.Streams
		c["server.coalesced"] += st.Coalesced
		c["server.shed"] += st.Shed
		c["server.errors"] += st.Errors
		c["cache.plan_hits"] += st.PlanCache.Hits
		c["cache.plan_misses"] += st.PlanCache.Misses
		c["cache.result_hits"] += st.ResultCache.Hits
		c["cache.result_misses"] += st.ResultCache.Misses
		c["cache.result_evictions"] += st.ResultCache.Evictions
		c["cache.carried"] += st.Churn.Carried
		c["cache.maintained"] += st.Churn.Maintained
		c["cache.invalidated"] += st.Churn.Invalidated
		c["database.updates"] += st.Churn.Updates
		c["eval.subformula_evals"] += st.Eval.SubformulaEvals
		c["eval.fix_iterations"] += st.Eval.FixIterations
		c["eval.tuples_touched"] += st.Eval.TuplesTouched
		c["eval.acyclic_fastpath"] += st.Eval.AcyclicFastPath
		c["eval.rep_switches"] += st.Eval.RepSwitches

		fams, err := scrapeMetrics(client, pr.url)
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", pr.name, err)
		}
		for _, fam := range fams {
			if fam.Name != "bvqd_stage_seconds" {
				continue
			}
			for _, s := range fam.Samples {
				if s.Name == "bvqd_stage_seconds_sum" {
					c["stage_seconds."+s.Labels["stage"]] += s.Value
				}
			}
		}
	}
	// Zero on direct workloads: there is no router to count anything.
	c["router.proxied"], c["router.retries"], c["router.hedges"] = 0, 0, 0
	if f.router != nil {
		fams, err := scrapeMetrics(client, f.router.url)
		if err != nil {
			return nil, fmt.Errorf("bvqrouter /metrics: %w", err)
		}
		for _, fam := range fams {
			for _, s := range fam.Samples {
				switch fam.Name {
				case "bvqrouter_proxied_total":
					c["router.proxied"] += s.Value
				case "bvqrouter_retries_total":
					c["router.retries"] += s.Value
				case "bvqrouter_hedges_total":
					c["router.hedges"] += s.Value
				}
			}
		}
	}
	return c, nil
}

func scrapeMetrics(client *http.Client, base string) ([]metrics.Family, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return metrics.ParseText(resp.Body)
}

// minus returns after − before, key by key.
func (after counters) minus(before counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
