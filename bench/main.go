// Command bench is the repository's benchmark: it builds the real bvqd and
// bvqrouter binaries from the tree it sits in, starts them with their
// default flags, drives them over loopback HTTP with a closed loop of
// min(nproc, 2) clients, checks every answer against an oracle of its own,
// and prints every metric by name and unit. README.md in this directory
// explains the workloads, the metrics and how they interact.
//
//	go -C bench run repro/bench --workload hot-direct --seed 1 --seconds 20 --trace 0
//	go -C bench run repro/bench -selfcheck        determinism proof
//	go -C bench run repro/bench -calibrate 10     write bench/CALIBRATION.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "one of hot-direct, hot-routed, miss-direct, churn-direct")
	seed := flag.Int64("seed", 1, "seed of the generated databases, texts and op sequences")
	flag.IntVar(&opt.seconds, "seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics (a fixed-work run plus in-process layer timing) instead of the end-to-end ones")
	flag.IntVar(&opt.basePort, "base-port", 18080, "first of five loopback ports (router, then replicas)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice at 1/20 length with one client and fail unless digests and server counters repeat exactly")
	calibrate := flag.Int("calibrate", 0, "run every workload N times (N ≥ 6), each with another seed, and write CALIBRATION.md")
	flag.Parse()
	opt.trace, opt.seed = *trace != 0, uint64(*seed)
	opt.scale, opt.setups = 1, 3

	p, err := findPaths()
	if err == nil {
		err = buildServers(p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	switch {
	case *selfcheck:
		err = selfCheck(p, opt)
	case *calibrate > 0:
		err = calibrateAll(p, opt, *calibrate)
	default:
		err = runOnce(p, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOnce is the driver's entry: one workload, one result line.
func runOnce(p paths, opt options) error {
	res, err := runWorkload(p, opt)
	if err != nil {
		return err
	}
	printResult(res)
	names := endToEnd
	if opt.trace {
		names = perLayer
	}
	fmt.Println(string(resultLine(res, names)))
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	return nil
}

func printResult(res *result) {
	names := make([]string, 0, len(res.values))
	for name := range res.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s/%s %.4f %s (n=%d)\n", res.workload, name, res.values[name], unitOf(name), res.counts[name])
	}
	for _, f := range res.failures {
		fmt.Println("# failed:", f)
	}
}

// resultLine renders the line the driver reads: the named metrics, and
// whether every answer was right.
func resultLine(res *result, names []metric) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range names {
		out.Metrics[m.name] = value{res.values[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // numbers and strings only
	}
	return line
}

// selfCheck is the determinism proof: every workload twice at 1/20 length,
// in fixed-work mode with a single client, so that every server counter is
// a function of the op sequence alone. The two runs must agree on the
// workload digest and on every counter; a racy generator, a text that
// depends on the time or routing that depends on the port would show here.
func selfCheck(p paths, opt options) error {
	opt.scale, opt.clients, opt.setups, opt.trace = 20, 1, 1, false
	for _, name := range workloadNames {
		opt.workload = name
		w, err := generate(name, opt.seed, opt.clients, opt.scale)
		if err != nil {
			return err
		}
		opt.ops = len(w.seqs[0])
		var first *result
		for run := 0; run < 2; run++ {
			res, err := runWorkload(p, opt)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed: %v", name, res.failed, res.attempted, res.failures)
			}
			if first == nil {
				first = res
				continue
			}
			if res.digest != first.digest {
				return fmt.Errorf("%s: workload digest %s, then %s", name, first.digest, res.digest)
			}
			compared := 0
			for key, v := range first.counters {
				if strings.HasPrefix(key, "stage_seconds.") {
					continue // a time, not a count
				}
				compared++
				if res.counters[key] != v {
					return fmt.Errorf("%s: counter %s was %v, then %v", name, key, v, res.counters[key])
				}
			}
			fmt.Printf("selfcheck %s: digest %s and %d counters identical over 2 runs of %d ops\n", name, res.digest, compared, res.attempted)
		}
	}
	return nil
}
