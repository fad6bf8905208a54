package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// quartiles are the cut points of Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), which is what the acceptance procedure uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadStats summarises the repeats of one metric on one workload.
type spreadStats struct {
	median, q1, q3 float64
	spread         float64 // (q3 − q1) ÷ median
	maxDev         float64 // max |x − median| ÷ median
	n              int
}

func summarizeRepeats(xs []float64) spreadStats {
	q1, q2, q3 := quartiles(xs)
	st := spreadStats{median: q2, q1: q1, q3: q3, n: len(xs)}
	if q2 != 0 {
		st.spread = (q3 - q1) / q2
		for _, x := range xs {
			st.maxDev = math.Max(st.maxDev, math.Abs(x-q2)/q2)
		}
	}
	return st
}

// calibrateAll measures how well the benchmark agrees with itself: two
// sets of n runs per workload on one tree, each run with another seed (as
// the acceptance procedure does), and writes CALIBRATION.md next to the
// sources with, per workload and end-to-end metric, both sets' medians and
// quartiles, the spread, the largest deviation, and the bound that follows.
func calibrateAll(p paths, opt options, n int) error {
	if n < 6 {
		return fmt.Errorf("-calibrate needs at least 6 runs per set, got %d", n)
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	digests := map[string]bool{}
	for set := range sets {
		for _, name := range workloadNames {
			for i := 0; i < n; i++ {
				o := opt
				o.workload, o.seed = name, uint64(1+i)
				res, err := runWorkload(p, o)
				if err != nil {
					return err
				}
				if res.failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed: %v", name, o.seed, res.failed, res.attempted, res.failures)
				}
				digests[fmt.Sprintf("%s/%d/%s", name, o.seed, res.digest)] = true
				for _, m := range endToEnd {
					k := key{name, m.name}
					sets[set][k] = append(sets[set][k], res.values[m.name])
					if raw, ok := res.values["raw."+m.name]; ok {
						k.metric = "raw." + m.name
						sets[set][k] = append(sets[set][k], raw)
					}
				}
				fmt.Printf("calibrate set %d %s seed %d: ops_per_s %.1f p50_ms %.3f\n", set+1, name, o.seed, res.values["ops_per_s"], res.values["p50_ms"])
			}
		}
	}
	if len(digests) != n*len(workloadNames) {
		return fmt.Errorf("workload digests differ between the two sets: %d distinct, want %d", len(digests), n*len(workloadNames))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Calibration\n\n")
	fmt.Fprintf(&b, "Written by `go -C bench run repro/bench -calibrate %d` (measured phase %d s, %d closed-loop clients, %d set-ups per run).\n",
		n, opt.seconds, defaultClients(), opt.setups)
	fmt.Fprintf(&b, "Two sets of %d runs per workload on one unchanged tree; run i of each set uses seed i.\n", n)
	fmt.Fprintf(&b, "Every workload digest was identical between the sets. `spread` is (Q3 − Q1) ÷ median with the\n")
	fmt.Fprintf(&b, "quartiles of Python's `statistics.quantiles(values, n=4)`; `max dev` is the largest |value − median| ÷ median;\n")
	fmt.Fprintf(&b, "`shift` is how much worse the second set's median is than the first's (negative: better).\n")
	fmt.Fprintf(&b, "`bound` is max(5 %%, 3 × spread, 2 × max dev) over both sets, rounded up to a whole percent and capped at 25 %%;\n")
	fmt.Fprintf(&b, "`setup_s` takes the largest bound regardless.\n")
	for _, name := range workloadNames {
		fmt.Fprintf(&b, "\n## %s\n\n", name)
		fmt.Fprintf(&b, "| metric | unit | set | median | Q1 | Q3 | spread | max dev | n | shift | bound |\n|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range endToEnd {
			k := key{name, m.name}
			a, c := summarizeRepeats(sets[0][k]), summarizeRepeats(sets[1][k])
			shift := (c.median - a.median) / a.median
			if m.better == "higher" {
				shift = -shift
			}
			bound := math.Max(0.05, math.Max(3*math.Max(a.spread, c.spread), 2*math.Max(a.maxDev, c.maxDev)))
			bound = math.Min(math.Ceil(bound*100-1e-9)/100, 0.25)
			for i, st := range []spreadStats{a, c} {
				shiftCell, boundCell := "", ""
				if i == 1 {
					shiftCell, boundCell = fmt.Sprintf("%+.1f %%", shift*100), fmt.Sprintf("%.0f %%", bound*100)
				}
				fmt.Fprintf(&b, "| %s | %s | %d | %.4g | %.4g | %.4g | %.1f %% | %.1f %% | %d | %s | %s |\n",
					m.name, m.unit, i+1, st.median, st.q1, st.q3, st.spread*100, st.maxDev*100, st.n, shiftCell, boundCell)
			}
		}
	}
	fmt.Fprintf(&b, "\n## The same runs without the speed correction\n\n")
	fmt.Fprintf(&b, "The figures as measured, before they are scaled to nominal machine speed (speed.go): what the\n")
	fmt.Fprintf(&b, "bounds would have to absorb without it. Spread of set 1 / set 2, and the shift between the sets.\n\n")
	fmt.Fprintf(&b, "| workload | metric | spread | shift |\n|---|---|---|---|\n")
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			k := key{name, "raw." + m.name}
			if len(sets[0][k]) == 0 {
				continue
			}
			a, c := summarizeRepeats(sets[0][k]), summarizeRepeats(sets[1][k])
			shift := (c.median - a.median) / a.median
			if m.better == "higher" {
				shift = -shift
			}
			fmt.Fprintf(&b, "| %s | %s | %.1f %% / %.1f %% | %+.1f %% |\n", name, m.name, a.spread*100, c.spread*100, shift*100)
		}
	}
	file := filepath.Join(filepath.Dir(p.out), "CALIBRATION.md")
	if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", file)
	return nil
}
