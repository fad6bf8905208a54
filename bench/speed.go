package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The sandbox this benchmark is calibrated on does not run at one speed:
// the CPU time the servers need for the same op drifts by a quarter over an
// hour and by several percent from run to run (neighbours on the host; it
// is not reported as steal), and every time-based metric drifts with it.
// The speedometer measures that drift while the measured phase runs, with
// work that does not depend on the program under test: a goroutine locked
// to its own thread repeats one cycle — a fixed unit of work, then a 2 ms
// timer sleep — and reads the thread's CPU time at the start and at the
// end. CPU time per cycle (about a quarter the unit, the rest the kernel
// putting the thread to sleep and waking it, which is what a server thread
// does between requests) is how slow the machine was; dividing by
// nominalUnit gives the factor by which the time-based metrics are scaled
// to nominal speed.
//
// It is measured in the thread's CPU time, not wall time, so that waiting
// for a core does not count, and over the whole phase: a single cycle, or
// the cycles of one block, are far too noisy to correct anything.

// nominalUnit is the CPU time of one cycle on the calibration sandbox at
// its usual pace. It only fixes the scale of the reported figures.
const nominalUnit = 100 * time.Microsecond

const rusageThread = 1 // RUSAGE_THREAD

type speedometer struct {
	stop chan struct{}
	done chan time.Duration // CPU time per unit
}

// unitOfWork allocates, hashes, sorts and encodes a few hundred rows: the
// mix the servers spend their time on.
func unitOfWork(sink *uint64) {
	rows := make([][]int, 0, 192)
	seen := map[int]int{}
	for i := 0; i < 192; i++ {
		rows = append(rows, []int{i * 37 % 64, i * 11 % 64})
		seen[i*31%257] += i
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i][0] != rows[j][0] {
			return rows[i][0] < rows[j][0]
		}
		return rows[i][1] < rows[j][1]
	})
	b, _ := json.Marshal(rows) // ints only: cannot fail
	*sink += fnvAdd(fnvOffset, b) + uint64(len(seen))
}

func threadCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru) // fails only for a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan time.Duration, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var sink uint64
		units := 0
		start := threadCPU()
		for {
			select {
			case <-s.stop:
				s.done <- (threadCPU() - start) / time.Duration(max(units, 1))
				return
			default:
			}
			unitOfWork(&sink)
			units++
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return s
}

// finish stops the speedometer and returns the slowness factor of the
// phase: above 1 when the machine ran slower than nominal.
func (s *speedometer) finish() float64 {
	close(s.stop)
	return float64(<-s.done) / float64(nominalUnit)
}
