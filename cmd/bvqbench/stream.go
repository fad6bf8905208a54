package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/workload"
)

// runStreamBench is the -stream mode: the streaming-enumeration story on a
// large-answer acyclic query, as JSON Lines records. The scenario is the
// two-hop join over a random sparse digraph with expected out-degree 8 —
// its answer has ~n·100 tuples, so at n = 10,000 the materialized route
// builds a million-tuple set before the first tuple can leave, while the
// streamed route stops at the sorted head codes (8 B/tuple) and decodes
// tuple one from them.
//
// Three streamed modes ride next to the materialized baseline:
//
//	materialize   full EvalPlanContext — ns/op is also its time-to-first-
//	              tuple, since nothing leaves before the set is complete
//	stream-ttft   EvalPlanEnum + one Next: time-to-first-tuple
//	stream-limit  EvalPlanEnum + Next×k (LIMIT-k): the whole request
//	              without decoding more than k tuples
//	stream-drain  EvalPlanEnum drained to exhaustion — throughput check,
//	              cross-checked tuple-for-tuple count against materialize
//
// EXPERIMENTS.md quotes a run of this mode; `make bench-stream` runs it.
func runStreamBench(quick bool) {
	enc := json.NewEncoder(os.Stdout)
	for _, r := range streamRecords(quick) {
		if err := enc.Encode(r); err != nil {
			die(err)
		}
	}
}

func streamRecords(quick bool) []Record {
	sizes := []int{2000, 10000}
	if quick {
		sizes = []int{500, 2000}
	}
	const limitK = 64
	// degree 10 puts ~n·100 tuples in the answer over only ~n·10 edges: both
	// routes pay for the join, only the materialized one for a Set of the
	// answer, so the gap between them is the point of the benchmark.
	const degree = 10.0
	q := twoHopQuery()
	p, err := plan.Compile(q)
	die(err)
	opts := &eval.Options{Backend: eval.BackendSparse}
	ctx := context.Background()
	var recs []Record
	for _, n := range sizes {
		db := workload.SparseDigraph(int64(n), n, degree)

		// Materialized baseline: the full answer set must exist before the
		// first tuple can be delivered, so ns/op doubles as its TTFT.
		var full int
		var mst *eval.Stats
		ns, reps := measure(func() {
			a, s, err := eval.EvalPlanContext(ctx, p, db, opts)
			die(err)
			full = a.Len()
			mst = s
		})
		rec := Record{Bench: "stream-2hop", Engine: "compiled", Backend: "sparse",
			Mode: "materialize", Query: q.String(), DB: "sparse-digraph", N: n,
			Reps: reps, NsPerOp: ns, Answer: full, Stats: toStatsJSON(mst)}
		rec.PeakHeapBytes, rec.AllocBytes = measureMem(func() {
			_, _, err := eval.EvalPlanContext(ctx, p, db, opts)
			die(err)
		})
		recs = append(recs, rec)

		// Time-to-first-tuple through the enumeration API: enumerator
		// construction (the evaluation to the head codes) plus one Next.
		ns, reps = measure(func() {
			en, _, err := eval.EvalPlanEnum(ctx, p, db, opts)
			die(err)
			if _, ok := en.Next(); !ok {
				die(fmt.Errorf("stream-2hop n=%d: empty stream", n))
			}
			en.Close()
		})
		rec = Record{Bench: "stream-2hop", Engine: "compiled", Backend: "sparse",
			Mode: "stream-ttft", Query: q.String(), DB: "sparse-digraph", N: n,
			Reps: reps, NsPerOp: ns, Answer: 1}
		rec.PeakHeapBytes, rec.AllocBytes = measureMem(func() {
			en, _, err := eval.EvalPlanEnum(ctx, p, db, opts)
			die(err)
			en.Next()
			en.Close()
		})
		recs = append(recs, rec)

		// LIMIT-k: the extraction stops after k tuples; latency and peak heap
		// are the evaluation's, with no decoded answer on top.
		drainK := func() {
			en, _, err := eval.EvalPlanEnum(ctx, p, db, opts)
			die(err)
			for got := 0; got < limitK; got++ {
				if _, ok := en.Next(); !ok {
					die(fmt.Errorf("stream-2hop n=%d: stream dried up before k=%d", n, limitK))
				}
			}
			en.Close()
		}
		ns, reps = measure(drainK)
		rec = Record{Bench: "stream-2hop", Engine: "compiled", Backend: "sparse",
			Mode: "stream-limit", Limit: limitK, Query: q.String(), DB: "sparse-digraph",
			N: n, Reps: reps, NsPerOp: ns, Answer: limitK}
		rec.PeakHeapBytes, rec.AllocBytes = measureMem(drainK)
		recs = append(recs, rec)

		// Full drain: throughput of the streaming route, and the count
		// cross-check that keeps this benchmark honest.
		var streamed int
		var dst *eval.Stats
		ns, reps = measure(func() {
			en, s, err := eval.EvalPlanEnum(ctx, p, db, opts)
			die(err)
			streamed = 0
			for {
				if _, ok := en.Next(); !ok {
					break
				}
				streamed++
			}
			die(en.Err())
			en.Close()
			dst = s
		})
		if streamed != full {
			die(fmt.Errorf("stream-2hop n=%d: streamed %d tuples, materialized %d", n, streamed, full))
		}
		rec = Record{Bench: "stream-2hop", Engine: "compiled", Backend: "sparse",
			Mode: "stream-drain", Query: q.String(), DB: "sparse-digraph", N: n,
			Reps: reps, NsPerOp: ns, Answer: streamed, Stats: toStatsJSON(dst)}
		rec.PeakHeapBytes, rec.AllocBytes = measureMem(func() {
			en, _, err := eval.EvalPlanEnum(ctx, p, db, opts)
			die(err)
			for {
				if _, ok := en.Next(); !ok {
					break
				}
			}
			en.Close()
		})
		recs = append(recs, rec)
	}
	return recs
}
