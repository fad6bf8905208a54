package server

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/eval"
	"repro/internal/relation"
)

// FuzzAppendRows checks the writers' append encoder against encoding/json:
// for any arity, domain values (negative and 64-bit ones included), choice of
// values or indices, and offset/limit window, the bytes appendRows renders
// from a cursor over the answer — compact or not — are json.Marshal's of the
// same window as [][]int. It also checks the stream's cut of a hit's stored
// text: the whole answer's rows, cut by drainText as writeStream cuts them,
// are appendRow of each tuple, line by line. The seed corpus is
// testdata/fuzz/FuzzAppendRows.
func FuzzAppendRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, base, step int64, arity, size uint8, indices bool, offset, limit uint16) {
		k, n := int(arity%4), 1+int(size%16)
		values := make([]int, n)
		for i := range values {
			values[i] = int(base + int64(i)*step)
		}
		set := relation.NewSet(k)
		for ; len(data) >= max(k, 1); data = data[max(k, 1):] {
			tp := make(relation.Tuple, k)
			for j := range tp {
				tp[j] = int(data[j]) % n
			}
			set.Add(tp)
		}
		value := func(i int) int { return values[i] }
		if indices {
			value = nil
		}

		want := [][]int{}
		sorted := set.Tuples()
		sorted = sorted[min(int(offset), len(sorted)):]
		if limit > 0 {
			sorted = sorted[:min(int(limit), len(sorted))]
		}
		for _, tp := range sorted {
			row := make([]int, k)
			for j, v := range tp {
				if row[j] = v; !indices {
					row[j] = values[v]
				}
			}
			want = append(want, row)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, view := range []relation.View{relation.Compact(set, n), set} {
			en := eval.NewEnumerator(context.Background(), view, nil)
			got := appendRows(nil, en, int(offset), int(limit), value)
			en.Close()
			if string(got) != string(wantJSON) {
				t.Fatalf("%T, k=%d n=%d indices=%v window %d+%d:\n appendRows   %s\n encoding/json %s",
					view, k, n, indices, offset, limit, got, wantJSON)
			}
		}

		en := eval.NewEnumerator(context.Background(), set, nil)
		whole := appendRows(nil, en, 0, 0, value)
		en.Close()
		tuples := set.Tuples()
		var wd windowed
		wd.drainText(whole, func(row []byte) bool {
			if i := int(wd.delivered); i >= len(tuples) || string(row) != string(appendRow(nil, tuples[i], value)) {
				t.Fatalf("k=%d n=%d indices=%v: line %d of %s is %q; want appendRow of tuple %d of %d", k, n, indices, i, whole, row, i, len(tuples))
			}
			return true
		})
		if wd.delivered != int64(len(tuples)) {
			t.Fatalf("k=%d n=%d indices=%v: %s cut into %d lines, want %d", k, n, indices, whole, wd.delivered, len(tuples))
		}
	})
}
