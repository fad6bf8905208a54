package cache

import (
	"os"
	"strings"
	"testing"
)

// goldenTexts returns the query texts of plan's compile corpus
// (internal/plan/testdata/compile_golden.txt: "digest<TAB>text" lines).
func goldenTexts(tb testing.TB) []string {
	tb.Helper()
	data, err := os.ReadFile("../plan/testdata/compile_golden.txt")
	if err != nil {
		tb.Fatal(err)
	}
	var texts []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		_, text, _ := strings.Cut(line, "\t")
		texts = append(texts, text)
	}
	return texts
}

// BenchmarkCompile prices a first touch: a cold PlanCache.Load (parse,
// compile, footprint and width, the LRU put) of each text of the compile
// corpus in turn, through a cache too small to hold them, so every Load
// misses and evicts as on miss-direct. One op is one text.
func BenchmarkCompile(b *testing.B) {
	texts := goldenTexts(b)
	c := NewPlanCache(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(texts[i%len(texts)])
	}
}

// TestCompileAllocs holds a first touch's allocations down: parse, compile
// and cache one text of each kind on a cold cache (a one-entry cache's own
// few included). The bounds are what the compiler takes (46, 76 and 90) plus
// about 10 %; with string hash-consing and per-binder maps it took 134, 192
// and 216.
func TestCompileAllocs(t *testing.T) {
	for _, tc := range []struct {
		name, text string
		max        float64
	}{
		{"hop3", "(x, y). exists z. (E0(x, z) & (exists x. (E1(z, x) & (E2(x, y)))))", 51},
		{"reach-lfp", "(u). [lfp R(x). S1(x) | (exists z. (E0(z, x) & (exists x. (x = z & R(x)))))](u)", 84},
		{"nested-gfp", "(x). [lfp S(x). P(x) | [gfp T(x). T(x) & [gfp U(x). S(x) & Q(x)](x)](x)](x)", 99},
	} {
		got := testing.AllocsPerRun(50, func() {
			if _, _, err := NewPlanCache(1).Load(tc.text); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %.0f allocations for a cold Load, want at most %.0f", tc.name, got, tc.max)
		}
	}
}
