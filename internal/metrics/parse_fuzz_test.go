package metrics

import (
	"math"
	"strings"
	"testing"
)

// sameFamilies compares two parses: names, help, type, sample names, label
// sets (nil and empty alike) and values bit for bit, any NaN equal to any.
func sameFamilies(a, b []Family) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, fb := a[i], b[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for j, sa := range fa.Samples {
			sb := fb.Samples[j]
			if sa.Name != sb.Name || labelKey(sa.Labels) != labelKey(sb.Labels) {
				return false
			}
			if math.Float64bits(sa.Value) != math.Float64bits(sb.Value) && !(math.IsNaN(sa.Value) && math.IsNaN(sb.Value)) {
				return false
			}
		}
	}
	return true
}

// FuzzParseText holds the reader and the writer to each other. ParseText
// never panics; whatever it accepts, WriteText writes back to text it
// accepts as the same families; and a Registry whose label values are cut
// from the input (on '|': quotes, backslashes, newlines, invalid UTF-8 and
// all) always writes text that parses back to those values.
func FuzzParseText(f *testing.F) {
	f.Add("# HELP a x\n# TYPE a counter\na{x=\"1,y=2\"} 1\na{x=\"1\",y=\"2\"} 1\n")
	f.Add("# HELP h help with \\\\ and \\n\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum NaN\nh_count 2\n")
	f.Add("# HELP g g\n# TYPE g gauge\ng{v=\"q\\\"uote\"} -0 1700000000\ng{v=\"\"} 1e+06\n")
	f.Add("a|b\"c|d\\e|f\ng|\xff")
	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParseText(strings.NewReader(text))
		if err == nil {
			var out strings.Builder
			if _, err := WriteText(&out, fams); err != nil {
				t.Fatal(err)
			}
			again, err := ParseText(strings.NewReader(out.String()))
			if err != nil {
				t.Fatalf("accepted %q, rejected its rendering %q: %v", text, out.String(), err)
			}
			if !sameFamilies(fams, again) {
				t.Fatalf("%q renders as %q, which reads back as other families", text, out.String())
			}
		}

		r := NewRegistry()
		cv := r.NewCounterVec("fz_total", "fuzzed label values", "v")
		hv := r.NewHistogramVec("fz_seconds", "fuzzed label values", "v", []float64{0.5})
		values := strings.Split(text, "|")
		for i, v := range values[:min(len(values), 8)] {
			cv.With(v).Add(int64(i + 1))
			hv.With(v).Observe(float64(i))
		}
		var out strings.Builder
		if _, err := r.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		fams, err = ParseText(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("registry output does not parse: %v\n%q", err, out.String())
		}
		for _, s := range fams[1].Samples { // fz_total sorts after fz_seconds
			if got, want := s.Value, float64(cv.With(s.Labels["v"]).Value()); got != want {
				t.Fatalf("label value %q reads back with %v, the counter holds %v", s.Labels["v"], got, want)
			}
		}
	})
}
