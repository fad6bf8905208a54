// Package metrics is a small, stdlib-only instrumentation registry with
// Prometheus text-format exposition (version 0.0.4). It exists so bvqd can
// expose per-engine latency, cache effectiveness, coalescing, admission
// control and panic-recovery counters on GET /metrics without pulling in a
// client library.
//
// The model is a cut-down prometheus/client_golang:
//
//   - Counter / Gauge — atomic int64 instruments;
//   - Histogram — fixed upper-bound buckets with cumulative exposition
//     (_bucket{le=...}, _sum, _count);
//   - CounterVec / HistogramVec — one child instrument per label value,
//     created on first use;
//   - CounterFunc / GaugeFunc — read-at-scrape-time collectors, so values
//     that already live in atomic counters elsewhere (cache hit counts,
//     in-flight gauges, queue depth) are exposed without double bookkeeping.
//
// All instruments are safe for concurrent use. Registration happens at
// construction time and panics on a duplicate family name — wiring bugs
// should fail at startup, not at scrape time. WriteText is the one writer of
// the format and ParseText (parse.go) the matching reader, used by the
// exposition-format tests, bvqbench -scrape and bvqload; Merge sums parsed
// expositions into the router's fleet page.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency buckets in seconds, spanning the
// sub-millisecond dense-kernel hits through multi-second PFP runs.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Registry holds metric families and renders them in Prometheus text format.
// Construct with NewRegistry; the zero value is not usable.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

type family struct {
	name, help, typ string
	collect         func() []Sample
}

// Sample is one exposition line: a sample name (the family name, or the
// family name with a _bucket/_sum/_count suffix for histograms), its label
// pairs, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, collect func() []Sample) {
	if name == "" || !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric family %q", name))
	}
	f := &family{name: name, help: help, typ: typ, collect: collect}
	r.families[name] = f
	r.order = append(r.order, f)
}

func validMetricName(name string) bool {
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d, which must be non-negative.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// NewCounter creates and registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func() []Sample {
		return []Sample{{Name: name, Value: float64(c.Value())}}
	})
	return c
}

// NewCounterFunc registers a counter whose value is read at scrape time.
// fn must be monotonically non-decreasing and safe for concurrent use.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.register(name, help, "counter", func() []Sample {
		return []Sample{{Name: name, Value: float64(fn())}}
	})
}

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NewGauge creates and registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func() []Sample {
		return []Sample{{Name: name, Value: float64(g.Value())}}
	})
	return g
}

// NewGaugeFunc registers a gauge whose value is read at scrape time.
// fn must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) {
	r.register(name, help, "gauge", func() []Sample {
		return []Sample{{Name: name, Value: float64(fn())}}
	})
}

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket is always present. Observation is
// two atomic adds and a CAS loop for the float sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus +Inf at the end
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// samples renders the histogram in cumulative Prometheus form under name
// with the given base labels.
func (h *Histogram) samples(name string, base map[string]string) []Sample {
	out := make([]Sample, 0, len(h.bounds)+3)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, Sample{Name: name + "_bucket", Labels: withLabel(base, "le", formatFloat(b)), Value: float64(cum)})
	}
	cum += h.counts[len(h.bounds)].Load()
	out = append(out,
		Sample{Name: name + "_bucket", Labels: withLabel(base, "le", "+Inf"), Value: float64(cum)},
		Sample{Name: name + "_sum", Labels: base, Value: math.Float64frombits(h.sum.Load())},
		Sample{Name: name + "_count", Labels: base, Value: float64(h.count.Load())},
	)
	return out
}

// CounterVec is a family of counters keyed by the value of one label.
type CounterVec struct {
	label string
	mu    sync.Mutex
	kids  map[string]*Counter
}

// With returns the child counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[value]
	if !ok {
		c = &Counter{}
		v.kids[value] = c
	}
	return c
}

// Sum returns the total over every label value.
func (v *CounterVec) Sum() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var n int64
	for _, c := range v.kids {
		n += c.Value()
	}
	return n
}

func (v *CounterVec) sortedKeys() []string {
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// NewCounterVec creates and registers a label-partitioned counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, kids: make(map[string]*Counter)}
	r.register(name, help, "counter", func() []Sample {
		v.mu.Lock()
		defer v.mu.Unlock()
		out := make([]Sample, 0, len(v.kids))
		for _, k := range v.sortedKeys() {
			out = append(out, Sample{Name: name, Labels: map[string]string{v.label: k}, Value: float64(v.kids[k].Value())})
		}
		return out
	})
	return v
}

// HistogramVec is a family of histograms keyed by the value of one label.
type HistogramVec struct {
	label  string
	bounds []float64
	mu     sync.Mutex
	kids   map[string]*Histogram
}

// With returns the child histogram for the given label value, creating it
// on first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.kids[value]
	if !ok {
		h = newHistogram(v.bounds)
		v.kids[value] = h
	}
	return h
}

// NewHistogramVec creates and registers a label-partitioned histogram
// family (nil buckets means DefBuckets).
func (r *Registry) NewHistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	v := &HistogramVec{label: label, bounds: append([]float64(nil), buckets...), kids: make(map[string]*Histogram)}
	r.register(name, help, "histogram", func() []Sample {
		v.mu.Lock()
		keys := make([]string, 0, len(v.kids))
		for k := range v.kids {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		kids := make([]*Histogram, len(keys))
		for i, k := range keys {
			kids[i] = v.kids[k]
		}
		v.mu.Unlock()
		var out []Sample
		for i, k := range keys {
			out = append(out, kids[i].samples(name, map[string]string{v.label: k})...)
		}
		return out
	})
	return v
}

// Families returns the registered family names in sorted order — the
// ground truth the metrics-documentation lint test compares OPERATIONS.md
// against.
func (r *Registry) Families() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// WriteTo renders every registered family through WriteText, families
// sorted by name.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	regs := make([]*family, len(r.order))
	copy(regs, r.order)
	r.mu.Unlock()
	sort.Slice(regs, func(i, j int) bool { return regs[i].name < regs[j].name })
	fams := make([]Family, len(regs))
	for i, f := range regs {
		fams[i] = Family{Name: f.name, Help: f.help, Type: f.typ, Samples: f.collect()}
	}
	return WriteText(w, fams)
}

// WriteText renders families in Prometheus text format, in the order given:
// each family's # HELP and # TYPE lines, then its samples. It is the one
// writer of the format — Registry.WriteTo and the router's fleet page both
// end here — and what ParseText accepts it writes back as the same families.
func WriteText(w io.Writer, fams []Family) (int64, error) {
	var b strings.Builder
	for _, f := range fams {
		b.WriteString("# HELP " + f.Name + " ")
		b.WriteString(escapeHelp(f.Help))
		b.WriteString("\n# TYPE " + f.Name + " " + f.Type + "\n")
		for _, s := range f.Samples {
			b.WriteString(s.Name)
			writeLabels(&b, s.Labels)
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.Value))
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Merge adds several expositions into one, as a fleet total: families in
// first-seen order with the help and type they were first seen with, and
// samples with the same name and label set summed, in first-seen order.
// Counters and gauges add; histogram buckets add bucket-wise, which is exact
// when every input uses the same bounds.
func Merge(sets ...[]Family) []Family {
	var out []Family
	famAt := make(map[string]int)
	type series struct {
		fam int
		id  string // sample name and labelKey
	}
	sampleAt := make(map[series]int)
	for _, fams := range sets {
		for _, f := range fams {
			i, ok := famAt[f.Name]
			if !ok {
				i = len(out)
				famAt[f.Name] = i
				out = append(out, Family{Name: f.Name, Help: f.Help, Type: f.Type})
			}
			for _, s := range f.Samples {
				key := series{i, s.Name + labelKey(s.Labels)}
				if j, ok := sampleAt[key]; ok {
					out[i].Samples[j].Value += s.Value
				} else {
					sampleAt[key] = len(out[i].Samples)
					out[i].Samples = append(out[i].Samples, s)
				}
			}
		}
	}
	return out
}

// ServeHTTP exposes the registry as a Prometheus scrape target.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WriteTo(w) // the scraper is gone if this fails; nothing to do
}

// labelKey is a label set as writeLabels writes it, {k="v",...} with the
// names sorted and the values escaped: equal exactly when the sets are.
func labelKey(labels map[string]string) string {
	var b strings.Builder
	writeLabels(&b, labels)
	return b.String()
}

func writeLabels(b *strings.Builder, labels map[string]string) {
	if len(labels) == 0 {
		return
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func withLabel(base map[string]string, k, v string) map[string]string {
	out := make(map[string]string, len(base)+1)
	for bk, bv := range base {
		out[bk] = bv
	}
	out[k] = v
	return out
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
