// Package metrics is a stdlib-only Prometheus client: counters and
// gauges read at scrape time from funcs over existing atomics, and
// fixed-bucket labeled histograms, collected into a Registry that
// renders the Prometheus text exposition format (version 0.0.4) on an
// http.Handler.
//
// It exists so cmd/imaged can expose a scrapeable /metrics endpoint
// without pulling a dependency into a module that is deliberately
// stdlib-only. The surface is the small subset the service needs, with
// the properties a scraper relies on:
//
//   - output is deterministic: families sorted by name, series sorted
//     by label values, histogram buckets cumulative and in order;
//   - metric and label names are validated at registration (panic on
//     programmer error, like prometheus/client_golang);
//   - collection is cheap and lock-light: histograms are atomics,
//     counters and gauges read their source at scrape time.
//
// ParseText is the matching validator/parser: tests use it to prove the
// endpoint's output parses and to pin the metric catalog against a
// golden file without pinning timing-dependent sample values.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Histogram is a fixed-bucket histogram of float64 observations.
// Buckets are cumulative upper bounds; an implicit +Inf bucket catches
// the rest, as the Prometheus format requires.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sumBit atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets not strictly increasing at %v", buckets[i]))
		}
	}
	bounds := append([]float64(nil), buckets...)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBit.Load()
		if h.sumBit.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum and Count return the accumulated totals.
func (h *Histogram) Sum() float64  { return math.Float64frombits(h.sumBit.Load()) }
func (h *Histogram) Count() uint64 { return h.count.Load() }

// DurationBuckets is a general-purpose latency bucket ladder in
// seconds, 1ms to 10s.
var DurationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// kind is the TYPE a family renders as.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// series is one labeled instance within a family.
type series struct {
	labelValues []string
	counterFn   func() uint64
	gaugeFn     func() float64
	hist        *Histogram
}

// family is one named metric with its help, type and series.
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string
	buckets    []float64

	mu       sync.Mutex
	series   []*series
	byLabels map[string]*series
}

// Registry collects families and renders the exposition format.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help string, k kind, labelNames []string, buckets []float64) *family {
	if !nameRe.MatchString(name) {
		panic("metrics: invalid metric name " + name)
	}
	for _, l := range labelNames {
		if !labelRe.MatchString(l) || strings.HasPrefix(l, "__") {
			panic("metrics: invalid label name " + l)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("metrics: duplicate registration of " + name)
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       k,
		labelNames: append([]string(nil), labelNames...),
		buckets:    buckets,
		byLabels:   make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func (f *family) with(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labelNames), len(labelValues)))
	}
	sig := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.byLabels[sig]; s != nil {
		return s
	}
	s := &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == kindHistogram {
		s.hist = newHistogram(f.buckets)
	}
	f.byLabels[sig] = s
	f.series = append(f.series, s)
	return s
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time — the bridge to counters that already live in another
// subsystem's atomics (the admission gate, the cache).
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, kindCounter, nil, nil).with(nil).counterFn = fn
}

// NewGaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, nil, nil).with(nil).gaugeFn = fn
}

// CounterFuncVec adds a func-backed series per label set.
type CounterFuncVec struct{ f *family }

// NewCounterFuncVec registers a labeled counter family whose series are
// each read from their own func at scrape time.
func (r *Registry) NewCounterFuncVec(name, help string, labelNames ...string) *CounterFuncVec {
	return &CounterFuncVec{r.register(name, help, kindCounter, labelNames, nil)}
}

// Bind attaches fn as the series for the label values.
func (v *CounterFuncVec) Bind(fn func() uint64, labelValues ...string) {
	v.f.with(labelValues).counterFn = fn
}

// GaugeFuncVec adds a func-backed gauge series per label set.
type GaugeFuncVec struct{ f *family }

// NewGaugeFuncVec registers a labeled gauge family whose series are
// each read from their own func at scrape time.
func (r *Registry) NewGaugeFuncVec(name, help string, labelNames ...string) *GaugeFuncVec {
	return &GaugeFuncVec{r.register(name, help, kindGauge, labelNames, nil)}
}

// Bind attaches fn as the series for the label values.
func (v *GaugeFuncVec) Bind(fn func() float64, labelValues ...string) {
	v.f.with(labelValues).gaugeFn = fn
}

// HistogramVec is a family of histograms partitioned by labels.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labelNames, append([]float64(nil), buckets...))}
}

// With returns (creating on first use) the histogram for the label
// values. Pre-create every expected label set at startup so the
// exposed catalog is complete before traffic arrives.
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.with(labelValues).hist }

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

func escapeLabel(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(s)
}

// labelString renders {k="v",...}; extra appends one more pair (le for
// histogram buckets). Empty label sets render as no braces at all.
func labelString(names, values []string, extraName, extraValue string) string {
	var parts []string
	for i, n := range names {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, n, escapeLabel(values[i])))
	}
	if extraName != "" {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, extraName, extraValue))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteTo renders the registry in the text exposition format:
// deterministic order (families by name, series by label values), HELP
// and TYPE headers, cumulative histogram buckets with +Inf, _sum and
// _count.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		sers := append([]*series(nil), f.series...)
		f.mu.Unlock()
		sort.Slice(sers, func(i, j int) bool {
			return strings.Join(sers[i].labelValues, "\x00") < strings.Join(sers[j].labelValues, "\x00")
		})
		for _, s := range sers {
			ls := labelString(f.labelNames, s.labelValues, "", "")
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatValue(float64(s.counterFn())))
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatValue(s.gaugeFn()))
			case kindHistogram:
				h := s.hist
				var cum uint64
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						labelString(f.labelNames, s.labelValues, "le", formatValue(bound)), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelString(f.labelNames, s.labelValues, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, ls, formatValue(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, ls, h.Count())
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Handler serves the registry as a scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
