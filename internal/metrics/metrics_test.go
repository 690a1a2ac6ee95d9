package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

// parse renders the registry and round-trips it through the validator —
// every test doubles as a format-validity check.
func parse(t *testing.T, r *Registry) map[string]Family {
	t.Helper()
	fams, err := ParseText(strings.NewReader(render(t, r)))
	if err != nil {
		t.Fatalf("registry output does not parse: %v\n%s", err, render(t, r))
	}
	out := make(map[string]Family, len(fams))
	for _, f := range fams {
		out[f.Name] = f
	}
	return out
}

func TestFuncBackedCollectors(t *testing.T) {
	r := NewRegistry()
	n := uint64(7)
	v := 2.25
	r.NewCounterFunc("external_total", "Counter read from elsewhere.", func() uint64 { return n })
	r.NewGaugeFunc("external_value", "Gauge read from elsewhere.", func() float64 { return v })
	vec := r.NewCounterFuncVec("external_events_total", "Labeled func counters.", "kind")
	a, b := uint64(1), uint64(2)
	vec.Bind(func() uint64 { return a }, "alpha")
	vec.Bind(func() uint64 { return b }, "beta")

	fams := parse(t, r)
	if f := fams["external_total"]; f.Type != "counter" || f.Help != "Counter read from elsewhere." || f.Samples[0].Value != 7 {
		t.Errorf("counter family = %+v", f)
	}
	if f := fams["external_value"]; f.Type != "gauge" || f.Samples[0].Value != 2.25 {
		t.Errorf("gauge family = %+v", f)
	}
	// Scrape-time reads: mutate the sources, re-render.
	n, v, a = 8, 9.5, 10
	fams = parse(t, r)
	if fams["external_total"].Samples[0].Value != 8 || fams["external_value"].Samples[0].Value != 9.5 {
		t.Errorf("func-backed collectors cached their first read")
	}
	evs := fams["external_events_total"].Samples
	if len(evs) != 2 || evs[0].Labels["kind"] != "alpha" || evs[0].Value != 10 || evs[1].Value != 2 {
		t.Errorf("labeled func counters = %+v", evs)
	}
}

func TestVecSeriesIdentityAndOrder(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("op_seconds", "Op latency by kind.", []float64{1}, "kind")
	if hv.With("read") != hv.With("read") {
		t.Error("same labels returned different series")
	}
	hv.With("write").Observe(0.5)
	vec := r.NewCounterFuncVec("ops_total", "Ops by kind.", "kind")
	vec.Bind(func() uint64 { return 2 }, "write")
	vec.Bind(func() uint64 { return 1 }, "read")
	gv := r.NewGaugeFuncVec("temp", "Labeled gauge.", "zone")
	gv.Bind(func() float64 { return 2 }, "b")
	gv.Bind(func() float64 { return 1 }, "a")

	out := render(t, r)
	// Series sorted by label value regardless of creation order.
	if strings.Index(out, `op_seconds_count{kind="read"}`) > strings.Index(out, `op_seconds_count{kind="write"}`) {
		t.Errorf("histogram series not sorted:\n%s", out)
	}
	if strings.Index(out, `ops_total{kind="read"}`) > strings.Index(out, `ops_total{kind="write"}`) {
		t.Errorf("counter series not sorted:\n%s", out)
	}
	if strings.Index(out, `temp{zone="a"}`) > strings.Index(out, `temp{zone="b"}`) {
		t.Errorf("gauge series not sorted:\n%s", out)
	}
	// Families sorted by name, deterministically.
	if out != render(t, r) {
		t.Error("output not deterministic")
	}
	if strings.Index(out, "# TYPE ops_total") > strings.Index(out, "# TYPE temp") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("latency_seconds", "Latency.", []float64{0.01, 0.1, 1}).With()
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 3} {
		h.Observe(v)
	}
	if h.Count() != 6 || math.Abs(h.Sum()-5.565) > 1e-9 {
		t.Errorf("count %d sum %v, want 6 / 5.565", h.Count(), h.Sum())
	}
	fams := parse(t, r) // validator enforces cumulative + +Inf == _count
	var got []float64
	for _, s := range fams["latency_seconds"].Samples {
		if s.Name == "latency_seconds_bucket" {
			got = append(got, s.Value)
		}
	}
	want := []float64{2, 3, 4, 6} // le=0.01, 0.1, 1, +Inf (boundary 0.01 counts in its bucket)
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHistogramVecPerLabel(t *testing.T) {
	r := NewRegistry()
	vec := r.NewHistogramVec("decode_seconds", "Decode latency by scale.", []float64{0.01, 0.1}, "scale")
	for _, s := range []string{"1", "1/2", "1/4", "1/8"} {
		vec.With(s) // pre-created: catalog complete before traffic
	}
	vec.With("1/2").Observe(0.05)
	fams := parse(t, r)
	f := fams["decode_seconds"]
	counts := map[string]float64{}
	for _, s := range f.Samples {
		if s.Name == "decode_seconds_count" {
			counts[s.Labels["scale"]] = s.Value
		}
	}
	if len(counts) != 4 || counts["1/2"] != 1 || counts["1"] != 0 {
		t.Errorf("per-scale counts = %v", counts)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	vec := r.NewGaugeFuncVec("weird", `Help with \ backslash
and newline.`, "path")
	vec.Bind(func() float64 { return 1 }, `a"b\c`+"\n"+`d`)
	fams := parse(t, r)
	s := fams["weird"].Samples[0]
	if s.Labels["path"] != `a"b\c`+"\n"+`d` {
		t.Errorf("label round-trip = %q", s.Labels["path"])
	}
	if !strings.Contains(render(t, r), `\n`) {
		t.Error("newline not escaped in output")
	}
}

func TestSpecialValues(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("inf_value", "An infinity.", func() float64 { return math.Inf(1) })
	out := render(t, r)
	if !strings.Contains(out, "inf_value +Inf") {
		t.Errorf("infinity rendered wrong:\n%s", out)
	}
	fams := parse(t, r)
	if !math.IsInf(fams["inf_value"].Samples[0].Value, 1) {
		t.Error("infinity did not round-trip")
	}
}

func TestRegistrationPanics(t *testing.T) {
	for name, f := range map[string]func(*Registry){
		"bad metric name":   func(r *Registry) { r.NewCounterFunc("bad-name", "", nil) },
		"bad label name":    func(r *Registry) { r.NewCounterFuncVec("ok_total", "", "bad-label") },
		"reserved label":    func(r *Registry) { r.NewGaugeFuncVec("ok", "", "__name__") },
		"duplicate family":  func(r *Registry) { r.NewCounterFunc("twice", "", nil); r.NewGaugeFunc("twice", "", nil) },
		"wrong label count": func(r *Registry) { r.NewHistogramVec("v", "", nil, "a", "b").With("only-one") },
		"unsorted buckets":  func(r *Registry) { r.NewHistogramVec("h", "", []float64{1, 1}).With() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f(NewRegistry())
		}()
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	vec := r.NewHistogramVec("h_seconds", "", DurationBuckets, "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				vec.With([]string{"a", "b"}[g%2]).Observe(float64(i%7) * 0.001)
			}
		}(g)
	}
	wg.Wait()
	if a, b := vec.With("a").Count(), vec.With("b").Count(); a != 4000 || b != 4000 {
		t.Errorf("lost updates: %d + %d observations, want 4000 each", a, b)
	}
	parse(t, r)
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounterFunc("x_total", "X.", func() uint64 { return 1 })
	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if _, err := ParseText(rr.Body); err != nil {
		t.Errorf("handler output invalid: %v", err)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"type after samples":  "a_total 1\n# TYPE a_total counter\n",
		"duplicate type":      "# TYPE a counter\n# TYPE a counter\n",
		"unknown type":        "# TYPE a widget\n",
		"bad sample name":     "9metric 1\n",
		"bad value":           "a_total one\n",
		"two values":          "a_total 1 2 3\n",
		"unterminated labels": "a_total{k=\"v\" 1\n",
		"unquoted label":      "a_total{k=v} 1\n",
		"duplicate label":     "a_total{k=\"1\",k=\"2\"} 1\n",
		"bad escape":          `a_total{k="\q"} 1` + "\n",
		"junk after label":    "a_total{k=\"v\"x} 1\n",
		"histogram no inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram shrinks":   "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf not count":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"bare histogram":      "# TYPE h histogram\nh 3\n",
		"missing sum":         "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	} {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, in)
		}
	}
	// And the shapes that must stay legal.
	for name, in := range map[string]string{
		"plain comment":   "# just a note\na_total 1\n",
		"untyped sample":  "free_form 1\n",
		"special values":  "g +Inf\nh -Inf\nn NaN\n",
		"blank lines":     "\n\na_total 1\n\n",
		"trailing \\r":    "a_total 1\r\n",
		"empty label set": "a_total{} 1\n",
	} {
		if _, err := ParseText(strings.NewReader(in)); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}
