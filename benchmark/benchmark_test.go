package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// runner re-executes its own executable for every workload window, and a
// process started that way runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// smokeCorpus is a few small images per workload: enough to reach every
// code path of the harness in seconds.
var smokeCorpus = corpusSize{gallery: 8, hot: 4, cold: 2, cut: 2, div: 4}

// TestSmoke runs all five workloads end to end, timed rounds and traced
// pass, on the reduced corpus, and checks that every metric of the
// catalogue comes out once, with a unit, finite, and that no op failed.
// It asserts nothing about the timings themselves, so it holds under the
// race detector too.
func TestSmoke(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &runConfig{
		seed: 7, workloads: workloadNames(), rounds: 1, window: 300 * time.Millisecond,
		traced: true, segment: 300 * time.Millisecond,
		workers: 2, rate: 200, size: smokeCorpus, exe: exe, // 60 requests a window: three whole class blocks
	}
	rec, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rec.Workloads), len(workloads))
	}
	for _, wl := range rec.Workloads {
		if wl.Failed != 0 || wl.EndToEnd[failShare] != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", wl.Name, wl.Failed, wl.Attempted, wl.Failures)
		}
		if wl.Samples == 0 {
			t.Errorf("%s: no samples", wl.Name)
		}
		for _, m := range endToEnd {
			checkMetric(t, wl.Name, m, wl.EndToEnd)
		}
		for _, m := range perLayer {
			if needsTraffic(m.Name) && wl.Name != "service_mixed" {
				if _, ok := wl.PerLayer[m.Name]; ok {
					t.Errorf("%s: %s reported without a service window", wl.Name, m.Name)
				}
				continue
			}
			checkMetric(t, wl.Name, m, wl.PerLayer)
		}
		for name := range wl.PerLayer {
			if unitOf(name) == "" {
				t.Errorf("%s: %s is not in the catalogue", wl.Name, name)
			}
		}
	}

	// The run prints every metric by name with its unit.
	var text bytes.Buffer
	rec.print(&text)
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(text.String(), "  "+m.Name+" ") {
			t.Errorf("the report does not print %s", m.Name)
		}
	}

	// A single-workload run ends with the driver's line. That of a traced
	// run holds the whole catalogue: what needs traffic comes from
	// service_mixed, whose traced pass such a run includes.
	for _, traced := range []bool{false, true} {
		single := *rec
		single.Workloads = []workloadResult{rec.Workloads[1], rec.Workloads[len(rec.Workloads)-1]}
		line, err := driverLineOf(&single, traced)
		if err != nil {
			t.Fatal(err)
		}
		want := len(gated())
		if traced {
			want = len(perLayer)
		}
		if !line.Correct || line.Attempted < 1 || len(line.Metrics) != want {
			t.Errorf("driver line (traced=%v): correct=%v attempted=%d metrics=%d, want %d metrics", traced, line.Correct, line.Attempted, len(line.Metrics), want)
		}
		if got, own := line.Metrics["jpegcodec.entropy_share"].Value, single.Workloads[0].PerLayer["jpegcodec.entropy_share"]; traced && got != own {
			t.Errorf("the line of %s reports another workload's entropy share", single.Workloads[0].Name)
		}
	}
}

// needsTraffic names the per-layer metrics only a service window gives.
func needsTraffic(name string) bool {
	switch name {
	case "rescache.hit_share", "rescache.evictions_per_s", "bench.late_ms_p95":
		return true
	}
	return strings.HasPrefix(name, "imaged.")
}

func checkMetric(t *testing.T, workload string, m metricDef, have map[string]float64) {
	t.Helper()
	v, ok := have[m.Name]
	switch {
	case !ok:
		t.Errorf("%s: %s was not emitted", workload, m.Name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		t.Errorf("%s: %s = %v", workload, m.Name, v)
	case m.Unit == "":
		t.Errorf("%s has no unit", m.Name)
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd := gated()
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the catalogue has %d, %d and %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the catalogue %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	for i, m := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Gate {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the catalogue %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the catalogue %+v", i, got, m)
		}
	}
}

// TestHighestPercentile pins the reporting rule: the highest percentile
// with at least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{50, 0, false}, {99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{400, 95, true}, {999, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 50); got != 5.5 {
		t.Errorf("median of 1..10 = %v", got)
	}
	if got := percentile(s, 100); got != 10 {
		t.Errorf("p100 of 1..10 = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(s); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3,1,2 = %v, %v; Python gives 1, 3", q1, q3)
	}
}

// TestSelfTime checks the span arithmetic: a span's self time is its
// duration minus the union of its children's intervals.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a.x", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b.y", Start: 30, End: 60}, // overlaps a.x by 10
		{ID: 3, Parent: 2, Name: "c.z", Start: 35, End: 45},
		{ID: 4, Parent: 0, Name: "a.x", Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{100 - (30 + 20 + 10), 30, 30 - 10, 10, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if layerOf("jpegcodec.entropy") != "jpegcodec" || layerOf("op") != "op" {
		t.Error("layerOf does not split at the first dot")
	}
}

// TestSeedDeterminism checks that one seed gives byte-identical corpus,
// request order and arrival schedule, and that two seeds differ.
func TestSeedDeterminism(t *testing.T) {
	build := func(workload string, seed int64) *corpus {
		c, err := buildCorpus(workload, seed, smokeCorpus, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, w := range workloadNames() {
		a, b, other := build(w, 3), build(w, 3), build(w, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different corpora", w)
		}
		if reflect.DeepEqual(a.Items, other.Items) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", w)
		}
		for i := range a.Items {
			if a.Items[i].W != other.Items[i].W || a.Items[i].H != other.Items[i].H {
				t.Errorf("%s: item %d changes size with the seed; only content may", w, i)
			}
		}
	}
	c := build("service_mixed", 3)
	s1 := buildSchedule(c, 3, 0, 100, time.Second, 1)
	s2 := buildSchedule(c, 3, 0, 100, time.Second, 1)
	s3 := buildSchedule(c, 4, 0, 100, time.Second, 1)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("seeds 3 and 4 gave the same schedule")
	}
	if len(s1) != 100 {
		t.Errorf("%d arrivals in 1s at 100 req/s", len(s1))
	}
	counts := map[int]int{}
	for i, r := range s1 {
		counts[r.class]++
		if i > 0 && r.due < s1[i-1].due {
			t.Fatal("the schedule is not in arrival order")
		}
	}
	if counts[clsHot] != 35 || counts[clsThumb] != 30 || counts[clsColdDecode] != 25 || counts[clsHalf] != 10 {
		t.Errorf("class counts %v, want 35/30/25/10", counts)
	}
	if o1, o2 := build("batch_gallery", 3).Cycle, build("batch_gallery", 4).Cycle; !reflect.DeepEqual(o1, o2) {
		t.Error("seeds 3 and 4 submit the gallery in different orders; the seed may only change the pictures")
	}
}

// TestDriftGuard checks that a moved input and a moved output are told
// apart and named.
func TestDriftGuard(t *testing.T) {
	c, err := buildCorpus("decode_smooth", goldenSeed, smokeCorpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyCorpus(c, 2); err != nil {
		t.Fatal(err)
	}
	record, err := json.Marshal(golden{c.Workload: goldenOf(c)})
	if err != nil {
		t.Fatal(err)
	}
	defer func(old []byte) { goldenJSON = old }(goldenJSON)
	goldenJSON = record
	if err := checkGolden(c); err != nil {
		t.Fatalf("an unchanged corpus drifts: %v", err)
	}
	out := *c
	out.Ops = append([]op(nil), c.Ops...)
	out.Ops[1].CRC++
	if err := checkGolden(&out); err == nil || !strings.Contains(err.Error(), "the output of "+c.Ops[1].Name) {
		t.Errorf("a moved output reported as: %v", err)
	}
	in := *c
	in.Items = append([]item(nil), c.Items...)
	in.Items[0].SHA = "00" + in.Items[0].SHA[2:]
	if err := checkGolden(&in); err == nil || !strings.Contains(err.Error(), "the input of "+c.Items[0].Name) {
		t.Errorf("a moved input reported as: %v", err)
	}
}

func TestOutputCheck(t *testing.T) {
	c, err := buildCorpus("transcode_mixed", 5, smokeCorpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyCorpus(c, 2); err != nil {
		t.Fatal(err)
	}
	o := &c.Ops[0]
	out, err := realOp(c, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check(o, out); err != nil {
		t.Errorf("a correct output fails the check: %v", err)
	}
	out.bytes[len(out.bytes)/2] ^= 1
	if err := c.check(o, out); err == nil {
		t.Error("a flipped bit passes the check")
	}
	// The decomposition must give the whole's bytes.
	dec, err := decomposedOp(c, o, newRecorder(16), -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check(o, dec); err != nil {
		t.Errorf("the decomposed op differs from the whole: %v", err)
	}
}

func TestJudge(t *testing.T) {
	flat := newSide([]float64{100, 101, 99, 100, 100.5})
	for _, tc := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100.2, 99.8, 100, 101, 100}, "lower", verdictSame},
		{"worse", []float64{115, 116, 114, 115, 115}, "lower", verdictWorse},
		{"better", []float64{90, 91, 89, 90, 90}, "lower", verdictBetter},
		{"higher is better", []float64{85, 86, 84, 85, 85}, "higher", verdictWorse},
		{"noisy", []float64{80, 125, 100, 140, 70}, "lower", verdictUnresolved},
		{"noisy but every run better", []float64{60, 90, 70, 95, 50}, "lower", verdictBetter},
	} {
		if got := judge(flat, newSide(tc.b), tc.better, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := judgeFailShare(newSide([]float64{0, 0, 0}), newSide([]float64{0, 0.01, 0.01})); got != verdictWorse {
		t.Errorf("a risen fail_share judged %s", got)
	}
}

func TestCommentSegment(t *testing.T) {
	c, err := buildCorpus("service_mixed", 5, smokeCorpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	it := &c.Items[c.Cold[0]]
	a, b := withComment(it.Data, 1), withComment(it.Data, 2)
	if bytes.Equal(a, b) || len(a) != len(it.Data)+12 {
		t.Fatal("comment segments do not make bodies unique")
	}
	plain := op{Name: "plain", Item: c.Cold[0], Scale: 1, Xcode: -1}
	if err := verifyOp(c, &plain); err != nil {
		t.Fatal(err)
	}
	cc := *c
	cc.Items = append([]item(nil), c.Items...)
	cc.Items[c.Cold[0]].Data = a
	commented := plain
	if err := verifyOp(&cc, &commented); err != nil {
		t.Fatal(err)
	}
	if commented.CRC != plain.CRC {
		t.Error("a comment segment changed the decoded pixels")
	}
}

// TestSummarize checks how rounds become a run's figures: the rate and
// the costs from the sums over all rounds, the percentiles and set-up as
// medians over rounds, the peak as the maximum.
func TestSummarize(t *testing.T) {
	rounds := []*roundResult{
		{SetupS: 0.1, WallS: 1, CPUS: 1, AllocMB: 10, Mpix: 10, Attempted: 3, OpMs: []float64{1, 2, 3}, PeakRSSMB: 50},
		{SetupS: 0.5, WallS: 3, CPUS: 2, AllocMB: 50, Mpix: 10, Attempted: 2, Failed: 1, OpMs: []float64{10, 20}, PeakRSSMB: 70},
		{SetupS: 0.2, WallS: 1, CPUS: 1, AllocMB: 0, Mpix: 20, Attempted: 2, OpMs: []float64{4, 5}, PeakRSSMB: 60},
	}
	got := summarize("decode_dense", 0, rounds, nil).EndToEnd
	want := map[string]float64{
		"setup_s": 0.2, "op_ms_p50": 4.5, "op_ms_p95": 4.95, "mpix_per_s": 8, "cpu_ms_per_mpix": 100,
		"alloc_mb_per_mpix": 1.5, "peak_rss_mb": 70, failShare: 1.0 / 7,
	}
	for name, w := range want {
		if g := got[name]; math.Abs(g-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
}

// TestReconcile checks the pairwise arithmetic of the traced pass on a
// hand-made trace: two pairs of blocks of two ops each.
func TestReconcile(t *testing.T) {
	real, dec := newSamples(8), newSamples(8)
	var decomposed []span
	id := int32(0)
	add := func(parent, op int32, name string, start, end int64) int32 {
		decomposed = append(decomposed, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
		id++
		return id - 1
	}
	// Real ops take 100 each; the layers of their decompositions account
	// for 90 and 70 in the first pair, 80 and 80 in the second.
	for op, layers := range []int64{90, 70, 80, 80} {
		real.done(op%2, 100, 1, nil)
		real.opWrapped = append(real.opWrapped, op < 2)
		dec.done(op%2, 100, 1, nil)
		root := add(-1, int32(op), "op.test", 0, 100)
		add(root, int32(op), "jpegcodec.entropy", 0, layers/2)
		add(root, int32(op), "jpegcodec.back", 50, 50+layers/2)
	}
	pairs := []blockPair{
		{real: block{0, 2, 210}, dec: block{0, 2, 0}},
		{real: block{2, 4, 200}, dec: block{2, 4, 0}},
	}
	ls := layerSet{}
	reconcile(ls, false, 2, decomposed, real, dec, pairs)
	if got := ls["trace.layer_sum_share"]; got != 0.8 {
		t.Errorf("layer sum share %v, want 0.8 (the median of 160/200 and 160/200)", got)
	}
	reconcile(ls, true, 2, decomposed, real, dec, pairs)
	if got, want := ls["trace.unattributed_share"], 1-(160.0/420+160.0/400)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("batch: unattributed share %v, want %v", got, want)
	}
	if got, want := overheadByBlock(real, pairs), 210.0/200-1; math.Abs(got-want) > 1e-12 {
		t.Errorf("overhead %v, want %v", got, want)
	}
}

// TestKeepAwake starts the helper that spins on every processor while a
// service window runs and stops it again: the runner must get its
// processes back, whether the helper came up or gave up.
func TestKeepAwake(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &runConfig{exe: exe}
	stopped := make(chan struct{})
	go func() {
		cfg.keepAwake(t.TempDir())()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(20 * time.Second):
		t.Fatal("the keep-awake helper did not come up and stop within 20 s")
	}
}
