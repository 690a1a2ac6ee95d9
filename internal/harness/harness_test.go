package harness

import (
	"strings"
	"testing"

	"hetjpeg/internal/core"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
)

var testSizes = [][2]int{{320, 240}, {640, 480}, {1024, 768}, {1536, 1152}}

func allModels(t testing.TB) map[string]*perfmodel.Model {
	t.Helper()
	ms := map[string]*perfmodel.Model{}
	for _, spec := range platform.All() {
		m, err := perfmodel.Default(spec)
		if err != nil {
			t.Fatal(err)
		}
		ms[spec.Name] = m
	}
	return ms
}

func TestTable1TextMatchesPaper(t *testing.T) {
	txt := Table1Text()
	for _, want := range []string{
		"Intel i7-2600k", "Intel i7-3770k",
		"NVIDIA GT 430", "NVIDIA GTX 560Ti", "NVIDIA GTX 680",
		"96", "384", "1536", "2.1", "3.0",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table 1 text missing %q", want)
		}
	}
}

func TestFigure6Linearity(t *testing.T) {
	r, err := Figure6(platform.GTX560(), testSizes)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "the parallel phase scales linearly with respect to image
	// size" — acceptance band from DESIGN.md is R² > 0.98.
	if r.R2SIMD < 0.98 {
		t.Errorf("SIMD parallel phase R²=%.4f < 0.98", r.R2SIMD)
	}
	if r.R2GPU < 0.98 {
		t.Errorf("GPU parallel phase R²=%.4f < 0.98", r.R2GPU)
	}
	if len(r.Points) != 2*len(testSizes) {
		t.Fatalf("%d points want %d", len(r.Points), 2*len(testSizes))
	}
	if !strings.Contains(r.Text(), "Figure 6") {
		t.Error("text rendering broken")
	}
}

func TestFigure7Linearity(t *testing.T) {
	r, err := Figure7(platform.GTX560(), jfif.Sub422)
	if err != nil {
		t.Fatal(err)
	}
	if r.R2 < 0.9 {
		t.Errorf("Huffman rate vs density R²=%.4f < 0.9", r.R2)
	}
	if r.Slope <= 0 {
		t.Errorf("slope %.3f must be positive (denser images decode slower)", r.Slope)
	}
	if !strings.Contains(r.Text(), "Figure 7") {
		t.Error("text rendering broken")
	}
}

func TestFigure9Shape(t *testing.T) {
	cols, err := Figure9(1024) // smaller image for test speed; shape holds
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 9 {
		t.Fatalf("%d columns want 9 (3 machines x 3 modes)", len(cols))
	}
	byKey := map[string]Fig9Column{}
	for _, c := range cols {
		byKey[c.Machine+"/"+c.Mode.String()] = c
	}
	// Sequential is the slowest everywhere; GPU mode beats SIMD only on
	// the two big GPUs.
	for _, m := range []string{"GT 430", "GTX 560", "GTX 680"} {
		if byKey[m+"/sequential"].VsSIMDNorm <= 1.5 {
			t.Errorf("%s: sequential %.2fx SIMD, want ~2x", m, byKey[m+"/sequential"].VsSIMDNorm)
		}
	}
	if byKey["GT 430/gpu"].VsSIMDNorm <= 1.0 {
		t.Errorf("GT 430 GPU mode should be slower than SIMD, got %.2fx", byKey["GT 430/gpu"].VsSIMDNorm)
	}
	for _, m := range []string{"GTX 560", "GTX 680"} {
		if byKey[m+"/gpu"].VsSIMDNorm >= 1.0 {
			t.Errorf("%s GPU mode should beat SIMD, got %.2fx", m, byKey[m+"/gpu"].VsSIMDNorm)
		}
	}
	if !strings.Contains(Fig9Text(cols), "Figure 9") {
		t.Error("text rendering broken")
	}
}

func TestSpeedupTableShape(t *testing.T) {
	ms := allModels(t)
	corpus, err := imagegen.Build(imagegen.CorpusOptions{
		Widths:   []int{320, 832},
		Heights:  []int{256, 640},
		Details:  []float64{0.2, 0.8},
		Sub:      jfif.Sub422,
		Quality:  85,
		SeedBase: 4242,
	})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := SpeedupTable(jfif.Sub422, corpus, ms)
	if err != nil {
		t.Fatal(err)
	}
	get := func(machine string, mode core.Mode) float64 {
		for _, c := range cells {
			if c.Machine == machine && c.Mode == mode {
				return c.Mean
			}
		}
		t.Fatalf("missing cell %s/%v", machine, mode)
		return 0
	}
	const tol = 0.97
	for _, m := range []string{"GT 430", "GTX 560", "GTX 680"} {
		gpu := get(m, core.ModeGPU)
		pipe := get(m, core.ModePipelinedGPU)
		sps := get(m, core.ModeSPS)
		pps := get(m, core.ModePPS)
		t.Logf("%s: gpu=%.2f pipe=%.2f sps=%.2f pps=%.2f", m, gpu, pipe, sps, pps)
		// Table 2's invariants: PPS wins; SPS and PPS always beat SIMD;
		// pipelining beats plain GPU mode.
		if pps < sps*tol || pps < pipe*tol {
			t.Errorf("%s: PPS (%.2f) is not the best mode (sps %.2f, pipe %.2f)", m, pps, sps, pipe)
		}
		if sps < 1.0 || pps < 1.0 {
			t.Errorf("%s: partitioned schemes below SIMD (sps %.2f, pps %.2f)", m, sps, pps)
		}
		if pipe < gpu*tol {
			t.Errorf("%s: pipeline (%.2f) below GPU mode (%.2f)", m, pipe, gpu)
		}
	}
	// GT 430's GPU mode loses to SIMD (the machine that motivates
	// partitioning).
	if g := get("GT 430", core.ModeGPU); g >= 1.0 {
		t.Errorf("GT 430 GPU mode %.2f should be < 1", g)
	}
	// Faster GPUs see larger PPS speedups.
	if !(get("GT 430", core.ModePPS) < get("GTX 560", core.ModePPS)) {
		t.Error("PPS speedup should grow with GPU tier (430 vs 560)")
	}
	txt := SpeedupTableText("Table 2", cells)
	if !strings.Contains(txt, "pps") || !strings.Contains(txt, "GT 430") {
		t.Error("table text rendering broken")
	}
}

func TestFigure10SpeedupGrowsWithSize(t *testing.T) {
	ms := allModels(t)
	pts, err := Figure10(jfif.Sub444, testSizes, ms)
	if err != nil {
		t.Fatal(err)
	}
	// On the GTX 680, PPS speedup at the largest size should exceed the
	// smallest size (Figure 10's rising curves).
	var small, large float64
	minPix, maxPix := 1<<62, 0
	for _, p := range pts {
		if p.Pixels < minPix {
			minPix = p.Pixels
		}
		if p.Pixels > maxPix {
			maxPix = p.Pixels
		}
	}
	for _, p := range pts {
		if p.Machine == "GTX 680" && p.Mode == core.ModePPS {
			if p.Pixels == minPix {
				small = p.Speedup
			}
			if p.Pixels == maxPix {
				large = p.Speedup
			}
		}
	}
	if large <= small {
		t.Errorf("PPS speedup should rise with size: %.2f at %d px vs %.2f at %d px",
			small, minPix, large, maxPix)
	}
}

func TestFigure11AmdahlBand(t *testing.T) {
	ms := allModels(t)
	pts, err := Figure11(platform.GTX680(), jfif.Sub444, testSizes, ms["GTX 680"])
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, p := range pts {
		if p.Percent > 100.5 {
			t.Errorf("achievement %.1f%% exceeds the Amdahl bound", p.Percent)
		}
		mean += p.Percent
	}
	mean /= float64(len(pts))
	t.Logf("mean achievement %.1f%% of the attainable speedup", mean)
	// DESIGN.md acceptance: mean >= 80% (paper: 88% avg, 95% peak).
	if mean < 80 {
		t.Errorf("mean achievement %.1f%% below the 80%% acceptance band", mean)
	}
}

func TestFigure12Balance(t *testing.T) {
	ms := allModels(t)
	pts, err := Figure12(jfif.Sub444, testSizes, ms)
	if err != nil {
		t.Fatal(err)
	}
	// Median imbalance across two-sided schedules should be modest.
	var imbalances []float64
	for _, p := range pts {
		if p.CPUNs == 0 || p.GPUNs == 0 {
			continue // one-sided schedule: nothing to balance
		}
		m := p.CPUNs
		if p.GPUNs > m {
			m = p.GPUNs
		}
		d := p.CPUNs - p.GPUNs
		if d < 0 {
			d = -d
		}
		imbalances = append(imbalances, d/m)
	}
	if len(imbalances) == 0 {
		t.Skip("no two-sided schedules in this sweep")
	}
	var sum float64
	for _, v := range imbalances {
		sum += v
	}
	t.Logf("mean imbalance %.1f%% over %d two-sided schedules", 100*sum/float64(len(imbalances)), len(imbalances))
	if mean := sum / float64(len(imbalances)); mean > 0.35 {
		t.Errorf("mean CPU/GPU imbalance %.0f%% too high for balanced partitioning", 100*mean)
	}
	if !strings.Contains(Fig12Text(pts), "Figure 12") {
		t.Error("text rendering broken")
	}
}
