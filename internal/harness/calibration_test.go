package harness

import (
	"testing"

	"hetjpeg/internal/core"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/sim"
)

// These tests pin the calibrated cost model to the measured anchors the
// paper reports in Section 6.1 for a 2048x2048 4:2:2 image. Bands are
// deliberately loose: the goal is the paper's qualitative landscape (who
// wins, by roughly what factor), not its exact numbers.

// fig9Frame entropy-decodes the 2048x2048 4:2:2 image of Figure 9 once;
// each test prices its released frame under every machine and mode.
func fig9Frame(t testing.TB) *jpegcodec.Frame {
	t.Helper()
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.6, [][2]int{{2048, 2048}}, 9)
	if err != nil {
		t.Fatal(err)
	}
	f, err := perfmodel.SummarizeItem(items[0])
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func price(t testing.TB, f *jpegcodec.Frame, mode core.Mode, spec *platform.Spec, model *perfmodel.Model) *core.Result {
	t.Helper()
	res, err := core.Price(f, nil, core.Options{Mode: mode, Spec: spec, Model: model})
	if err != nil {
		t.Fatalf("%v on %s: %v", mode, spec.Name, err)
	}
	return res
}

func TestCalibrationSIMDvsSequential(t *testing.T) {
	f := fig9Frame(t)
	for _, spec := range platform.All() {
		seq := price(t, f, core.ModeSequential, spec, nil)
		simd := price(t, f, core.ModeSIMD, spec, nil)
		ratio := seq.TotalNs / simd.TotalNs
		t.Logf("%s: sequential/SIMD = %.2f (huff share of SIMD: %.0f%%)",
			spec.Name, ratio, 100*simd.HuffNs/simd.TotalNs)
		// Paper: "the SIMD-version decodes an image twice as fast as the
		// sequential version on an Intel i7".
		if ratio < 1.6 || ratio > 2.6 {
			t.Errorf("%s: sequential/SIMD ratio %.2f outside [1.6, 2.6]", spec.Name, ratio)
		}
	}
}

func TestCalibrationFigure9Anchors(t *testing.T) {
	f := fig9Frame(t)

	type anchor struct {
		spec          *platform.Spec
		kernelVsSIMD  [2]float64 // kernel-only speedup over SIMD parallel phase
		gpuParVsSIMD  [2]float64 // incl. transfers
		totalVsSIMD   [2]float64 // whole GPU-mode total vs SIMD total
		wantGPUSlower bool
	}
	anchors := []anchor{
		// Paper: GT 430 GPU mode 23% *slower* than SIMD overall.
		{platform.GT430(), [2]float64{0.5, 1.6}, [2]float64{0.3, 1.0}, [2]float64{1.05, 1.5}, true},
		// Paper: kernels 10x faster than SIMD parallel phase, 2.6x with
		// transfers.
		{platform.GTX560(), [2]float64{7, 13}, [2]float64{2.0, 3.4}, [2]float64{0.55, 0.8}, false},
		// Paper: 13.7x kernels, 4.3x with transfers.
		{platform.GTX680(), [2]float64{10, 18}, [2]float64{3.2, 5.6}, [2]float64{0.5, 0.75}, false},
	}
	for _, a := range anchors {
		simd := price(t, f, core.ModeSIMD, a.spec, nil)
		gpu := price(t, f, core.ModeGPU, a.spec, nil)

		simdParallel := simd.TotalNs - simd.HuffNs
		bd := gpu.Timeline.TotalByKind()
		kernelNs := bd[sim.KindIDCT] + bd[sim.KindUpsample] + bd[sim.KindColor] + bd[sim.KindMergedKernel]
		gpuParallel := kernelNs + bd[sim.KindHostToDevice] + bd[sim.KindDeviceToHost] + bd[sim.KindDispatch]

		kRatio := simdParallel / kernelNs
		pRatio := simdParallel / gpuParallel
		tRatio := gpu.TotalNs / simd.TotalNs
		t.Logf("%s: kernel %.1fx, +transfers %.1fx, GPU-mode total %.2fx SIMD total",
			a.spec.Name, kRatio, pRatio, tRatio)

		if kRatio < a.kernelVsSIMD[0] || kRatio > a.kernelVsSIMD[1] {
			t.Errorf("%s: kernel-only ratio %.2f outside %v", a.spec.Name, kRatio, a.kernelVsSIMD)
		}
		if pRatio < a.gpuParVsSIMD[0] || pRatio > a.gpuParVsSIMD[1] {
			t.Errorf("%s: with-transfer ratio %.2f outside %v", a.spec.Name, pRatio, a.gpuParVsSIMD)
		}
		if a.wantGPUSlower {
			if tRatio < a.totalVsSIMD[0] || tRatio > a.totalVsSIMD[1] {
				t.Errorf("%s: GPU-mode total %.2fx SIMD outside %v (want slower)", a.spec.Name, tRatio, a.totalVsSIMD)
			}
		} else if tRatio < a.totalVsSIMD[0] || tRatio > a.totalVsSIMD[1] {
			t.Errorf("%s: GPU-mode total %.2fx SIMD outside %v", a.spec.Name, tRatio, a.totalVsSIMD)
		}
	}
}

func TestCalibrationModeOrdering(t *testing.T) {
	// On every machine: PPS >= SPS and PPS >= Pipeline >= GPU (within a
	// small tolerance), as in Tables 2 and 3.
	f := fig9Frame(t)
	for _, spec := range platform.All() {
		model, err := perfmodel.Default(spec)
		if err != nil {
			t.Fatal(err)
		}
		speedup := func(mode core.Mode) float64 {
			simd := price(t, f, core.ModeSIMD, spec, model)
			res := price(t, f, mode, spec, model)
			return simd.TotalNs / res.TotalNs
		}
		gpu := speedup(core.ModeGPU)
		pipe := speedup(core.ModePipelinedGPU)
		sps := speedup(core.ModeSPS)
		pps := speedup(core.ModePPS)
		t.Logf("%s: gpu=%.2f pipeline=%.2f sps=%.2f pps=%.2f", spec.Name, gpu, pipe, sps, pps)
		const tol = 0.97
		if pipe < gpu*tol {
			t.Errorf("%s: pipeline (%.2f) slower than GPU (%.2f)", spec.Name, pipe, gpu)
		}
		if pps < pipe*tol {
			t.Errorf("%s: PPS (%.2f) slower than pipeline (%.2f)", spec.Name, pps, pipe)
		}
		if pps < sps*tol {
			t.Errorf("%s: PPS (%.2f) slower than SPS (%.2f)", spec.Name, pps, sps)
		}
		if sps < 1.0 {
			t.Errorf("%s: SPS (%.2f) failed to beat SIMD", spec.Name, sps)
		}
	}
}
