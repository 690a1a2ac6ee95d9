package kernels

import (
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/sim"
)

// frameFor parses a generated fixture; CostPlan reads only its geometry.
func frameFor(t testing.TB, w, h int, sub jfif.Subsampling) *jpegcodec.Frame {
	t.Helper()
	items, err := imagegen.SizeSweep(sub, 0.7, [][2]int{{w, h}}, 17)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := jpegcodec.PrepareDecode(items[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Release)
	return f
}

func TestMergedKernelsCheaperThanSplit(t *testing.T) {
	f := frameFor(t, 512, 512, jfif.Sub422)
	spec := platform.GTX560()
	merged := TotalNs(CostPlan(spec, f, 0, f.MCURows, -1, -1, true))
	split := TotalNs(CostPlan(spec, f, 0, f.MCURows, -1, -1, false))
	if split <= merged {
		t.Errorf("split kernels (%.0f ns) should cost more than merged (%.0f ns)", split, merged)
	}
}

func TestKernelAndTotalHelpers(t *testing.T) {
	f := frameFor(t, 64, 64, jfif.Sub444)
	spec := platform.GTX560()
	recs := CostPlan(spec, f, 0, f.MCURows, -1, -1, true)
	total := TotalNs(recs)
	var kern float64
	for _, r := range recs {
		if r.Kind != sim.KindHostToDevice && r.Kind != sim.KindDeviceToHost {
			kern += r.Ns
		}
	}
	if !(kern > 0 && kern < total) {
		t.Fatalf("kernel %.0f of total %.0f", kern, total)
	}
}

func TestEmptyKernelChargesLaunchOnly(t *testing.T) {
	// A chunk whose pixel window is empty (y0 == y1, e.g. a 4:2:0 chunk
	// one MCU row tall whose only row is deferred) still launches its
	// colour kernel, which then costs exactly the launch overhead.
	f := frameFor(t, 64, 64, jfif.Sub422)
	spec := platform.GTX560()
	for _, merged := range []bool{true, false} {
		recs := CostPlan(spec, f, 0, 1, 8, 8, merged)
		colour := recs[len(recs)-2]
		if colour.Kind != sim.KindMergedKernel && colour.Kind != sim.KindColor {
			t.Fatalf("merged=%v: record %q is not a colour launch", merged, colour.Label)
		}
		if colour.Ns != spec.GPU.LaunchNs {
			t.Errorf("merged=%v: empty window %q costs %v, want launch %v", merged, colour.Label, colour.Ns, spec.GPU.LaunchNs)
		}
	}
}
