package kernels

import (
	"bytes"
	"testing"

	"hetjpeg/internal/gpusim"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/sim"
)

func prepared(t testing.TB, w, h int, sub jfif.Subsampling) (*jpegcodec.Frame, *jpegcodec.RGBImage) {
	t.Helper()
	items, err := imagegen.SizeSweep(sub, 0.7, [][2]int{{w, h}}, 17)
	if err != nil {
		t.Fatal(err)
	}
	f, ed, err := jpegcodec.PrepareDecode(items[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	ref := jpegcodec.NewRGBImage(f.Img.Width, f.Img.Height)
	jpegcodec.ParallelPhaseScalar(f, 0, f.MCURows, ref)
	return f, ref
}

func TestEngineMatchesScalarWholeImage(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, merged := range []bool{true, false} {
			f, ref := prepared(t, 220, 164, sub)
			dev := gpusim.New(platform.GTX560())
			eng := NewEngine(dev, f, merged)
			out := jpegcodec.NewRGBImage(f.Img.Width, f.Img.Height)
			eng.DecodeChunk(0, f.MCURows, -1, -1, out)
			if !bytes.Equal(ref.Pix, out.Pix) {
				t.Errorf("%v merged=%v: device output differs from scalar", sub, merged)
			}
		}
	}
}

func TestEngineChunkedMatchesWhole(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		f, ref := prepared(t, 160, 240, sub)
		dev := gpusim.New(platform.GTX680())
		eng := NewEngine(dev, f, true)
		out := jpegcodec.NewRGBImage(f.Img.Width, f.Img.Height)
		// Decode in chunks of 3 MCU rows with 4:2:0-aware row bounds.
		prevY := 0
		for m0 := 0; m0 < f.MCURows; m0 += 3 {
			m1 := m0 + 3
			if m1 > f.MCURows {
				m1 = f.MCURows
			}
			var y1 int
			if m1 == f.MCURows {
				y1 = f.Img.Height
			} else {
				y1 = m1 * f.MCUHeight
				if sub == jfif.Sub420 {
					y1--
				}
			}
			eng.DecodeChunk(m0, m1, prevY, y1, out)
			prevY = y1
		}
		if !bytes.Equal(ref.Pix, out.Pix) {
			diff := 0
			for i := range ref.Pix {
				if ref.Pix[i] != out.Pix[i] {
					diff++
				}
			}
			t.Errorf("%v: chunked device output differs from scalar (%d bytes)", sub, diff)
		}
	}
}

func TestMergedKernelsCheaperThanSplit(t *testing.T) {
	f, _ := prepared(t, 512, 512, jfif.Sub422)
	spec := platform.GTX560()
	merged := TotalNs(CostPlan(spec, f, 0, f.MCURows, -1, -1, true))
	split := TotalNs(CostPlan(spec, f, 0, f.MCURows, -1, -1, false))
	if split <= merged {
		t.Errorf("split kernels (%.0f ns) should cost more than merged (%.0f ns)", split, merged)
	}
}

func TestKernelAndTotalHelpers(t *testing.T) {
	f, _ := prepared(t, 64, 64, jfif.Sub444)
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
	f, _ := prepared(t, 64, 64, jfif.Sub422)
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

func BenchmarkEngineDecode422_1MP(b *testing.B) {
	f, _ := prepared(b, 1024, 1024, jfif.Sub422)
	dev := gpusim.New(platform.GTX560())
	eng := NewEngine(dev, f, true)
	out := jpegcodec.NewRGBImage(f.Img.Width, f.Img.Height)
	b.SetBytes(int64(len(out.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.DecodeChunk(0, f.MCURows, -1, -1, out)
	}
}

func TestWorkGroupSizesBitExact(t *testing.T) {
	// Section 5.1 sweeps work-group sizes 4..32 MCUs during profiling;
	// every size must yield identical pixels.
	f, ref := prepared(t, 180, 140, jfif.Sub422)
	for _, gb := range []int{4, 8, 16, 32, 64} {
		spec := *platform.GTX560()
		spec.WorkGroupBlocks = gb
		dev := gpusim.New(&spec)
		eng := NewEngine(dev, f, true)
		out := jpegcodec.NewRGBImage(f.Img.Width, f.Img.Height)
		eng.DecodeChunk(0, f.MCURows, -1, -1, out)
		if !bytes.Equal(ref.Pix, out.Pix) {
			t.Errorf("work-group size %d blocks: pixels differ", gb)
		}
	}
}

func TestDecodeChunkRowWindow(t *testing.T) {
	// Explicit y-bounds restrict conversion and readback to a window.
	f, ref := prepared(t, 96, 128, jfif.Sub444)
	dev := gpusim.New(platform.GTX560())
	eng := NewEngine(dev, f, false) // split kernels honor y bounds
	out := jpegcodec.NewRGBImage(f.Img.Width, f.Img.Height)
	const sentinel = 0x3C // pooled pixels arrive with unspecified contents
	for i := range out.Pix {
		out.Pix[i] = sentinel
	}
	y0, y1 := 24, 72
	eng.DecodeChunk(0, f.MCURows, y0, y1, out)
	w := f.Img.Width
	for y := y0; y < y1; y++ {
		for x := 0; x < w; x++ {
			i := (y*w + x) * 3
			if out.Pix[i] != ref.Pix[i] || out.Pix[i+1] != ref.Pix[i+1] || out.Pix[i+2] != ref.Pix[i+2] {
				t.Fatalf("window pixel (%d,%d) wrong", x, y)
			}
		}
	}
	// Rows outside the window must be untouched.
	for _, y := range []int{0, y0 - 1, y1, f.Img.Height - 1} {
		for _, v := range out.Pix[y*w*3 : (y+1)*w*3] {
			if v != sentinel {
				t.Fatalf("row %d outside window was written", y)
			}
		}
	}
}
