package core

import (
	"bytes"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/sim"
)

// End-to-end behaviors across the full heterogeneous stack.

func TestRestartIntervalStreamAllModes(t *testing.T) {
	spec := platform.GTX560()
	model := defaultModel(t, spec)
	img := imagegen.Generate(imagegen.Scene{Seed: 21, Detail: 0.7}, 320, 256)
	data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{
		Quality:         85,
		Subsampling:     jfif.Sub422,
		RestartInterval: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Decode(data, Options{Mode: ModeSequential, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range AllModes()[1:] {
		res, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
		if err != nil {
			t.Fatalf("%v with restarts: %v", mode, err)
		}
		if !bytes.Equal(ref.Image.Pix, res.Image.Pix) {
			t.Errorf("%v: restart-interval stream decodes differently", mode)
		}
	}
}

func TestOptimizedHuffmanStreamAllModes(t *testing.T) {
	spec := platform.GTX680()
	model := defaultModel(t, spec)
	img := imagegen.Generate(imagegen.Scene{Seed: 22, Detail: 0.5}, 200, 280)
	data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{
		Quality:         80,
		Subsampling:     jfif.Sub420,
		OptimizeHuffman: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Decode(data, Options{Mode: ModeSequential, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range AllModes()[1:] {
		res, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
		if err != nil {
			t.Fatalf("%v optimized tables: %v", mode, err)
		}
		if !bytes.Equal(ref.Image.Pix, res.Image.Pix) {
			t.Errorf("%v: optimized-table stream decodes differently", mode)
		}
	}
}

func TestVirtualOnlyMatchesExecutedTimeline(t *testing.T) {
	spec := platform.GTX560()
	model := defaultModel(t, spec)
	data := encodeTest(t, 400, 304, jfif.Sub422, 0.6)
	for _, mode := range AllModes() {
		real, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		virt, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model, VirtualOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if rel := (real.TotalNs - virt.TotalNs) / real.TotalNs; rel > 1e-9 || rel < -1e-9 {
			t.Errorf("%v: virtual-only makespan %.3f != executed %.3f", mode, virt.TotalNs, real.TotalNs)
		}
		if real.Stats != virt.Stats {
			t.Errorf("%v: stats differ: %+v vs %+v", mode, real.Stats, virt.Stats)
		}
	}
}

func TestPPSRepartitionOnSkewedImage(t *testing.T) {
	// A top-smooth/bottom-dense image: the uniform-density assumption
	// underestimates the remainder, and the correction should move rows.
	spec := platform.GTX560()
	model := defaultModel(t, spec)
	img := imagegen.GenerateGradientDetail(31, 1024, 1024, 0.0, 1.0)
	data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decode(data, Options{Mode: ModePPS, Spec: spec, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Chunks < 2 {
		t.Skip("image too small for repartitioning on this configuration")
	}
	t.Logf("repartitioned=%v delta=%d gpu=%d cpu=%d",
		res.Stats.Repartitioned, res.Stats.RepartitionDeltaRows,
		res.Stats.GPUMCURows, res.Stats.CPUMCURows)
	// Bit-exactness still holds after repartitioning.
	ref, err := Decode(data, Options{Mode: ModeSequential, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.Image.Pix, res.Image.Pix) {
		t.Error("repartitioned decode altered pixels")
	}
}

func TestSchedulesAreDeterministic(t *testing.T) {
	spec := platform.GT430()
	model := defaultModel(t, spec)
	data := encodeTest(t, 512, 384, jfif.Sub444, 0.8)
	for _, mode := range []Mode{ModePipelinedGPU, ModeSPS, ModePPS} {
		a, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalNs != b.TotalNs || a.Stats != b.Stats {
			t.Errorf("%v: schedule not deterministic (%v/%v vs %v/%v)",
				mode, a.TotalNs, a.Stats, b.TotalNs, b.Stats)
		}
	}
}

func TestTimelineBreakdownCoversAllWork(t *testing.T) {
	// Every mode's timeline must contain Huffman work equal to the
	// image's total entropy cost, regardless of how it is scheduled.
	spec := platform.GTX680()
	model := defaultModel(t, spec)
	data := encodeTest(t, 300, 300, jfif.Sub422, 0.6)
	var huffTotals []float64
	for _, mode := range AllModes() {
		res, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		huffTotals = append(huffTotals, res.Timeline.KindTotal(sim.KindHuffman))
	}
	for i := 1; i < len(huffTotals); i++ {
		if d := huffTotals[i] - huffTotals[0]; d > 1 || d < -1 {
			t.Errorf("mode %v: huffman total %.1f differs from sequential %.1f",
				AllModes()[i], huffTotals[i], huffTotals[0])
		}
	}
}

func TestTinyImagesAllModes(t *testing.T) {
	// Degenerate dimensions exercise every boundary: 1-pixel rows,
	// single MCU, partial MCUs in both axes.
	spec := platform.GTX560()
	model := defaultModel(t, spec)
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, dim := range [][2]int{{1, 1}, {8, 8}, {16, 16}, {17, 1}, {1, 17}, {15, 31}} {
			data := encodeTest(t, dim[0], dim[1], sub, 0.5)
			ref, err := Decode(data, Options{Mode: ModeSequential, Spec: spec})
			if err != nil {
				t.Fatalf("%v %v sequential: %v", sub, dim, err)
			}
			for _, mode := range AllModes()[1:] {
				res, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
				if err != nil {
					t.Fatalf("%v %v %v: %v", sub, dim, mode, err)
				}
				if !bytes.Equal(ref.Image.Pix, res.Image.Pix) {
					t.Errorf("%v %v %v: pixels differ", sub, dim, mode)
				}
			}
		}
	}
}

// TestSplitKernelsAllPartitionedModes extends TestSplitKernelsBitExact
// to the chunked and partitioned schedules: the split kernels keep the
// pixels and the partition, and only the device queue gets busier.
func TestSplitKernelsAllPartitionedModes(t *testing.T) {
	spec := platform.GTX560()
	model := defaultModel(t, spec)
	data := encodeTest(t, 384, 288, jfif.Sub420, 0.7)
	ref, err := Decode(data, Options{Mode: ModeSequential, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePipelinedGPU, ModeSPS, ModePPS} {
		merged, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
		if err != nil {
			t.Fatalf("%v merged: %v", mode, err)
		}
		res, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model, SplitKernels: true})
		if err != nil {
			t.Fatalf("%v split: %v", mode, err)
		}
		if !bytes.Equal(ref.Image.Pix, res.Image.Pix) {
			t.Errorf("%v split kernels: pixels differ", mode)
		}
		if res.Stats != merged.Stats {
			t.Errorf("%v: split stats %+v, merged %+v", mode, res.Stats, merged.Stats)
		}
		split, base := res.Timeline.BusyTime(sim.ResGPU), merged.Timeline.BusyTime(sim.ResGPU)
		if split <= base {
			t.Errorf("%v: device busy %.0f ns split, %.0f ns merged", mode, split, base)
		}
	}
}
