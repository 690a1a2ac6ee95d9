package core

import (
	"bytes"
	"image"
	stdjpeg "image/jpeg"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
)

func encodeTest(t *testing.T, w, h int, sub jfif.Subsampling, detail float64) []byte {
	t.Helper()
	items, err := imagegen.SizeSweep(sub, detail, [][2]int{{w, h}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return items[0].Data
}

func defaultModel(t testing.TB, spec *platform.Spec) *perfmodel.Model {
	t.Helper()
	m, err := perfmodel.Default(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllModesBitExact(t *testing.T) {
	spec := platform.GTX560()
	model := defaultModel(t, spec)
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, dim := range [][2]int{{160, 120}, {333, 257}, {512, 384}} {
			data := encodeTest(t, dim[0], dim[1], sub, 0.7)
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
					diff := 0
					first := -1
					for i := range ref.Image.Pix {
						if ref.Image.Pix[i] != res.Image.Pix[i] {
							diff++
							if first < 0 {
								first = i
							}
						}
					}
					t.Errorf("%v %v %v: %d/%d bytes differ (first at %d, pixel (%d,%d)); stats=%+v",
						sub, dim, mode, diff, len(ref.Image.Pix), first,
						(first/3)%dim[0], (first/3)/dim[0], res.Stats)
				}
			}
		}
	}
}

func TestAllModesBitExactGrayscale(t *testing.T) {
	spec := platform.GTX680()
	model := defaultModel(t, spec)
	gray := image.NewGray(image.Rect(0, 0, 130, 94))
	for i := range gray.Pix {
		gray.Pix[i] = byte((i*13 + i/130*7) % 256)
	}
	var buf bytes.Buffer
	if err := stdjpeg.Encode(&buf, gray, &stdjpeg.Options{Quality: 88}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	ref, err := Decode(data, Options{Mode: ModeSequential, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range AllModes()[1:] {
		res, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
		if err != nil {
			t.Fatalf("gray %v: %v", mode, err)
		}
		if !bytes.Equal(ref.Image.Pix, res.Image.Pix) {
			t.Errorf("gray %v: pixels differ", mode)
		}
	}
}

func TestSplitKernelsBitExact(t *testing.T) {
	spec := platform.GTX560()
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		data := encodeTest(t, 200, 144, sub, 0.8)
		ref, err := Decode(data, Options{Mode: ModeSequential, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Decode(data, Options{Mode: ModeGPU, Spec: spec, SplitKernels: true})
		if err != nil {
			t.Fatalf("%v split: %v", sub, err)
		}
		if !bytes.Equal(ref.Image.Pix, res.Image.Pix) {
			t.Errorf("%v: split kernels change pixels", sub)
		}
	}
}

func TestTimelinesValid(t *testing.T) {
	spec := platform.GT430()
	model := defaultModel(t, spec)
	data := encodeTest(t, 256, 256, jfif.Sub422, 0.5)
	for _, mode := range AllModes() {
		res, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := res.Timeline.Validate(); err != nil {
			t.Errorf("%v: invalid timeline: %v", mode, err)
		}
		if res.TotalNs <= 0 {
			t.Errorf("%v: non-positive makespan", mode)
		}
		if res.HuffNs <= 0 || res.HuffNs > res.TotalNs {
			t.Errorf("%v: HuffNs %v outside (0, %v]", mode, res.HuffNs, res.TotalNs)
		}
	}
}

func TestChunkingSmallImage(t *testing.T) {
	// Images smaller than one chunk degenerate to a single kernel
	// invocation (Section 6.2).
	spec := platform.GTX560()
	data := encodeTest(t, 64, 48, jfif.Sub422, 0.5)
	res, err := Decode(data, Options{Mode: ModePipelinedGPU, Spec: spec, ChunkRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Chunks != 1 {
		t.Errorf("Chunks=%d want 1", res.Stats.Chunks)
	}
}

func TestPartitionAssignsWorkToBothSides(t *testing.T) {
	// On the mid-range machine a large detailed image should use both
	// CPU and GPU under SPS.
	spec := platform.GT430()
	model := defaultModel(t, spec)
	data := encodeTest(t, 768, 768, jfif.Sub422, 0.8)
	res, err := Decode(data, Options{Mode: ModeSPS, Spec: spec, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.GPUMCURows == 0 {
		t.Error("SPS sent nothing to the GPU")
	}
	if res.Stats.CPUMCURows == 0 {
		t.Error("SPS on a weak GPU should keep CPU work")
	}
	t.Logf("GT430 SPS split: gpu=%d cpu=%d of %d", res.Stats.GPUMCURows, res.Stats.CPUMCURows, res.Stats.MCURows)
}
