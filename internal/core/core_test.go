package core

import (
	"bytes"
	"image"
	stdjpeg "image/jpeg"
	"testing"

	"hetjpeg/internal/bitstream"
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

// dcOverflowStream is a 64×32 grayscale baseline stream whose 32 blocks
// each carry a DC difference of +2047 under a unit quantiser, so the DC
// predictor passes 32767 at block 17. Coefficients must keep their full
// int32 range through the back phase: narrowing them to int16 wraps the
// later blocks' DC negative and turns white into black.
func dcOverflowStream() []byte {
	seg := func(marker byte, body ...byte) []byte {
		n := len(body) + 2
		return append([]byte{0xFF, marker, byte(n >> 8), byte(n)}, body...)
	}
	// One-code Huffman table: category 11 (DC) or EOB (AC) coded as "0".
	table := func(class, sym byte) []byte {
		b := append([]byte{class << 4, 1}, make([]byte, 15)...)
		return seg(0xC4, append(b, sym)...)
	}
	dqt := append([]byte{0}, bytes.Repeat([]byte{1}, 64)...)
	w := bitstream.NewWriter()
	for range 32 {
		w.WriteBits(0, 1)     // DC category 11
		w.WriteBits(2047, 11) // +2047
		w.WriteBits(0, 1)     // EOB
	}
	var out []byte
	out = append(out, 0xFF, 0xD8)
	out = append(out, seg(0xDB, dqt...)...)
	out = append(out, seg(0xC0, 8, 0, 32, 0, 64, 1, 1, 0x11, 0)...)
	out = append(out, table(0, 11)...)
	out = append(out, table(1, 0)...)
	out = append(out, seg(0xDA, 1, 1, 0x00, 0, 63, 0)...)
	out = append(out, w.Flush()...)
	return append(out, 0xFF, 0xD9)
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
	for _, in := range []struct {
		name string
		data []byte
	}{{"gray", buf.Bytes()}, {"dc-overflow", dcOverflowStream()}} {
		ref, err := Decode(in.data, Options{Mode: ModeSequential, Spec: spec})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for _, mode := range AllModes()[1:] {
			res, err := Decode(in.data, Options{Mode: mode, Spec: spec, Model: model})
			if err != nil {
				t.Fatalf("%s %v: %v", in.name, mode, err)
			}
			if !bytes.Equal(ref.Image.Pix, res.Image.Pix) {
				diff := 0
				for i := range ref.Image.Pix {
					if ref.Image.Pix[i] != res.Image.Pix[i] {
						diff++
					}
				}
				t.Errorf("%s %v: %d/%d bytes differ", in.name, mode, diff, len(ref.Image.Pix))
			}
		}
	}
}

// TestSplitKernelsBitExact pins what Options.SplitKernels means: the
// Section 4.4 ablation prices the split kernels, so the device work costs
// more virtual time, and the pixels stay those of every other mode.
func TestSplitKernelsBitExact(t *testing.T) {
	spec := platform.GTX560()
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		data := encodeTest(t, 200, 144, sub, 0.8)
		ref, err := Decode(data, Options{Mode: ModeSequential, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		merged, err := Decode(data, Options{Mode: ModeGPU, Spec: spec})
		if err != nil {
			t.Fatalf("%v merged: %v", sub, err)
		}
		res, err := Decode(data, Options{Mode: ModeGPU, Spec: spec, SplitKernels: true})
		if err != nil {
			t.Fatalf("%v split: %v", sub, err)
		}
		if !bytes.Equal(ref.Image.Pix, res.Image.Pix) {
			t.Errorf("%v: split kernels change pixels", sub)
		}
		if res.TotalNs <= merged.TotalNs {
			t.Errorf("%v: split kernels take %.0f ns, merged %.0f ns", sub, res.TotalNs, merged.TotalNs)
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
