package core

import (
	"fmt"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
)

// TestPriceAfterRelease: Price reads only the geometry and the per-row
// entropy bits that Frame.Release keeps, so a result priced after its
// slabs went back equals one priced before, task for task, in every
// mode, for baseline and progressive streams at scales 1 and 1/4.
func TestPriceAfterRelease(t *testing.T) {
	spec := platform.GTX560()
	model := defaultModel(t, spec)
	for i, in := range []goldenInput{goldenInputs[2], goldenInputs[3]} {
		img := imagegen.Generate(imagegen.Scene{Seed: 7300 + int64(i), Detail: 0.6}, in.w, in.h)
		data, err := jpegcodec.Encode(img, in.opts)
		img.Release()
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for _, scale := range []jpegcodec.Scale{jpegcodec.Scale1, jpegcodec.Scale4} {
			p, err := Prepare(data, Options{Spec: spec, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			// Step over a one-band plan ends the entropy stage and, unlike
			// EntropyDecode, keeps the frame's slabs.
			f := p.Frame()
			bp := jpegcodec.PlanBands(f, 0, f.MCURows, f.MCURows)
			for !p.Done() {
				if _, _, err := p.Step(nil, bp); err != nil {
					t.Fatal(err)
				}
			}
			if f.Coeff[0] == nil {
				t.Fatal("the frame lost its slabs before Release")
			}
			before := map[Mode]*Result{}
			for _, mode := range AllModes() {
				if before[mode], err = Price(f, p.SalvageReport(), Options{Mode: mode, Spec: spec, Model: model}); err != nil {
					t.Fatalf("%s 1:%d %v: %v", in.name, scale.Denominator(), mode, err)
				}
			}
			p.Release()
			if f.Coeff[0] != nil || f.Samples[0] != nil {
				t.Fatal("Release kept the frame's slabs")
			}
			for _, mode := range AllModes() {
				name := fmt.Sprintf("%s 1:%d %v", in.name, scale.Denominator(), mode)
				after, err := Price(f, p.SalvageReport(), Options{Mode: mode, Spec: spec, Model: model})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				b := before[mode]
				if after.TotalNs != b.TotalNs || after.HuffNs != b.HuffNs || after.Stats != b.Stats ||
					len(after.Timeline.Tasks()) != len(b.Timeline.Tasks()) || taskDigest(after) != taskDigest(b) {
					t.Errorf("%s: priced after release (%.1f ns, Huffman %.1f, %+v, %d tasks) differs from before (%.1f ns, Huffman %.1f, %+v, %d tasks)",
						name, after.TotalNs, after.HuffNs, after.Stats, len(after.Timeline.Tasks()),
						b.TotalNs, b.HuffNs, b.Stats, len(b.Timeline.Tasks()))
				}
			}
		}
	}
}
