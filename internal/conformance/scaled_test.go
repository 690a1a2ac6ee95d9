package conformance

import (
	"bytes"
	"fmt"
	"testing"

	"hetjpeg/internal/batch"
	"hetjpeg/internal/core"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jpegcodec"
)

// Scaled conformance: decode-to-scale output must be byte-identical to
// the scalar scaled reference (Open and Run(1)) across every
// execution mode, the batch scheduler and all worker counts, for the
// full baseline + progressive corpus. Scale 1 rides along to pin the
// scaled plumbing's identity with the original full-size path.

var conformScales = []jpegcodec.Scale{jpegcodec.Scale1, jpegcodec.Scale2, jpegcodec.Scale4, jpegcodec.Scale8}

// scaledRef decodes one corpus item with the single-threaded scalar
// scaled reference, Open and Run(1).
func scaledRef(t *testing.T, it imagegen.Item, scale jpegcodec.Scale) *jpegcodec.RGBImage {
	t.Helper()
	d, err := jpegcodec.Open(it.Data, jpegcodec.Options{Scale: scale})
	if err != nil {
		t.Fatalf("%s scale %v: scalar reference: %v", it.Name, scale, err)
	}
	img, err := d.Run(1)
	if err != nil {
		t.Fatalf("%s scale %v: scalar reference: %v", it.Name, scale, err)
	}
	return img
}

// TestConformanceScaledModesIdentical decodes every corpus file at
// every scale under all six execution modes, and through the
// multi-worker scalar back phase, and asserts the RGB output is
// byte-identical to the scalar scaled reference.
func TestConformanceScaledModesIdentical(t *testing.T) {
	m := trainedModel(t)
	scales := conformScales
	if testing.Short() {
		scales = []jpegcodec.Scale{jpegcodec.Scale2, jpegcodec.Scale8}
	}
	for _, it := range corpus(t) {
		it := it
		t.Run(it.Name, func(t *testing.T) {
			for _, scale := range scales {
				ref := scaledRef(t, it, scale)
				for _, mode := range core.AllModes() {
					res, err := core.Decode(it.Data, core.Options{
						Mode:  mode,
						Spec:  conformSpec,
						Model: m,
						Scale: scale,
					})
					if err != nil {
						t.Fatalf("scale %v mode %v: %v", scale, mode, err)
					}
					if !bytes.Equal(res.Image.Pix, ref.Pix) {
						t.Errorf("scale %v mode %v: pixels differ from scalar scaled reference%s",
							scale, mode, firstPixelDiff(res.Image, ref))
					}
					if res.Stats.Scale != scale.Denominator() {
						t.Errorf("scale %v mode %v: Stats.Scale = %d", scale, mode, res.Stats.Scale)
					}
					res.Release()
				}
				checkScalarWorkers(t, it, scale, ref)
				ref.Release()
			}
		})
	}
}

// TestConformanceScaledSchedulersWorkers decodes the whole corpus as
// batches at every scale through the band scheduler at worker
// counts 1-8, asserting every image matches the scalar scaled
// reference.
func TestConformanceScaledSchedulersWorkers(t *testing.T) {
	items := corpus(t)
	datas := make([][]byte, len(items))
	for i, it := range items {
		datas[i] = it.Data
	}
	scales := conformScales
	workerCounts := []int{1, 2, 3, 5, 8}
	if testing.Short() {
		scales = []jpegcodec.Scale{jpegcodec.Scale8}
		workerCounts = []int{1, 4}
	}
	for _, scale := range scales {
		refs := make([]*jpegcodec.RGBImage, len(items))
		for i, it := range items {
			refs[i] = scaledRef(t, it, scale)
		}
		for _, workers := range workerCounts {
			name := fmt.Sprintf("scale%v-w%d", scale, workers)
			res, err := batch.Decode(datas, batch.Options{
				Spec:    conformSpec,
				Workers: workers,
				Scale:   scale,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, ir := range res.Images {
				if ir.Err != nil {
					t.Errorf("%s: image %s failed: %v", name, items[i].Name, ir.Err)
					continue
				}
				if !bytes.Equal(ir.Res.Image.Pix, refs[i].Pix) {
					t.Errorf("%s: image %s differs from scalar scaled reference%s",
						name, items[i].Name, firstPixelDiff(ir.Res.Image, refs[i]))
				}
				ir.Res.Release()
			}
		}
		for _, r := range refs {
			r.Release()
		}
	}
}
