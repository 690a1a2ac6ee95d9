package kernels

import (
	"bytes"
	"fmt"
	"testing"

	"hetjpeg/internal/gpusim"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
)

// preparedScaled decodes a generated fixture at the given scale and
// returns the frame plus the scalar scaled reference pixels.
func preparedScaled(t testing.TB, w, h int, sub jfif.Subsampling, scale jpegcodec.Scale) (*jpegcodec.Frame, *jpegcodec.RGBImage) {
	t.Helper()
	items, err := imagegen.SizeSweep(sub, 0.7, [][2]int{{w, h}}, 19)
	if err != nil {
		t.Fatal(err)
	}
	f, ed, err := jpegcodec.PrepareDecodeScaled(items[0].Data, scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	ref := jpegcodec.NewRGBImage(f.OutW, f.OutH)
	jpegcodec.ParallelPhaseScalar(f, 0, f.MCURows, ref)
	return f, ref
}

// TestEngineScaledMatchesScalar asserts the device kernels reproduce the
// scalar scaled reference byte for byte at every scale, subsampling and
// kernel-merging mode, whole-image and chunked.
func TestEngineScaledMatchesScalar(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, scale := range []jpegcodec.Scale{jpegcodec.Scale2, jpegcodec.Scale4, jpegcodec.Scale8} {
			for _, merged := range []bool{true, false} {
				name := fmt.Sprintf("%v-scale%v-merged%v", sub, scale, merged)
				f, ref := preparedScaled(t, 220, 164, sub, scale)
				dev := gpusim.New(platform.GTX560())
				eng := NewEngine(dev, f, merged)
				out := jpegcodec.NewRGBImage(f.OutW, f.OutH)
				eng.DecodeChunk(0, f.MCURows, -1, -1, out)
				if !bytes.Equal(ref.Pix, out.Pix) {
					t.Errorf("%s: whole-image device output differs from scalar scaled reference", name)
				}

				// Chunked with 4:2:0-aware bounds at scaled geometry.
				eng2 := NewEngine(gpusim.New(platform.GTX680()), f, merged)
				out2 := jpegcodec.NewRGBImage(f.OutW, f.OutH)
				prevY := 0
				for m0 := 0; m0 < f.MCURows; m0 += 3 {
					m1 := m0 + 3
					if m1 > f.MCURows {
						m1 = f.MCURows
					}
					var y1 int
					if m1 == f.MCURows {
						y1 = f.OutH
					} else {
						y1 = m1 * f.MCUOutH
						if sub == jfif.Sub420 {
							y1--
						}
					}
					eng2.DecodeChunk(m0, m1, prevY, y1, out2)
					prevY = y1
				}
				if !bytes.Equal(ref.Pix, out2.Pix) {
					t.Errorf("%s: chunked device output differs from scalar scaled reference", name)
				}
				eng.Release()
				eng2.Release()
			}
		}
	}
}
