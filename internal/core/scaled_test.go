package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
)

// TestScaledModesIdenticalQuick decodes one fixture per subsampling
// through every mode at every scale and asserts byte-identity with the
// scalar scaled reference (the conformance harness runs the full
// corpus; this is the fast in-package gate).
func TestScaledModesIdenticalQuick(t *testing.T) {
	spec := platform.ByName("GTX 560")
	model, err := perfmodel.Default(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		items, err := imagegen.SizeSweep(sub, 0.6, [][2]int{{161, 117}}, 23)
		if err != nil {
			t.Fatal(err)
		}
		data := items[0].Data
		for _, scale := range []jpegcodec.Scale{jpegcodec.Scale1, jpegcodec.Scale2, jpegcodec.Scale4, jpegcodec.Scale8} {
			d, err := jpegcodec.Open(data, jpegcodec.Options{Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := d.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range AllModes() {
				name := fmt.Sprintf("%v-scale%v-%v", sub, scale, mode)
				res, err := Decode(data, Options{
					Mode: mode, Spec: spec, Model: model, Scale: scale,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Image.W != ref.W || res.Image.H != ref.H {
					t.Fatalf("%s: dimensions %dx%d, want %dx%d", name, res.Image.W, res.Image.H, ref.W, ref.H)
				}
				if !bytes.Equal(res.Image.Pix, ref.Pix) {
					t.Errorf("%s: pixels differ from scalar scaled reference", name)
				}
				if res.Stats.Scale != scale.Denominator() {
					t.Errorf("%s: Stats.Scale = %d, want %d", name, res.Stats.Scale, scale.Denominator())
				}
				res.Release()
			}
			ref.Release()
		}
	}
}

// TestScaledVirtualMatchesExecuted asserts a VirtualOnly scaled decode
// produces the same virtual timeline totals as the executing decode:
// skipping the pixel work must change no scaled cost plan.
func TestScaledVirtualMatchesExecuted(t *testing.T) {
	spec := platform.ByName("GT 430")
	items, err := imagegen.SizeSweep(jfif.Sub420, 0.5, [][2]int{{200, 152}}, 29)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []jpegcodec.Scale{jpegcodec.Scale2, jpegcodec.Scale8} {
		for _, mode := range []Mode{ModeGPU, ModePipelinedGPU} {
			real, err := Decode(items[0].Data, Options{Mode: mode, Spec: spec, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			virt, err := Decode(items[0].Data, Options{Mode: mode, Spec: spec, Scale: scale, VirtualOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if d := real.TotalNs - virt.TotalNs; d > 1e-6*(1+real.TotalNs) || d < -1e-6*(1+real.TotalNs) {
				t.Errorf("scale %v mode %v: executed %.3f ns vs virtual %.3f ns", scale, mode, real.TotalNs, virt.TotalNs)
			}
			real.Release()
			virt.Release()
		}
	}
}

// TestScaledInvalidScaleSentinel pins the typed error through the core
// API.
func TestScaledInvalidScaleSentinel(t *testing.T) {
	spec := platform.ByName("GTX 560")
	_, err := Decode([]byte("not a jpeg"), Options{Mode: ModeSequential, Spec: spec, Scale: 3})
	if !errors.Is(err, jpegcodec.ErrUnsupportedScale) {
		t.Fatalf("err = %v, want ErrUnsupportedScale", err)
	}
}
