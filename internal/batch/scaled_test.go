package batch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
)

// TestInvalidScaleIsConfigError pins the contract that a bad
// Options.Scale fails the batch up front (like a missing Spec), rather
// than surfacing as per-image decode failures.
func TestInvalidScaleIsConfigError(t *testing.T) {
	_, err := Decode([][]byte{{0xFF}}, Options{Spec: platform.GTX560(), Scale: 3})
	if !errors.Is(err, jpegcodec.ErrUnsupportedScale) {
		t.Fatalf("err = %v, want ErrUnsupportedScale", err)
	}
	if _, err := NewExecutor(Options{Spec: platform.GTX560(), Scale: 5}); !errors.Is(err, jpegcodec.ErrUnsupportedScale) {
		t.Fatalf("NewExecutor err = %v, want ErrUnsupportedScale", err)
	}
}

// TestMixedScaleExecutor streams the same images at different scales
// through one executor and asserts every result is
// byte-identical to its scale's scalar reference — the mixed
// thumbnail/full traffic the per-scale calibrator exists for.
func TestMixedScaleExecutor(t *testing.T) {
	items, err := imagegen.SizeSweep(jfif.Sub420, 0.5, [][2]int{{200, 152}, {97, 75}}, 31)
	if err != nil {
		t.Fatal(err)
	}
	scales := []jpegcodec.Scale{jpegcodec.Scale1, jpegcodec.Scale8, jpegcodec.Scale2, jpegcodec.Scale4}
	type submission struct {
		data  []byte
		scale jpegcodec.Scale
	}
	var subs []submission
	var refs []*jpegcodec.RGBImage
	for round := 0; round < 2; round++ {
		for i, it := range items {
			sc := scales[(round*len(items)+i)%len(scales)]
			subs = append(subs, submission{it.Data, sc})
			d, err := jpegcodec.Open(it.Data, jpegcodec.Options{Scale: sc})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := d.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
		}
	}
	ex, err := NewExecutor(Options{Spec: platform.GTX560(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Bad per-submit scale fails fast without consuming a slot.
	if err := ex.SubmitScaled(context.Background(), 99, subs[0].data, 7); !errors.Is(err, jpegcodec.ErrUnsupportedScale) {
		t.Fatalf("SubmitScaled(7) err = %v", err)
	}
	go func() {
		for i, s := range subs {
			if err := ex.SubmitScaled(context.Background(), i, s.data, s.scale); err != nil {
				t.Error(err)
				break
			}
		}
		ex.Close()
	}()
	got := make([]*ImageResult, len(subs))
	for ir := range ex.Results() {
		ir := ir
		got[ir.Index] = &ir
	}
	for i := range subs {
		name := fmt.Sprintf("image %d scale %v", i, subs[i].scale)
		if got[i] == nil || got[i].Err != nil {
			t.Fatalf("%s: missing or failed: %+v", name, got[i])
		}
		if !bytes.Equal(got[i].Res.Image.Pix, refs[i].Pix) {
			t.Errorf("%s: pixels differ from scalar scaled reference", name)
		}
		got[i].Res.Release()
	}
	for _, r := range refs {
		r.Release()
	}
}

// TestDeliveredFrameIsGeometryOnly pins what a consumer may read from a
// delivered result's Frame: geometry
// (DCOnly, Sub, the MCU grid) stays valid, while the coefficient and
// sample slabs went back to the pools when the image's last band
// finished — not when the consumer releases the pixels. The consumer
// reads while the executor is still decoding later images into the
// recycled slabs, so `go test -race -count=10` covers the hand-over.
func TestDeliveredFrameIsGeometryOnly(t *testing.T) {
	items, err := imagegen.SizeSweep(jfif.Sub420, 0.5, [][2]int{{200, 152}, {97, 75}, {160, 128}}, 47)
	if err != nil {
		t.Fatal(err)
	}
	scales := []jpegcodec.Scale{jpegcodec.Scale1, jpegcodec.Scale8, jpegcodec.Scale2}
	const n = 24
	ex, err := NewExecutor(Options{Spec: platform.GTX560(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < n; i++ {
			if err := ex.SubmitScaled(context.Background(), i, items[i%len(items)].Data, scales[i%len(scales)]); err != nil {
				t.Error(err)
				break
			}
		}
		ex.Close()
	}()
	seen := 0
	for ir := range ex.Results() {
		seen++
		if ir.Err != nil {
			t.Fatalf("image %d: %v", ir.Index, ir.Err)
		}
		f := ir.Res.Frame
		scale := scales[ir.Index%len(scales)]
		if f.Sub != jfif.Sub420 || f.DCOnly() != (scale == jpegcodec.Scale8) || f.MCURows == 0 {
			t.Errorf("image %d: frame geometry lost: sub %v dcOnly %v rows %d", ir.Index, f.Sub, f.DCOnly(), f.MCURows)
		}
		for c := range f.Coeff {
			if f.Coeff[c] != nil || f.Samples[c] != nil || f.NZ[c] != nil {
				t.Errorf("image %d: component %d still holds slabs after delivery", ir.Index, c)
			}
		}
		if w, h := f.OutW, f.OutH; ir.Res.Image.W != w || ir.Res.Image.H != h {
			t.Errorf("image %d: image %dx%d, frame says %dx%d", ir.Index, ir.Res.Image.W, ir.Res.Image.H, w, h)
		}
		ir.Res.Release()
	}
	if seen != n {
		t.Fatalf("%d of %d results", seen, n)
	}
}
