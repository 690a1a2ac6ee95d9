package jpegcodec

import (
	"bytes"
	"fmt"
	"testing"

	"hetjpeg/internal/jfif"
)

// bandFixture encodes a synthetic image and entropy-decodes it back to
// a frame ready for back-phase execution.
func bandFixture(t *testing.T, w, h int, sub jfif.Subsampling, seed int64) *Frame {
	t.Helper()
	data, err := Encode(makeTestImage(w, h, seed), EncodeOptions{Quality: 85, Subsampling: sub})
	if err != nil {
		t.Fatal(err)
	}
	f, ed, err := PrepareDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	return f
}

// BandPlan's contract: any band decomposition, executed in any order,
// is byte-identical to the sequential fused pipeline, 4:2:0 seams
// included. The batch scheduler relies on this for every decode.
func TestBandPlanIdentity(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, wh := range [][2]int{{129, 97}, {320, 243}} {
			f := bandFixture(t, wh[0], wh[1], sub, 88)
			want := NewRGBImage(f.Img.Width, f.Img.Height)
			ParallelPhaseScalar(f, 0, f.MCURows, want)

			for _, bandRows := range []int{1, 2, 3, 7, f.MCURows, f.MCURows + 5} {
				t.Run(fmt.Sprintf("%v/%dx%d/band%d", sub, wh[0], wh[1], bandRows), func(t *testing.T) {
					got := NewRGBImage(f.Img.Width, f.Img.Height)
					bp := PlanBands(f, 0, f.MCURows, bandRows)
					scratch := &ConvertScratch{}
					// Reverse order: bands must not depend on each other.
					for i := bp.Bands() - 1; i >= 0; i-- {
						bp.ExecBand(i, got, scratch)
					}
					if !bytes.Equal(got.Pix, want.Pix) {
						t.Fatalf("band decomposition differs from sequential pipeline")
					}
					got.Release()
				})
			}
			want.Release()
		}
	}
}

// A ConvertScratch reused across frames of different widths must keep
// producing correct rows (it only ever grows).
func TestConvertScratchReuseAcrossFrames(t *testing.T) {
	scratch := &ConvertScratch{}
	for _, wh := range [][2]int{{640, 480}, {64, 64}, {320, 240}} {
		f := bandFixture(t, wh[0], wh[1], jfif.Sub420, 17)
		want := NewRGBImage(f.Img.Width, f.Img.Height)
		ParallelPhaseScalar(f, 0, f.MCURows, want)
		got := NewRGBImage(f.Img.Width, f.Img.Height)
		bp := PlanBands(f, 0, f.MCURows, 2)
		for i := 0; i < bp.Bands(); i++ {
			bp.ExecBand(i, got, scratch)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%dx%d: shared scratch corrupted output", wh[0], wh[1])
		}
		got.Release()
		want.Release()
	}
}
