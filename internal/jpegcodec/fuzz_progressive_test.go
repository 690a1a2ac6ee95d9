package jpegcodec

import (
	"testing"

	"hetjpeg/internal/jfif"
)

// FuzzProgressiveDecode fuzzes the progressive scan parser and the
// EOBRUN/successive-approximation decode paths end to end: any input
// must either decode or fail with an error — panics and runaway
// allocations are bugs. Seeds are generated progressive fixtures (every
// script shape, subsampled and not, with and without restart markers,
// and q100 noise whose refinement blocks owe over 32 correction bits)
// plus truncations, so mutation starts from deep inside the scan
// machinery rather than from random bytes that die in the marker loop.
func FuzzProgressiveDecode(f *testing.F) {
	img := testImage(40, 24, 5)
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub420} {
		for _, script := range progScripts {
			for _, ri := range []int{0, 2} {
				data, err := Encode(img, EncodeOptions{
					Quality: 80, Subsampling: sub, Progressive: true,
					Script: script, RestartInterval: ri,
				})
				if err != nil {
					f.Fatal(err)
				}
				f.Add(data)
				f.Add(data[:len(data)*2/3])
			}
		}
	}
	// Dense q100 noise under deep successive approximation: refinement
	// blocks owing more than 32 correction bits.
	noisy := makeNoisyImage(32, 24, 9)
	for _, ri := range []int{0, 2} {
		data, err := Encode(noisy, EncodeOptions{Quality: 100, Subsampling: jfif.Sub444, Progressive: true, Script: ScriptDeepSA(), RestartInterval: ri})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)*2/3])
	}
	noisy.Release()
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := jfif.Parse(data)
		if err != nil {
			return
		}
		if im.Width*im.Height > 1<<20 {
			// Mutated dimension fields can demand GB-sized coefficient
			// buffers; decoding correctness is covered below that size.
			return
		}
		checkPathsAgree(t, "fuzz", data)
		fr, ed, err := PrepareDecode(data)
		if err != nil {
			return
		}
		defer fr.Release()
		if err := ed.DecodeAll(); err != nil {
			return
		}
		out := NewRGBImage(fr.Img.Width, fr.Img.Height)
		defer out.Release()
		ParallelPhaseScalar(fr, 0, fr.MCURows, out)
	})
}
