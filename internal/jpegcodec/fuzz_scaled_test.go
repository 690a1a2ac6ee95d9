package jpegcodec

import (
	"bytes"
	"testing"

	"hetjpeg/internal/jfif"
)

// FuzzScaledDecode fuzzes decode-to-scale end to end: any input at any
// scale must either decode or fail with an error — panics and runaway
// allocations are bugs. The scale byte is fuzzed alongside the stream,
// so invalid scales must keep returning the typed ErrUnsupportedScale
// sentinel (never reaching the parser) while valid ones exercise the
// DC-only entropy path, the scaled IDCT dispatch, the scaled 4:2:0
// seam geometry and the pipelined decode. Seeds cover every
// subsampling, baseline and progressive, with and without restart
// markers, plus truncations.
func FuzzScaledDecode(f *testing.F) {
	img := testImage(40, 24, 6)
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, progressive := range []bool{false, true} {
			for _, ri := range []int{0, 3} {
				data, err := Encode(img, EncodeOptions{
					Quality: 80, Subsampling: sub,
					Progressive: progressive, RestartInterval: ri,
				})
				if err != nil {
					f.Fatal(err)
				}
				for _, s := range []byte{1, 2, 4, 8} {
					f.Add(s, data)
				}
				f.Add(byte(8), data[:len(data)*2/3])
				f.Add(byte(3), data) // invalid scale seed
			}
		}
	}
	f.Fuzz(func(t *testing.T, scaleByte byte, data []byte) {
		scale := Scale(scaleByte)
		if scale.Validate() != nil {
			// Invalid scales must fail with the sentinel before any
			// stream work, for any input bytes.
			if _, _, err := PrepareDecodeScaled(data, scale); err == nil {
				t.Fatalf("scale %d: invalid scale accepted", scaleByte)
			}
			return
		}
		im, err := jfif.Parse(data)
		if err != nil {
			return
		}
		if im.Width*im.Height > 1<<20 {
			// Mutated dimension fields can demand GB-sized buffers;
			// decoding correctness is covered below that size.
			return
		}
		checkPathsAgree(t, "fuzz", data)
		// The pipelined decode (workers 2) must fail exactly when the
		// sequential one does, with its error, and otherwise match it.
		seq, seqErr := decodeRun(data, Options{Scale: scale}, 1)
		pip, pipErr := decodeRun(data, Options{Scale: scale}, 2)
		if (seqErr == nil) != (pipErr == nil) || seqErr != nil && seqErr.Error() != pipErr.Error() {
			t.Fatalf("scale %d: sequential error %v, pipelined error %v", scaleByte, seqErr, pipErr)
		}
		if seqErr != nil {
			return
		}
		defer seq.Release()
		defer pip.Release()
		if !bytes.Equal(seq.Pix, pip.Pix) {
			t.Fatalf("scale %d: pipelined pixels differ from the sequential decode", scaleByte)
		}
	})
}
