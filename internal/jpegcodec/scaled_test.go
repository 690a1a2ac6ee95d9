package jpegcodec

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hetjpeg/internal/jfif"
)

var allScales = []Scale{Scale1, Scale2, Scale4, Scale8}

func encodeFixture(t testing.TB, w, h int, sub jfif.Subsampling, seed int64, opts ...func(*EncodeOptions)) []byte {
	t.Helper()
	img := makeTestImage(w, h, seed)
	eo := EncodeOptions{Quality: 85, Subsampling: sub}
	for _, o := range opts {
		o(&eo)
	}
	data, err := Encode(img, eo)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScaledGeometry pins the output dimensions: ceil(coded/scale) on
// both axes, including sizes with partial MCUs.
func TestScaledGeometry(t *testing.T) {
	data := encodeFixture(t, 97, 75, jfif.Sub420, 3)
	want := map[Scale][2]int{
		Scale1: {97, 75}, Scale2: {49, 38}, Scale4: {25, 19}, Scale8: {13, 10},
	}
	for _, s := range allScales {
		img, err := decodeRun(data, Options{Scale: s}, 1)
		if err != nil {
			t.Fatalf("scale %v: %v", s, err)
		}
		if img.W != want[s][0] || img.H != want[s][1] {
			t.Errorf("scale %v: got %dx%d, want %dx%d", s, img.W, img.H, want[s][0], want[s][1])
		}
		img.Release()
	}
}

// TestScaleValidation pins the typed sentinel: every invalid scale
// fails with ErrUnsupportedScale before any stream work, and the parser
// accepts exactly the documented spellings.
func TestScaleValidation(t *testing.T) {
	data := encodeFixture(t, 32, 32, jfif.Sub444, 1)
	for _, bad := range []Scale{-1, 3, 5, 6, 7, 9, 16, 64} {
		if _, _, err := PrepareDecodeScaled(data, bad); !errors.Is(err, ErrUnsupportedScale) {
			t.Errorf("scale %d: err = %v, want ErrUnsupportedScale", bad, err)
		}
		if _, err := Open(data, Options{Scale: bad}); !errors.Is(err, ErrUnsupportedScale) {
			t.Errorf("Open at scale %d: err = %v, want ErrUnsupportedScale", bad, err)
		}
	}
	parses := map[string]struct {
		s  Scale
		ok bool
	}{
		"":    {Scale1, true},
		"1":   {Scale1, true},
		"1/1": {Scale1, true},
		"1/2": {Scale2, true},
		"2":   {Scale2, true},
		"1/4": {Scale4, true},
		"4":   {Scale4, true},
		"1/8": {Scale8, true},
		"8":   {Scale8, true},
		"3":   {0, false},
		"1/3": {0, false},
		"0.5": {0, false},
		"x":   {0, false},
	}
	for in, want := range parses {
		s, ok := ParseScale(in)
		if ok != want.ok || (ok && s != want.s) {
			t.Errorf("ParseScale(%q) = %v, %v; want %v, %v", in, s, ok, want.s, want.ok)
		}
	}
}

// TestScale8EqualsDCMean asserts the 1/8-scale plane samples are
// exactly the per-block DC mean (round-half-up of the dequantized DC
// over 8, level-shifted, clamped) — for baseline DC-only frames and for
// progressive frames, whose coefficient storage stays full.
func TestScale8EqualsDCMean(t *testing.T) {
	for _, progressive := range []bool{false, true} {
		for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
			name := fmt.Sprintf("%v-prog=%v", sub, progressive)
			data := encodeFixture(t, 97, 75, sub, 7, func(eo *EncodeOptions) { eo.Progressive = progressive })

			// Full-resolution decode supplies the reference DC coefficients.
			full, edFull, err := PrepareDecode(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := edFull.DecodeAll(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			f, ed, err := PrepareDecodeScaled(data, Scale8)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := ed.DecodeAll(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out := NewRGBImage(f.OutW, f.OutH)
			ParallelPhaseScalar(f, 0, f.MCURows, out)

			for c := range f.Planes {
				p := f.Planes[c]
				q := full.QuantInt(c)
				pw := p.PlaneW()
				for by := 0; by < p.BlockRows; by++ {
					for bx := 0; bx < p.BlocksPerRow; bx++ {
						dc := full.blockAt(c, by*p.BlocksPerRow+bx)[0] * q[0]
						want := (dc + 4) >> 3
						want += 128
						if want < 0 {
							want = 0
						}
						if want > 255 {
							want = 255
						}
						got := int32(f.Samples[c][by*pw+bx])
						if got != want {
							t.Fatalf("%s: component %d block (%d,%d): sample %d, DC mean %d",
								name, c, bx, by, got, want)
						}
					}
				}
			}
			out.Release()
			f.Release()
			full.Release()
		}
	}
}

// boxDownsample averages s x s windows of the padded full-resolution
// plane (the reference "decode full then shrink" pipeline).
func boxDownsample(plane []byte, pw int, s, ow, oh int) []byte {
	out := make([]byte, ow*oh)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			sum := 0
			for dy := 0; dy < s; dy++ {
				for dx := 0; dx < s; dx++ {
					sum += int(plane[(y*s+dy)*pw+x*s+dx])
				}
			}
			out[y*ow+x] = byte((sum + s*s/2) / (s * s))
		}
	}
	return out
}

// Documented tolerances of scaled reconstruction against full decode +
// box downsampling, measured on the luma plane of a quality-85 fixture
// carrying a uniform +-24-level high-frequency noise overlay — the
// worst case for a scaled IDCT, since it keeps only the top-left NxN
// frequencies while a box filter folds every frequency in. Smooth
// content (the plain makeTestImage scene) stays within max 2 / mean
// 0.4; the bounds below hold for the noise overlay.
const (
	boxTolMax  = 24  // per-sample bound under the +-24 noise overlay
	boxTolMean = 4.0 // mean absolute error bound
)

// makeBusyImage overlays hash-driven high-frequency texture on the
// smooth test scene, so the box-downsample bound is measured on content
// with real energy in the frequencies the scaled IDCT discards.
func makeBusyImage(w, h int, seed int64) *RGBImage {
	img := makeTestImage(w, h, seed)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			z := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ uint64(seed)
			z ^= z >> 29
			z *= 0xBF58476D1CE4E5B9
			z ^= z >> 32
			n := int(z%49) - 24
			i := (y*w + x) * 3
			for k := 0; k < 3; k++ {
				v := int(img.Pix[i+k]) + n
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				img.Pix[i+k] = byte(v)
			}
		}
	}
	return img
}

// TestScaledVsBoxDownsample bounds the divergence of 1/2- and 1/4-scale
// luma planes from full decode + box downsample.
func TestScaledVsBoxDownsample(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub420} {
		busy := makeBusyImage(160, 128, 11)
		data, err := Encode(busy, EncodeOptions{Quality: 85, Subsampling: sub})
		if err != nil {
			t.Fatal(err)
		}
		full, ed, err := PrepareDecode(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := ed.DecodeAll(); err != nil {
			t.Fatal(err)
		}
		outFull := NewRGBImage(full.Img.Width, full.Img.Height)
		ParallelPhaseScalar(full, 0, full.MCURows, outFull)

		for _, s := range []Scale{Scale2, Scale4} {
			f, eds, err := PrepareDecodeScaled(data, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := eds.DecodeAll(); err != nil {
				t.Fatal(err)
			}
			out := NewRGBImage(f.OutW, f.OutH)
			ParallelPhaseScalar(f, 0, f.MCURows, out)

			den := s.Denominator()
			p := f.Planes[0]
			ow := (full.Planes[0].CompW + den - 1) / den
			oh := (full.Planes[0].CompH + den - 1) / den
			ref := boxDownsample(full.Samples[0], full.Planes[0].PlaneW(), den, ow, oh)
			pw := p.PlaneW()
			maxd, sum, n := 0, 0, 0
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					d := int(f.Samples[0][y*pw+x]) - int(ref[y*ow+x])
					if d < 0 {
						d = -d
					}
					if d > maxd {
						maxd = d
					}
					sum += d
					n++
				}
			}
			mean := float64(sum) / float64(n)
			t.Logf("%v scale %v: luma vs box downsample max |diff| = %d, mean = %.3f", sub, s, maxd, mean)
			if maxd > boxTolMax {
				t.Errorf("%v scale %v: max |diff| = %d exceeds documented bound %d", sub, s, maxd, boxTolMax)
			}
			if mean > boxTolMean {
				t.Errorf("%v scale %v: mean |diff| = %.3f exceeds documented bound %.1f", sub, s, mean, boxTolMean)
			}
			out.Release()
			f.Release()
		}
		outFull.Release()
		full.Release()
	}
}

// TestScaledWorkerIdentity asserts the intra-image worker pool and the
// band plan produce byte-identical scaled output to the sequential
// fused pipeline at every scale and subsampling (including the 4:2:0
// seam deferral at reduced geometry).
func TestScaledWorkerIdentity(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		data := encodeFixture(t, 113, 97, sub, 5)
		for _, s := range allScales {
			f, ed, err := PrepareDecodeScaled(data, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := ed.DecodeAll(); err != nil {
				t.Fatal(err)
			}
			ref := NewRGBImage(f.OutW, f.OutH)
			ParallelPhaseScalar(f, 0, f.MCURows, ref)

			for _, workers := range []int{2, 3, 5} {
				got := NewRGBImage(f.OutW, f.OutH)
				ParallelPhaseScalarWorkers(f, 0, f.MCURows, got, workers)
				if !bytes.Equal(got.Pix, ref.Pix) {
					t.Fatalf("%v scale %v workers %d: pixels differ from sequential", sub, s, workers)
				}
				got.Release()
			}
			for _, bandRows := range []int{1, 2, 3} {
				got := NewRGBImage(f.OutW, f.OutH)
				bp := PlanBands(f, 0, f.MCURows, bandRows)
				var cs ConvertScratch
				for i := 0; i < bp.Bands(); i++ {
					bp.ExecBand(i, got, &cs)
				}
				if !bytes.Equal(got.Pix, ref.Pix) {
					t.Fatalf("%v scale %v bandRows %d: band plan differs from sequential", sub, s, bandRows)
				}
				got.Release()
			}
			ref.Release()
			f.Release()
		}
	}
}

// TestScaledRestartParallelEntropy asserts the restart-parallel entropy
// decoder fills the DC-only coefficient buffer identically to the
// sequential decoder.
func TestScaledRestartParallelEntropy(t *testing.T) {
	data := encodeFixture(t, 96, 80, jfif.Sub420, 9, func(eo *EncodeOptions) { eo.RestartInterval = 4 })
	fSeq, ed, err := PrepareDecodeScaled(data, Scale8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	fPar, _, err := PrepareDecodeScaled(data, Scale8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAllParallelRestart(fPar, 4); err != nil {
		t.Fatal(err)
	}
	for c := range fSeq.Coeff {
		if !int32SlicesEqual(fSeq.Coeff[c], fPar.Coeff[c]) {
			t.Fatalf("component %d: parallel restart DC coefficients differ", c)
		}
	}
	fSeq.Release()
	fPar.Release()
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScale8ProgressiveSkipsACScans pins the DC-only scan-skip: a
// progressive 1/8-scale decode reads none of the AC scans' entropy
// bits (its bit accounting covers only the DC scans), while its output
// still matches the full decode's DC coefficients exactly (covered by
// TestScale8EqualsDCMean).
func TestScale8ProgressiveSkipsACScans(t *testing.T) {
	data := encodeFixture(t, 160, 128, jfif.Sub420, 13, func(eo *EncodeOptions) { eo.Progressive = true })
	full, edFull, err := PrepareDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := edFull.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	f, ed, err := PrepareDecodeScaled(data, Scale8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	fullBits, dcBits := edFull.EntropyBitsTotal(), ed.EntropyBitsTotal()
	if dcBits <= 0 {
		t.Fatalf("DC-only decode consumed %d bits", dcBits)
	}
	// The AC scans dominate a progressive stream; skipping them must
	// shed the large majority of the entropy work.
	if dcBits*2 > fullBits {
		t.Errorf("1/8 progressive decode consumed %d of %d entropy bits; want < half", dcBits, fullBits)
	}
	f.Release()
	full.Release()
}

// TestTruncatedStreamsAtEveryScale feeds progressively truncated valid
// streams to the scaled decoder; every prefix at every scale must
// either decode or fail cleanly, never panic.
func TestTruncatedStreamsAtEveryScale(t *testing.T) {
	for _, progressive := range []bool{false, true} {
		data := encodeFixture(t, 64, 48, jfif.Sub420, 4, func(eo *EncodeOptions) { eo.Progressive = progressive })
		for _, s := range allScales {
			for cut := 0; cut < len(data); cut += 11 {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("prog=%v scale %v: panic at truncation %d: %v", progressive, s, cut, r)
						}
					}()
					img, err := decodeRun(data[:cut], Options{Scale: s}, 1)
					if err == nil {
						img.Release()
					}
				}()
			}
		}
	}
}
