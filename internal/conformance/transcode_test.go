package conformance

import (
	"bytes"
	"fmt"
	"image/jpeg"
	"math"
	"testing"

	"hetjpeg/internal/batch"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/transcode"
)

// Transcode conformance: the decode → scale → re-encode pipeline is
// gated three ways. Distortion: encoder-alone and full-transcode round
// trips must hold the committed per-quality PSNR / max-error floors
// (the encoder side decoded with Go's image/jpeg, so the floors also
// prove stdlib interoperability of optimized-Huffman and progressive
// output). Exactness: the coefficient-domain DC-only fast path must
// re-encode bit-identically to the pixel round trip at 1/8. Identity:
// transcoding the way imaged's /transcode does (decode through the
// batch executor, then EncodeImage) must produce the same bytes as the
// one-shot path for worker counts 1-8 and every execution mode.

// rgbDistortion compares two same-geometry RGB images: PSNR over all
// channels (+Inf when identical) and the worst single-channel error.
func rgbDistortion(a, b *jpegcodec.RGBImage) (psnr float64, maxErr int) {
	var sq float64
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > maxErr {
			maxErr = d
		}
		sq += float64(d * d)
	}
	if sq == 0 {
		return math.Inf(1), 0
	}
	mse := sq / float64(len(a.Pix))
	return 10 * math.Log10(255*255/mse), maxErr
}

// stdlibRGB decodes a JPEG stream with Go's image/jpeg and flattens it
// to RGB through the stdlib's own color conversion.
func stdlibRGB(t *testing.T, data []byte) *jpegcodec.RGBImage {
	t.Helper()
	std, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("image/jpeg rejects our encoder's output: %v", err)
	}
	b := std.Bounds()
	out := jpegcodec.NewRGBImage(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bb, _ := std.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(x, y, byte(r>>8), byte(g>>8), byte(bb>>8))
		}
	}
	return out
}

// qualityFloor is a committed distortion bound for one quality factor:
// PSNR must not drop below minPSNR dB and no channel of any pixel may
// be off by more than maxErr. Lowering a floor to make a change pass
// is a quality regression by definition.
type qualityFloor struct {
	minPSNR float64
	maxErr  int
}

// encoderFloors bound the encoder-alone round trip (our encoder, Go's
// image/jpeg decoder, detail-0.5 synthetic scene). The measured values
// on the committed encoder are ~3 dB above each floor.
var encoderFloors = map[int]qualityFloor{
	50: {minPSNR: 33.0, maxErr: 28},
	75: {minPSNR: 34.5, maxErr: 24},
	90: {minPSNR: 36.5, maxErr: 20},
	95: {minPSNR: 39.0, maxErr: 16},
}

// TestConformanceEncoderRoundTrip encodes a synthetic scene at each
// committed quality — baseline 4:4:4, baseline 4:2:0 and progressive —
// decodes the stream with Go's image/jpeg, and holds the per-quality
// distortion floors against the pre-encode pixels.
func TestConformanceEncoderRoundTrip(t *testing.T) {
	src := imagegen.Generate(imagegen.Scene{Seed: 7100, Detail: 0.5}, 160, 128)
	variants := []struct {
		name string
		opts jpegcodec.EncodeOptions
	}{
		{"baseline-444", jpegcodec.EncodeOptions{Subsampling: jfif.Sub444, OptimizeHuffman: true}},
		{"baseline-420", jpegcodec.EncodeOptions{Subsampling: jfif.Sub420, OptimizeHuffman: true}},
		{"progressive-444", jpegcodec.EncodeOptions{Subsampling: jfif.Sub444, Progressive: true}},
	}
	for _, q := range []int{50, 75, 90, 95} {
		floor := encoderFloors[q]
		for _, v := range variants {
			t.Run(fmt.Sprintf("q%d-%s", q, v.name), func(t *testing.T) {
				opts := v.opts
				opts.Quality = q
				data, err := jpegcodec.Encode(src, opts)
				if err != nil {
					t.Fatal(err)
				}
				got := stdlibRGB(t, data)
				defer got.Release()
				psnr, maxErr := rgbDistortion(src, got)
				t.Logf("q=%d %s: PSNR %.2f dB, max error %d, %d bytes", q, v.name, psnr, maxErr, len(data))
				if psnr < floor.minPSNR {
					t.Errorf("PSNR %.2f dB below committed floor %.1f", psnr, floor.minPSNR)
				}
				if maxErr > floor.maxErr {
					t.Errorf("max channel error %d above committed bound %d", maxErr, floor.maxErr)
				}
			})
		}
	}
}

// transcodeFloors bound the full-size pixel-path transcode round trip
// (decode → re-encode at quality q → decode again, both decodes ours),
// measured against the decoded input pixels. At q ≥ the input's own
// quality (90) the re-encode is nearly idempotent — requantizing
// already-quantized coefficients — so those floors sit much higher
// than the encoder-alone ones.
var transcodeFloors = map[int]qualityFloor{
	50: {minPSNR: 34.5, maxErr: 26},
	75: {minPSNR: 36.5, maxErr: 22},
	90: {minPSNR: 47.0, maxErr: 8},
	95: {minPSNR: 47.0, maxErr: 9},
}

// TestConformanceTranscodeDistortionFloors runs the full-size pixel
// path at every committed quality and holds the round-trip floors.
func TestConformanceTranscodeDistortionFloors(t *testing.T) {
	src := imagegen.Generate(imagegen.Scene{Seed: 7200, Detail: 0.5}, 160, 128)
	input, err := jpegcodec.Encode(src, jpegcodec.EncodeOptions{Quality: 90, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := jpegcodec.DecodeScalar(input)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Release()

	for _, q := range []int{50, 75, 90, 95} {
		floor := transcodeFloors[q]
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			res, err := transcode.Transcode(input, transcode.Options{Quality: q})
			if err != nil {
				t.Fatal(err)
			}
			if res.FastPath {
				t.Error("full-size transcode claimed the DC-only fast path")
			}
			out, err := jpegcodec.DecodeScalar(res.Data)
			if err != nil {
				t.Fatalf("transcoded output does not decode: %v", err)
			}
			defer out.Release()
			psnr, maxErr := rgbDistortion(orig, out)
			t.Logf("q=%d: PSNR %.2f dB, max error %d, %d -> %d bytes", q, psnr, maxErr, len(input), len(res.Data))
			if psnr < floor.minPSNR {
				t.Errorf("PSNR %.2f dB below committed floor %.1f", psnr, floor.minPSNR)
			}
			if maxErr > floor.maxErr {
				t.Errorf("max channel error %d above committed bound %d", maxErr, floor.maxErr)
			}
		})
	}
}

// TestConformanceTranscodeFastPathExact pins the coefficient-domain
// guarantee: for every baseline corpus item, the 1/8 transcode must
// report the DC-only fast path and its output bytes must be identical
// to explicitly decoding the scaled pixels with the scalar reference
// and running them through the same encoder — no distortion tolerance,
// a single differing byte is a bug.
func TestConformanceTranscodeFastPathExact(t *testing.T) {
	opts := transcode.Options{Scale: jpegcodec.Scale8, Quality: 85}
	for _, it := range corpus(t) {
		it := it
		t.Run(it.Name, func(t *testing.T) {
			res, err := transcode.Transcode(it.Data, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.FastPath != !it.Progressive {
				t.Errorf("FastPath = %v for progressive=%v input", res.FastPath, it.Progressive)
			}
			ref := scaledRef(t, it, jpegcodec.Scale8)
			defer ref.Release()
			want, err := transcode.EncodeImage(ref, opts, false, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Data, want.Data) {
				t.Errorf("1/8 transcode differs from the pixel round trip (%d vs %d bytes)", len(res.Data), len(want.Data))
			}
		})
	}
}

// transcodeIdentityOpts is the option grid for the byte-identity
// matrix: the DC fast path, a pixel path with chroma downsampling, and
// a progressive multi-scan output.
var transcodeIdentityOpts = []transcode.Options{
	{Scale: jpegcodec.Scale8, Quality: 75},
	{Scale: jpegcodec.Scale2, Quality: 90, Subsampling: jfif.Sub420},
	{Quality: 85, Progressive: true, Script: "spectral"},
}

// executorTranscode is imaged's /transcode composition: decode through
// the batch executor at opts.Scale, then re-encode the decoded pixels.
func executorTranscode(t *testing.T, ex *batch.Executor, data []byte, opts transcode.Options) ([]byte, error) {
	ir, err := ex.Decode(t.Context(), data, opts.Scale)
	if err != nil {
		return nil, err
	}
	if ir.Res == nil {
		return nil, ir.Err
	}
	defer ir.Res.Release()
	if ir.Err != nil {
		return nil, ir.Err
	}
	res, err := transcode.EncodeImage(ir.Res.Image, opts, ir.Res.Frame.DCOnly(), 0)
	if err != nil {
		return nil, err
	}
	return res.Data, nil
}

// closeExecutor shuts ex down and waits for its pipeline to drain.
func closeExecutor(ex *batch.Executor) {
	ex.Close()
	for range ex.Results() {
	}
}

// TestConformanceTranscodeSchedulersWorkers transcodes a corpus subset
// through the batch executor at worker counts 1-8, asserting every
// output is byte-identical to the one-shot path.
func TestConformanceTranscodeSchedulersWorkers(t *testing.T) {
	items := corpus(t)
	// Every 3rd item keeps baseline × progressive × subsampling variety
	// without running the full corpus through each executor config.
	var subset []imagegen.Item
	for i := 0; i < len(items); i += 3 {
		subset = append(subset, items[i])
	}
	workerCounts := []int{1, 2, 3, 5, 8}
	if testing.Short() {
		workerCounts = []int{1, 4}
	}
	for oi, opts := range transcodeIdentityOpts {
		refs := make([][]byte, len(subset))
		for i, it := range subset {
			res, err := transcode.Transcode(it.Data, opts)
			if err != nil {
				t.Fatalf("opts %d: one-shot %s: %v", oi, it.Name, err)
			}
			refs[i] = res.Data
		}
		for _, workers := range workerCounts {
			name := fmt.Sprintf("opts%d-w%d", oi, workers)
			ex, err := batch.NewExecutor(batch.Options{
				Spec:    conformSpec,
				Workers: workers,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			popts := opts
			popts.Workers = workers
			for i, it := range subset {
				got, err := executorTranscode(t, ex, it.Data, popts)
				if err != nil {
					t.Errorf("%s: %s: %v", name, it.Name, err)
					continue
				}
				if !bytes.Equal(got, refs[i]) {
					t.Errorf("%s: %s differs from the one-shot transcode", name, it.Name)
				}
			}
			closeExecutor(ex)
		}
	}
}
