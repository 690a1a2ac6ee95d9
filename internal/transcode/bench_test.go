package transcode

import (
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
)

// Transcode benchmarks; the tracked figures are the benchmark's
// transcode_mixed workload (benchmark/README.md). The headline
// comparison here is ThumbFastPath vs
// ThumbNaive on the same input and output geometry — the
// coefficient-domain DC-only thumbnail against the naive full decode +
// box downsample + encode, which the fast path must beat by ≥3×. The
// remaining rows track the pixel-path transcode per output flavor.

// benchInput builds the 2048×1536 4:2:0 bench-corpus geometry used by
// the decode trajectories — a photo-like generated scene (the hash
// fixture testJPEG emits is pure noise, which inflates the shared
// entropy stage and hides the back-phase difference under test) — as a
// baseline stream so the 1/8 path rides DC-only storage.
func benchInput(b *testing.B) []byte {
	img := imagegen.Generate(imagegen.Scene{Seed: 7300, Detail: 0.4}, 2048, 1536)
	data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub420})
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func benchTranscode(b *testing.B, data []byte, opts Options, fn func([]byte, Options) (*Result, error)) {
	res, err := fn(data, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(res.W * res.H * 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranscodeThumbFastPath is the DC-only 1/8 thumbnail: no
// pixel-domain IDCT runs on the decode side.
func BenchmarkTranscodeThumbFastPath(b *testing.B) {
	benchTranscode(b, benchInput(b), Options{Scale: jpegcodec.Scale8, Quality: 80}, Transcode)
}

// BenchmarkTranscodeThumbNaive is the same thumbnail by brute force:
// full-size decode, pixel-domain 8× box downsample, encode.
func BenchmarkTranscodeThumbNaive(b *testing.B) {
	benchTranscode(b, benchInput(b), Options{Scale: jpegcodec.Scale8, Quality: 80}, NaiveThumbnail)
}

// BenchmarkTranscodeHalf is the pixel path at 1/2 with chroma
// downsampling on the output.
func BenchmarkTranscodeHalf(b *testing.B) {
	benchTranscode(b, benchInput(b), Options{Scale: jpegcodec.Scale2, Quality: 85, Subsampling: jfif.Sub420}, Transcode)
}

// BenchmarkTranscodeFull is the full-size re-encode (quality change
// only) — decode and encode both at full geometry.
func BenchmarkTranscodeFull(b *testing.B) {
	benchTranscode(b, benchInput(b), Options{Quality: 75, Subsampling: jfif.Sub420}, Transcode)
}

// BenchmarkTranscodeProgressiveOut emits a progressive stream at 1/2:
// the multi-scan encoder under the spectral-selection script.
func BenchmarkTranscodeProgressiveOut(b *testing.B) {
	benchTranscode(b, benchInput(b), Options{Scale: jpegcodec.Scale2, Quality: 85, Progressive: true, Script: "spectral"}, Transcode)
}
