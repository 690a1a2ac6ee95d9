package jpegcodec

import (
	"fmt"
	"testing"

	"hetjpeg/internal/jfif"
)

// Scaled decode benchmarks: the decode-to-fit hot path, tracked as the
// scaled third of the benchmark's batch_gallery workload
// (benchmark/README.md). These time the full pipeline — entropy decode
// plus scaled back phase — per scale on the
// bench-corpus geometry. The 1/8 path additionally exercises the
// DC-only entropy store elision, so its speedup over full decode
// reflects both the collapsed back phase and the cheaper stage 1.

func benchDecodeScaled(b *testing.B, w, h int, sub jfif.Subsampling, scale Scale) {
	data := scalarFixture(b, w, h, sub, 0)
	out, err := decodeRun(data, Options{Scale: scale}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.W * out.H * 3))
	out.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := decodeRun(data, Options{Scale: scale}, 1)
		if err != nil {
			b.Fatal(err)
		}
		img.Release()
	}
}

// BenchmarkDecodeScaled tracks decode-to-scale on the bench corpus
// geometry (2048x1536 4:2:0, quality 85). div1 is the full-size
// baseline the scaled rows are compared against.
func BenchmarkDecodeScaled(b *testing.B) {
	for _, scale := range []Scale{Scale1, Scale2, Scale4, Scale8} {
		b.Run(fmt.Sprintf("div%d", scale.Denominator()), func(b *testing.B) {
			benchDecodeScaled(b, 2048, 1536, jfif.Sub420, scale)
		})
	}
}

// BenchmarkDecodeScaledSub isolates the subsampling dimension at 1/8
// scale (DC-only storage and entropy store elision for all layouts).
func BenchmarkDecodeScaledSub(b *testing.B) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		b.Run(sub.String(), func(b *testing.B) {
			benchDecodeScaled(b, 1024, 768, sub, Scale8)
		})
	}
}
