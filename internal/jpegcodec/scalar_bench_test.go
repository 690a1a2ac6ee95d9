package jpegcodec

import (
	"fmt"
	"testing"

	"hetjpeg/internal/jfif"
)

// Single-image scalar decode benchmarks: the CPU hot path this library's
// partitioning story leans on. The tracked figures are the benchmark's
// decode_dense and decode_smooth workloads (benchmark/README.md).

func scalarFixture(b *testing.B, w, h int, sub jfif.Subsampling, ri int) []byte {
	b.Helper()
	img := makeTestImage(w, h, 23)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: sub, RestartInterval: ri})
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func benchDecodeScalar(b *testing.B, w, h int, sub jfif.Subsampling) {
	data := scalarFixture(b, w, h, sub, 0)
	b.SetBytes(int64(w * h * 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := DecodeScalar(data)
		if err != nil {
			b.Fatal(err)
		}
		img.Release()
	}
}

func BenchmarkDecodeScalar(b *testing.B) {
	benchDecodeScalar(b, 1024, 1024, jfif.Sub422)
}

func BenchmarkDecodeScalarSub(b *testing.B) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		b.Run(sub.String(), func(b *testing.B) {
			benchDecodeScalar(b, 1024, 768, sub)
		})
	}
}

func BenchmarkDecodeScalarSize(b *testing.B) {
	for _, wh := range [][2]int{{512, 512}, {2048, 1536}} {
		b.Run(fmt.Sprintf("%dx%d", wh[0], wh[1]), func(b *testing.B) {
			benchDecodeScalar(b, wh[0], wh[1], jfif.Sub422)
		})
	}
}

// BenchmarkParallelPhaseScalarWorkers measures the intra-image worker
// pool over MCU-row bands (wall-clock; output stays byte-identical).
func BenchmarkParallelPhaseScalarWorkers(b *testing.B) {
	data := scalarFixture(b, 2048, 1536, jfif.Sub420, 0)
	f, ed, err := PrepareDecode(data)
	if err != nil {
		b.Fatal(err)
	}
	if err := ed.DecodeAll(); err != nil {
		b.Fatal(err)
	}
	out := NewRGBImage(f.Img.Width, f.Img.Height)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.SetBytes(int64(f.Img.Width * f.Img.Height * 3))
			for i := 0; i < b.N; i++ {
				ParallelPhaseScalarWorkers(f, 0, f.MCURows, out, workers)
			}
		})
	}
}

// BenchmarkParallelPhaseScalar isolates the dequant+IDCT+upsample+color
// stage (no entropy decode) — the part the paper offloads to devices.
func BenchmarkParallelPhaseScalar(b *testing.B) {
	data := scalarFixture(b, 1024, 1024, jfif.Sub422, 0)
	f, ed, err := PrepareDecode(data)
	if err != nil {
		b.Fatal(err)
	}
	if err := ed.DecodeAll(); err != nil {
		b.Fatal(err)
	}
	out := NewRGBImage(f.Img.Width, f.Img.Height)
	b.SetBytes(int64(f.Img.Width * f.Img.Height * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelPhaseScalar(f, 0, f.MCURows, out)
	}
}
