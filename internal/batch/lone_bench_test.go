package batch

import (
	"context"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
)

// BenchmarkExecutorLoneImage times one 1024x1024 4:2:0 baseline image
// (about 250 KB) on two workers through the two entry points of the
// entropy→band handoff: Executor.Decode, the service's path, and
// jpegcodec's Open and Run, DecodeRGB's. With the back phase
// trailing the entropy stage band by band, both should cost about
// max(entropy, back phase) rather than their sum.
func BenchmarkExecutorLoneImage(b *testing.B) {
	items, err := imagegen.SizeSweep(jfif.Sub420, 0.8, [][2]int{{1024, 1024}}, 7)
	if err != nil {
		b.Fatal(err)
	}
	data := items[0].Data
	const workers = 2
	b.Run("Executor", func(b *testing.B) {
		ex, err := NewExecutor(Options{Spec: platform.GTX560(), Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		defer ex.Close()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			ir, err := ex.Decode(context.Background(), data, jpegcodec.Scale1)
			if err == nil {
				err = ir.Err
			}
			if err != nil {
				b.Fatal(err)
			}
			ir.Res.Release()
		}
	})
	b.Run("Run", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			d, err := jpegcodec.Open(data, jpegcodec.Options{})
			if err != nil {
				b.Fatal(err)
			}
			out, err := d.Run(workers)
			if err != nil {
				b.Fatal(err)
			}
			out.Release()
		}
	})
}
