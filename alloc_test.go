//go:build !race

// Allocation is measured in ordinary builds; under the race detector the
// decodes below run some 30 times slower and check nothing more.

package hetjpeg_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hetjpeg"
	"hetjpeg/internal/jpegcodec"
)

// allocPerOp runs op a few times to fill the slab pools, then reports
// the bytes allocated per further call.
func allocPerOp(t *testing.T, op func()) uint64 {
	t.Helper()
	// Two Ps, so DecodeRGB runs its pipelined path; no collection in the
	// window, so TotalAlloc counts every byte the ops allocate.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for i := 0; i < 3; i++ {
		op()
	}
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

// TestDecodeSteadyStateAllocation pins what a released decode may cost
// the heap: with every slab recycled and the Annex-K tables compiled once
// for the process, a 0.48-megapixel decode allocates its parse and frame
// metadata only, where it used to allocate 20.9 MB per megapixel.
func TestDecodeSteadyStateAllocation(t *testing.T) {
	data := testJPEG(t, 800, 600) // default (Annex-K) tables
	const limit = 64 << 10
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"DecodeRGB", func() {
			img, err := hetjpeg.DecodeRGB(data)
			if err != nil {
				t.Fatal(err)
			}
			img.Release()
		}},
		{"Open(Salvage) + Run(1)", func() {
			d, err := jpegcodec.Open(data, jpegcodec.Options{Salvage: true})
			if err != nil {
				t.Fatal(err)
			}
			img, err := d.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			img.Release()
		}},
	} {
		if got := allocPerOp(t, c.op); got > limit {
			t.Errorf("%s + Release allocates %d bytes per op after warm-up, limit %d", c.name, got, limit)
		} else {
			t.Logf("%s: %d bytes per op", c.name, got)
		}
	}
}
