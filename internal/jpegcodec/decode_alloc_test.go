//go:build !race

// Allocation is measured in ordinary builds; the race detector's
// instrumentation allocates on its own account.

package jpegcodec

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hetjpeg/internal/jfif"
)

// TestProgressiveMaskPooled shows that a warmed progressive decode takes
// its nonzero masks from the pool: a 1024x1024 decode allocates within
// a few kilobytes as many bytes as a 512x512 one, where masks made per
// decode would cost it 144 KB more. Each size reports the least of
// three windows, with the collector off, as the encoder's test does.
func TestProgressiveMaskPooled(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var bytes [2]uint64
	for i, side := range []int{512, 1024} {
		img := makeTestImage(side, side, 3)
		data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, Progressive: true})
		img.Release()
		if err != nil {
			t.Fatal(err)
		}
		const runs = 10
		bytes[i] = ^uint64(0)
		for window := 0; window < 3; window++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() {
				f, ed, err := PrepareDecode(data)
				if err != nil {
					t.Fatal(err)
				}
				if err := ed.DecodeAll(); err != nil {
					t.Fatal(err)
				}
				f.Release()
			})
			runtime.ReadMemStats(&after)
			n := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one more
			bytes[i] = min(bytes[i], n)
			t.Logf("%dx%d: %.0f allocations, %d bytes per decode", side, side, allocs, n)
		}
	}
	if bytes[1] > bytes[0]+8<<10 {
		t.Errorf("a 1024x1024 progressive decode allocates %d bytes, a 512x512 one %d", bytes[1], bytes[0])
	}
}

// TestParallelRestartAllocsFlat shows that the restart-parallel decoder
// keeps one entropy decoder per worker: a DRI-1 decode (4096 segments)
// allocates no more objects than a DRI-64 one (64).
func TestParallelRestartAllocsFlat(t *testing.T) {
	var allocs [2]float64
	for i, ri := range []int{64, 1} {
		data := restartFixture(t, 512, 512, ri, jfif.Sub444)
		f, _, err := PrepareDecode(data)
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(10, func() {
			if _, err := DecodeAllParallelRestart(f, 2); err != nil {
				t.Fatal(err)
			}
		})
		f.Release()
		t.Logf("DRI %d: %.0f allocations per decode", ri, allocs[i])
	}
	if allocs[1] > allocs[0] {
		t.Errorf("a DRI-1 decode allocates %.0f objects, a DRI-64 one %.0f", allocs[1], allocs[0])
	}
}
