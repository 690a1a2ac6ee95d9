//go:build !race

// Allocation is measured in ordinary builds; the race detector's
// instrumentation allocates on its own account.

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/platform"
)

// TestVirtualOnlyDecodeAllocs holds a VirtualOnly decode to less than
// its RGB output would cost: it runs the entropy stage alone, takes no
// output, and its frame's slabs go back to the pools before it returns,
// so a sweep that keeps its results (as the reproduction's do) allocates
// the parse, the bits per row and the timeline only. Measured on a
// 1024×768 4:2:0 stream in SIMD mode with the collector off, results
// not released.
func TestVirtualOnlyDecodeAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	items, err := imagegen.SizeSweep(jfif.Sub420, 0.5, [][2]int{{1024, 768}}, 11)
	if err != nil {
		t.Fatal(err)
	}
	data := items[0].Data
	opts := Options{Mode: ModeSIMD, Spec: platform.GTX560(), VirtualOnly: true}
	if _, err := Decode(data, opts); err != nil { // fill the slab pools
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := Decode(data, opts); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	perDecode := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one more
	t.Logf("%.0f allocations, %d bytes per decode", allocs, perDecode)
	if output := uint64(1024 * 768 * 3); perDecode >= output {
		t.Errorf("a VirtualOnly decode allocates %d bytes, its RGB output would be %d", perDecode, output)
	}
}
