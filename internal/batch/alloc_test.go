//go:build !race

// Allocation is measured in ordinary builds; the race detector's
// instrumentation allocates on its own account.

package batch

import (
	"context"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
)

// TestExecutorDecodeAllocs holds Executor.Decode to a fixed allocation
// budget that does not grow with the image: a service decode opens,
// steps and runs bands, and prices no virtual timeline (whose tasks
// grow with the MCU rows). Measured on 4:2:0 images at 320×240 and
// 1024×768 through a two-worker executor, released after each decode.
func TestExecutorDecodeAllocs(t *testing.T) {
	const budget, spread = 40, 4
	ex, err := NewExecutor(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	var allocs [2]float64
	for i, wh := range [][2]int{{320, 240}, {1024, 768}} {
		items, err := imagegen.SizeSweep(jfif.Sub420, 0.5, [][2]int{wh}, 11)
		if err != nil {
			t.Fatal(err)
		}
		data := items[0].Data
		allocs[i] = testing.AllocsPerRun(20, func() {
			ir, err := ex.Decode(context.Background(), data, 0)
			if err != nil || ir.Err != nil {
				t.Fatalf("%dx%d: %v, %v", wh[0], wh[1], err, ir.Err)
			}
			ir.Res.Release()
		})
		t.Logf("%dx%d: %.0f allocations per decode", wh[0], wh[1], allocs[i])
		if allocs[i] > budget {
			t.Errorf("%dx%d: %.0f allocations per decode, budget %d", wh[0], wh[1], allocs[i], budget)
		}
	}
	if d := allocs[1] - allocs[0]; d > spread || d < -spread {
		t.Errorf("allocations grow with the image: %.0f at 320x240, %.0f at 1024x768", allocs[0], allocs[1])
	}
}
