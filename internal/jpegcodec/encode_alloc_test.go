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

// TestEncodeSteadyStateAllocation pins what an Encode costs the heap
// once the slab pools are warm: the stream it returns, the container
// writer's growth, and for optimised and progressive encodes the
// Huffman tables they build. The limits are the bytes per op measured
// on these inputs with the division quantiser and the per-symbol
// interface emitter (amd64, Go 1.24), before the nonzero masks existed:
// the masks are pooled like the coefficients and must not add to it.
func TestEncodeSteadyStateAllocation(t *testing.T) {
	img := makeTestImage(800, 600, 4)
	for _, c := range []struct {
		name  string
		opts  EncodeOptions
		limit uint64
	}{
		{"444-optimized", EncodeOptions{Quality: 80, OptimizeHuffman: true}, 87449},
		{"420-annexk-dri", EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, RestartInterval: 4}, 53200},
		{"444-progressive", EncodeOptions{Quality: 80, Progressive: true}, 253361},
	} {
		got := encodeAllocPerOp(t, img, c.opts)
		if got > c.limit {
			t.Errorf("%s: Encode allocates %d bytes per op after warm-up, limit %d", c.name, got, c.limit)
		} else {
			t.Logf("%s: %d bytes per op", c.name, got)
		}
	}
}

// encodeAllocPerOp encodes a few times to fill the slab pools, then
// reports the bytes allocated per further Encode: the least of three
// windows, since what the pools hold from earlier tests can cost one
// window a slab regrowth that the steady state does not pay.
func encodeAllocPerOp(t *testing.T, img *RGBImage, opts EncodeOptions) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	enc := func() {
		if _, err := Encode(img, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		enc()
	}
	const n = 10
	best := ^uint64(0)
	for window := 0; window < 3; window++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			enc()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	return best
}
