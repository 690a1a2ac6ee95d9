package core

import (
	"hetjpeg/internal/dct"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/sim"
)

// idctCostFactor scales the per-block CPU IDCT cost for decode-to-scale:
// the scaled transforms do a fraction of the full kernel's arithmetic
// (the same ratio the device cost model uses).
func idctCostFactor(f *jpegcodec.Frame) float64 {
	if f.BlockPix == 8 {
		return 1
	}
	return dct.ScaledOpsPerBlock(f.BlockPix) / dct.ScaledOpsPerBlock(8)
}

// cpuTile describes the CPU share of a partitioned decode: MCU rows
// [s, MCURows) plus the pixel rows it color-converts (which start one row
// early for 4:2:0, taking over the boundary row the GPU cannot finish).
// For 4:2:0 its IDCT charge includes the one block-row halo above s that
// the boundary row's vertical filter reads.
type cpuTile struct {
	s      int // first CPU MCU row
	yStart int // first pixel row the CPU converts
}

// newCPUTile computes the tile for a split at MCU row s.
func (st *decodeState) newCPUTile(s int) cpuTile {
	return cpuTile{s: s, yStart: st.f.RowBound(s)}
}

// empty reports whether the CPU share is empty.
func (t cpuTile) empty(f *jpegcodec.Frame) bool { return t.s >= f.MCURows }

// addTasks appends the tile's virtual stage costs to the CPU resource:
// IDCT, upsampling and color conversion as separate tasks so breakdown
// figures can attribute them. The tile at s = 0 is the whole image (the
// sequential and SIMD modes).
func (t cpuTile) addTasks(tl *sim.Timeline, f *jpegcodec.Frame, spec *platform.Spec, simd bool) {
	if t.empty(f) {
		return
	}
	c := spec.CPUScalar
	if simd {
		c = spec.CPUSIMD
	}
	blocks := regionBlocks(f, t.s, f.MCURows)
	if f.Sub == jfif.Sub420 && t.s > 0 {
		blocks += f.Planes[0].BlocksPerRow + 2*f.Planes[1].BlocksPerRow
	}
	rows := f.OutH - t.yStart
	pixels := rows * f.OutW
	tl.Add(sim.ResCPU, sim.KindIDCT, "cpu idct", float64(blocks)*c.IDCTNsPerBlock*idctCostFactor(f))
	if f.Sub == jfif.Sub422 || f.Sub == jfif.Sub420 {
		tl.Add(sim.ResCPU, sim.KindUpsample, "cpu upsample", float64(pixels)*c.UpsampleNsPerPix)
	}
	tl.Add(sim.ResCPU, sim.KindColor, "cpu color",
		float64(pixels)*(c.ColorNsPerPix+c.StoreNsPerPix)+float64(rows)*c.RowOverheadNsPerY)
}
