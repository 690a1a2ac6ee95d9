// Package kernels prices the paper's OpenCL kernels (Section 4) on the
// simulated device. Nothing here executes: every mode's pixels come from
// the one sequential decode (jpegcodec's Run on one worker), and
// CostPlan restates each kernel launch's geometry and work from the
// frame alone, so virtual time is the same whether or not a decode
// produces pixels. The launches it prices are the IDCT kernel, the
// 4:2:2 upsampling kernel, the colour-conversion kernel and the merged
// kernels of Section 4.4 (IDCT+colour for 4:4:4, upsampling+colour for
// 4:2:2 and the 4:2:0 extension).
package kernels

import (
	"fmt"

	"hetjpeg/internal/dct"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/sim"
)

// Operation cost constants (arithmetic ops per unit of work) of the
// device cost model.
const (
	opsIDCTPerBlock   = 640.0 // 16 1-D passes + dequantization + stores
	opsColorPerPix    = 12.0
	opsUps422PerPix   = 5.0
	opsUps420PerPix   = 8.0
	opsAddressPerItem = 6.0
)

// opsIDCTScaledPerBlock returns the per-block cost of the scaled IDCT
// kernel for a reconstruction of blockPix x blockPix samples, scaling
// the full-size kernel cost by the arithmetic ratio of the scaled
// transforms (shared with the CPU-side virtual cost model).
func opsIDCTScaledPerBlock(blockPix int) float64 {
	if blockPix >= 8 {
		return opsIDCTPerBlock
	}
	return opsIDCTPerBlock * dct.ScaledOpsPerBlock(blockPix) / dct.ScaledOpsPerBlock(8)
}

// CostRecord reports one device-side operation's virtual time.
type CostRecord struct {
	Kind  sim.Kind
	Label string
	Ns    float64
}

// TotalNs sums a cost-record list.
func TotalNs(recs []CostRecord) float64 {
	var s float64
	for _, r := range recs {
		s += r.Ns
	}
	return s
}

// CostPlan prices the device's share of a decode for MCU rows [m0, m1)
// with color-converted pixel rows [y0, y1) (pass -1 for the chunk's
// natural rows): the host-to-device transfer of the chunk's coefficients
// (the Y|Cb|Cr buffer layout of Section 4), each kernel launch of the
// frame's plan and the device-to-host readback of the finished rows, in
// order. merged selects the Section 4.4 merged kernels (the paper's
// configuration); false prices the split kernels for ablation.
//
// Schedulers shift y0 and y1 at 4:2:0 chunk boundaries, where the
// vertical triangle filter of an output row needs chroma samples from
// the next chunk's first block row: the boundary row is charged to the
// later chunk (or to the CPU partition). CostPlan reads only the frame's
// geometry, so executed and virtual-only decodes, the schedulers and the
// performance model's offline profiler all see the same costs.
func CostPlan(spec *platform.Spec, f *jpegcodec.Frame, m0, m1, y0, y1 int, merged bool) []CostRecord {
	dev := pricer{spec}
	var recs []CostRecord
	r0, r1 := f.PixelRows(m0, m1)
	if y0 < 0 {
		y0 = r0
	}
	if y1 < 0 {
		y1 = r1
	}

	recs = append(recs, CostRecord{sim.KindHostToDevice, fmt.Sprintf("h2d[%d,%d)", m0, m1), spec.TransferNs(f.CoeffBytes(m0, m1))})

	switch {
	case f.Sub == jfif.SubGray:
		recs = append(recs, dev.idctCost(f, m0, m1))
		recs = append(recs, dev.grayCost(f, y0, y1))
	case f.Sub == jfif.Sub444 && merged:
		recs = append(recs, dev.merged444Cost(f, m0, m1))
	case f.Sub == jfif.Sub444:
		recs = append(recs, dev.idctCost(f, m0, m1))
		recs = append(recs, dev.color444Cost(f, y0, y1))
	case merged:
		recs = append(recs, dev.idctCost(f, m0, m1))
		recs = append(recs, dev.upsampleColorCost(f, y0, y1))
	default:
		recs = append(recs, dev.idctCost(f, m0, m1))
		recs = append(recs, dev.upsampleCost(f, y0, y1))
		recs = append(recs, dev.colorUpsCost(f, y0, y1))
	}

	n := (y1 - y0) * f.OutW * 3
	if n < 0 {
		n = 0
	}
	recs = append(recs, CostRecord{sim.KindDeviceToHost, fmt.Sprintf("d2h[%d,%d)", y0, y1), spec.TransferNs(n)})
	return recs
}

// pricer restates each kernel's launch geometry and work and prices it
// through the platform's kernel cost formula. Apart from the IDCT
// kernels, whose groups hold WorkGroupBlocks blocks, every launch runs
// work-groups of 128 items (the paper's merged-kernel work-group).
type pricer struct{ spec *platform.Spec }

func (d pricer) costOf(ops, bytes float64, groups, localInt32 int) float64 {
	return d.spec.KernelCostNs(ops, bytes, groups, localInt32)
}

// idctCost prices the Section 4.1 IDCT kernel, one launch over every
// block of every component in MCU rows [m0, m1) in Y|Cb|Cr order. At full
// size each block gets 8 work-items: one per column for the column pass,
// whose intermediate goes to local memory (64 int32 per block), then one
// per row for the row pass, which stores clamped bytes. A scaled block is
// too small to split eight ways, so at 1/2, 1/4 and 1/8 one work-item
// reconstructs one whole block and needs no local memory.
func (d pricer) idctCost(f *jpegcodec.Frame, m0, m1 int) CostRecord {
	nBlocks := 0
	for _, p := range f.Planes {
		nBlocks += (m1 - m0) * p.V * p.BlocksPerRow
	}
	gb := d.spec.WorkGroupBlocks
	groups := (nBlocks + gb - 1) / gb
	if bp := f.BlockPix; bp < 8 {
		ops := float64(nBlocks)*opsIDCTScaledPerBlock(bp) + float64(groups*gb)*opsAddressPerItem
		bytes := float64(nBlocks) * float64(f.CoeffStride*2+bp*bp)
		return CostRecord{sim.KindIDCT, fmt.Sprintf("idct/%d[%d,%d)x%d", 8/bp, m0, m1, nBlocks), d.costOf(ops, bytes, groups, 0)}
	}
	ops := float64(nBlocks)*opsIDCTPerBlock + float64(groups*gb*8)*opsAddressPerItem
	bytes := float64(nBlocks) * (128 + 64)
	return CostRecord{sim.KindIDCT, fmt.Sprintf("idct[%d,%d)x%d", m0, m1, nBlocks), d.costOf(ops, bytes, groups, gb*64)}
}

// merged444Cost prices the Section 4.4 merged IDCT + colour kernel for
// 4:4:4 frames: three column passes (Y, Cb, Cr) into local memory, then
// a row pass that converts and stores interleaved RGB directly. Scaled,
// one work-item reconstructs the three co-sited blocks and converts them.
func (d pricer) merged444Cost(f *jpegcodec.Frame, m0, m1 int) CostRecord {
	p := f.Planes[0]
	nBlocks := (m1 - m0) * p.V * p.BlocksPerRow
	gb := d.spec.WorkGroupBlocks
	groups := (nBlocks + gb - 1) / gb
	if bp := f.BlockPix; bp < 8 {
		pixels := (m1 - m0) * p.V * bp * p.PlaneW()
		ops := float64(nBlocks)*3*opsIDCTScaledPerBlock(bp) + float64(pixels)*opsColorPerPix + float64(groups*gb)*opsAddressPerItem
		bytes := float64(nBlocks)*3*float64(f.CoeffStride*2) + float64(pixels)*3
		return CostRecord{sim.KindMergedKernel, fmt.Sprintf("merged444/%d[%d,%d)", 8/bp, m0, m1), d.costOf(ops, bytes, groups, 0)}
	}
	pixels := (m1 - m0) * p.V * 8 * p.PlaneW()
	ops := float64(nBlocks)*3*opsIDCTPerBlock + float64(pixels)*opsColorPerPix + float64(groups*gb*8)*opsAddressPerItem
	bytes := float64(nBlocks)*3*128 + float64(pixels)*3
	return CostRecord{sim.KindMergedKernel, fmt.Sprintf("merged444[%d,%d)", m0, m1), d.costOf(ops, bytes, groups, gb*192)}
}

// upsampleColorCost prices the Section 4.4 merged upsampling + colour
// kernel for 4:2:2 (and the 4:2:0 extension): each work-item upsamples
// the chroma of one 8-pixel output segment in registers, loads the
// matching luma, converts and stores RGB. The work-group shape keeps all
// items of a block on one branch (no divergence, Section 4.2).
func (d pricer) upsampleColorCost(f *jpegcodec.Frame, r0, r1 int) CostRecord {
	rows := r1 - r0
	if rows <= 0 {
		return CostRecord{sim.KindMergedKernel, "upsample_color(empty)", d.spec.GPU.LaunchNs}
	}
	w := f.OutW
	segsPerRow := (w + 7) / 8
	items := rows * segsPerRow
	groups := (items + 127) / 128
	upsOps := opsUps422PerPix
	if f.Sub == jfif.Sub420 {
		upsOps = opsUps420PerPix
	}
	pixels := rows * w
	ops := float64(pixels)*(upsOps+opsColorPerPix) + float64(groups*128)*opsAddressPerItem
	bytes := float64(pixels) * 5
	return CostRecord{sim.KindMergedKernel, fmt.Sprintf("upsample_color[%d,%d)", r0, r1), d.costOf(ops, bytes, groups, 0)}
}

// color444Cost prices the standalone Section 4.3 colour-conversion
// kernel of split 4:4:4 decodes: one work-item converts 4 pixels (the
// vectorised store of Figure 4).
func (d pricer) color444Cost(f *jpegcodec.Frame, r0, r1 int) CostRecord {
	rows := r1 - r0
	if rows <= 0 {
		return CostRecord{sim.KindColor, "color(empty)", d.spec.GPU.LaunchNs}
	}
	w := f.OutW
	items := rows * ((w + 3) / 4)
	groups := (items + 127) / 128
	pixels := rows * w
	ops := float64(pixels)*opsColorPerPix + float64(groups*128)*opsAddressPerItem
	return CostRecord{sim.KindColor, fmt.Sprintf("color444[%d,%d)", r0, r1), d.costOf(ops, float64(pixels)*6, groups, 0)}
}

// upsampleCost prices the standalone Section 4.2 upsampling kernel of
// split decodes, which expands both chroma planes to full resolution:
// two work-items per component, luma row and chroma block, each producing
// an 8-sample half of the 16-sample output row (the odd/even split of
// Algorithm 1).
func (d pricer) upsampleCost(f *jpegcodec.Frame, r0, r1 int) CostRecord {
	rows := r1 - r0
	if rows <= 0 {
		return CostRecord{sim.KindUpsample, "upsample(empty)", d.spec.GPU.LaunchNs}
	}
	ypw := f.Planes[0].PlaneW()
	segsPerRow := (ypw + 7) / 8
	items := rows * segsPerRow * 2
	groups := (items + 127) / 128
	upsOps := opsUps422PerPix
	if f.Sub == jfif.Sub420 {
		upsOps = opsUps420PerPix
	}
	outSamples := rows * ypw * 2
	ops := float64(outSamples)*upsOps + float64(groups*128)*opsAddressPerItem
	return CostRecord{sim.KindUpsample, fmt.Sprintf("upsample[%d,%d)", r0, r1), d.costOf(ops, float64(outSamples)*1.5, groups, 0)}
}

// colorUpsCost prices the colour conversion that ends a split 4:2:x
// decode, reading the full-resolution chroma upsampleCost produced; one
// work-item converts 4 pixels.
func (d pricer) colorUpsCost(f *jpegcodec.Frame, r0, r1 int) CostRecord {
	rows := r1 - r0
	if rows <= 0 {
		return CostRecord{sim.KindColor, "color(empty)", d.spec.GPU.LaunchNs}
	}
	w := f.OutW
	items := rows * ((w + 3) / 4)
	groups := (items + 127) / 128
	pixels := rows * w
	ops := float64(pixels)*opsColorPerPix + float64(groups*128)*opsAddressPerItem
	return CostRecord{sim.KindColor, fmt.Sprintf("color_ups[%d,%d)", r0, r1), d.costOf(ops, float64(pixels)*6, groups, 0)}
}

// grayCost prices the kernel that replicates a grayscale frame's luma
// into RGB, 8 pixels per work-item.
func (d pricer) grayCost(f *jpegcodec.Frame, r0, r1 int) CostRecord {
	rows := r1 - r0
	if rows <= 0 {
		return CostRecord{sim.KindColor, "gray(empty)", d.spec.GPU.LaunchNs}
	}
	w := f.OutW
	items := rows * ((w + 7) / 8)
	groups := (items + 127) / 128
	pixels := rows * w
	ops := float64(pixels)*2 + float64(groups*128)*opsAddressPerItem
	return CostRecord{sim.KindColor, fmt.Sprintf("gray[%d,%d)", r0, r1), d.costOf(ops, float64(pixels)*4, groups, 0)}
}
