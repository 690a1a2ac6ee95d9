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

// CostPlan prices Engine.DecodeChunk for MCU rows [m0, m1) with
// color-converted pixel rows [y0, y1) (pass -1 for the chunk's natural
// rows): the host-to-device transfer, each kernel launch of the frame's
// plan and the device-to-host readback, in order. It reads only the
// frame's geometry, so executed and virtual-only decodes, the schedulers
// and the performance model's offline profiler all see the same costs.
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

	ow, _ := f.OutDims()
	n := (y1 - y0) * ow * 3
	if n < 0 {
		n = 0
	}
	recs = append(recs, CostRecord{sim.KindDeviceToHost, fmt.Sprintf("d2h[%d,%d)", y0, y1), spec.TransferNs(n)})
	return recs
}

// pricer restates each kernel's launch geometry and work and prices it
// through the platform's kernel cost formula.
type pricer struct{ spec *platform.Spec }

func (d pricer) costOf(ops, bytes float64, groups, localInt32 int) float64 {
	return d.spec.KernelCostNs(ops, bytes, groups, localInt32)
}

func (d pricer) idctCost(f *jpegcodec.Frame, m0, m1 int) CostRecord {
	nBlocks := 0
	for _, p := range f.Planes {
		nBlocks += (m1 - m0) * p.V * p.BlocksPerRow
	}
	gb := d.spec.WorkGroupBlocks
	groups := (nBlocks + gb - 1) / gb
	if bp := f.BlockPixels(); bp < 8 {
		stride := f.CoeffPerBlock()
		ops := float64(nBlocks)*opsIDCTScaledPerBlock(bp) + float64(groups*gb)*opsAddressPerItem
		bytes := float64(nBlocks) * float64(stride*2+bp*bp)
		return CostRecord{sim.KindIDCT, fmt.Sprintf("idct/%d[%d,%d)x%d", 8/bp, m0, m1, nBlocks), d.costOf(ops, bytes, groups, 0)}
	}
	ops := float64(nBlocks)*opsIDCTPerBlock + float64(groups*gb*8)*opsAddressPerItem
	bytes := float64(nBlocks) * (128 + 64)
	return CostRecord{sim.KindIDCT, fmt.Sprintf("idct[%d,%d)x%d", m0, m1, nBlocks), d.costOf(ops, bytes, groups, gb*64)}
}

func (d pricer) merged444Cost(f *jpegcodec.Frame, m0, m1 int) CostRecord {
	p := f.Planes[0]
	nBlocks := (m1 - m0) * p.V * p.BlocksPerRow
	gb := d.spec.WorkGroupBlocks
	groups := (nBlocks + gb - 1) / gb
	if bp := f.BlockPixels(); bp < 8 {
		stride := f.CoeffPerBlock()
		pixels := (m1 - m0) * p.V * bp * p.PlaneW()
		ops := float64(nBlocks)*3*opsIDCTScaledPerBlock(bp) + float64(pixels)*opsColorPerPix + float64(groups*gb)*opsAddressPerItem
		bytes := float64(nBlocks)*3*float64(stride*2) + float64(pixels)*3
		return CostRecord{sim.KindMergedKernel, fmt.Sprintf("merged444/%d[%d,%d)", 8/bp, m0, m1), d.costOf(ops, bytes, groups, 0)}
	}
	pixels := (m1 - m0) * p.V * 8 * p.PlaneW()
	ops := float64(nBlocks)*3*opsIDCTPerBlock + float64(pixels)*opsColorPerPix + float64(groups*gb*8)*opsAddressPerItem
	bytes := float64(nBlocks)*3*128 + float64(pixels)*3
	return CostRecord{sim.KindMergedKernel, fmt.Sprintf("merged444[%d,%d)", m0, m1), d.costOf(ops, bytes, groups, gb*192)}
}

func (d pricer) upsampleColorCost(f *jpegcodec.Frame, r0, r1 int) CostRecord {
	rows := r1 - r0
	if rows <= 0 {
		return CostRecord{sim.KindMergedKernel, "upsample_color(empty)", d.spec.GPU.LaunchNs}
	}
	w, _ := f.OutDims()
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

func (d pricer) color444Cost(f *jpegcodec.Frame, r0, r1 int) CostRecord {
	rows := r1 - r0
	if rows <= 0 {
		return CostRecord{sim.KindColor, "color(empty)", d.spec.GPU.LaunchNs}
	}
	w, _ := f.OutDims()
	items := rows * ((w + 3) / 4)
	groups := (items + 127) / 128
	pixels := rows * w
	ops := float64(pixels)*opsColorPerPix + float64(groups*128)*opsAddressPerItem
	return CostRecord{sim.KindColor, fmt.Sprintf("color444[%d,%d)", r0, r1), d.costOf(ops, float64(pixels)*6, groups, 0)}
}

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

func (d pricer) colorUpsCost(f *jpegcodec.Frame, r0, r1 int) CostRecord {
	rows := r1 - r0
	if rows <= 0 {
		return CostRecord{sim.KindColor, "color(empty)", d.spec.GPU.LaunchNs}
	}
	w, _ := f.OutDims()
	items := rows * ((w + 3) / 4)
	groups := (items + 127) / 128
	pixels := rows * w
	ops := float64(pixels)*opsColorPerPix + float64(groups*128)*opsAddressPerItem
	return CostRecord{sim.KindColor, fmt.Sprintf("color_ups[%d,%d)", r0, r1), d.costOf(ops, float64(pixels)*6, groups, 0)}
}

func (d pricer) grayCost(f *jpegcodec.Frame, r0, r1 int) CostRecord {
	rows := r1 - r0
	if rows <= 0 {
		return CostRecord{sim.KindColor, "gray(empty)", d.spec.GPU.LaunchNs}
	}
	w, _ := f.OutDims()
	items := rows * ((w + 7) / 8)
	groups := (items + 127) / 128
	pixels := rows * w
	ops := float64(pixels)*2 + float64(groups*128)*opsAddressPerItem
	return CostRecord{sim.KindColor, fmt.Sprintf("gray[%d,%d)", r0, r1), d.costOf(ops, float64(pixels)*4, groups, 0)}
}
