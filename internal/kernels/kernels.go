// Package kernels implements the paper's OpenCL kernels (Section 4) on
// the simulated device: the IDCT kernel (8 work-items per block, column
// pass into registers, row pass through local memory), the 4:2:2
// upsampling kernel, the color-conversion kernel, and the merged kernels
// of Section 4.4 (IDCT+color for 4:4:4, upsampling+color for 4:2:2 and
// the 4:2:0 extension). An Engine owns the device-resident buffers for
// one frame and decodes chunks of MCU rows into pixels.
//
// This file executes the kernels; costplan.go prices them. CostPlan is
// the only device cost model: it restates each launch's geometry and
// work from the frame alone, so virtual time never depends on whether
// the kernels ran.
package kernels

import (
	"hetjpeg/internal/color"
	"hetjpeg/internal/dct"
	"hetjpeg/internal/gpusim"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
)

// Engine drives the GPU parallel phase for one frame. Device buffers are
// whole-image sized (the Section 3 re-engineering) so chunked transfers
// land at their final offsets and later chunks may read earlier chunks'
// samples (needed by the 4:2:0 vertical filter).
type Engine struct {
	Dev *gpusim.Device
	F   *jpegcodec.Frame
	// Merged selects the Section 4.4 merged kernels (the paper's
	// configuration); false runs the split kernels for ablation.
	Merged bool

	coef    []*gpusim.CoefBuffer
	samples []*gpusim.ByteBuffer
	upsCb   *gpusim.ByteBuffer // split mode only: full-res upsampled chroma
	upsCr   *gpusim.ByteBuffer
	rgb     *gpusim.ByteBuffer
	quant   [][64]int32
	stride  int // coefficient slots per block (64, or 1 for DC-only)
}

// NewEngine allocates device state for frame f. Buffer geometry follows
// the frame's decode scale: sample planes and the RGB buffer shrink
// with it, and DC-only frames carry one coefficient slot per block.
func NewEngine(dev *gpusim.Device, f *jpegcodec.Frame, merged bool) *Engine {
	e := &Engine{Dev: dev, F: f, Merged: merged, stride: f.CoeffPerBlock()}
	e.coef = make([]*gpusim.CoefBuffer, len(f.Planes))
	e.samples = make([]*gpusim.ByteBuffer, len(f.Planes))
	e.quant = make([][64]int32, len(f.Planes))
	for c, p := range f.Planes {
		e.coef[c] = dev.NewCoefBuffer(p.Blocks() * e.stride)
		e.samples[c] = dev.NewByteBuffer(p.PlaneW() * p.PlaneH())
		q := f.Img.Quant[f.Img.Components[c].QuantSel]
		for i, v := range q {
			e.quant[c][i] = int32(v)
		}
	}
	w, h := f.OutDims()
	e.rgb = dev.NewByteBuffer(w * h * 3)
	if !merged && len(f.Planes) == 3 && f.Sub != jfif.Sub444 {
		yp := f.Planes[0]
		e.upsCb = dev.NewByteBuffer(yp.PlaneW() * yp.PlaneH())
		e.upsCr = dev.NewByteBuffer(yp.PlaneW() * yp.PlaneH())
	}
	return e
}

// Release returns the engine's device buffers to the device allocator's
// slab pools. The engine must not decode afterwards; releasing is
// optional (an unreleased engine is garbage-collected).
func (e *Engine) Release() {
	for _, b := range e.coef {
		b.Free()
	}
	for _, b := range e.samples {
		b.Free()
	}
	e.rgb.Free()
	e.upsCb.Free()
	e.upsCr.Free()
}

// DecodeChunk runs the full GPU parallel phase for MCU rows [m0, m1):
// host-to-device transfer of the chunk's coefficients, the kernel plan
// for the frame's subsampling, and the device-to-host readback of the
// finished RGB rows into out (the whole-image output buffer).
//
// y0 and y1 bound the pixel rows that are color-converted and read back;
// pass -1 for the chunk's natural rows. Schedulers shift these bounds at
// 4:2:0 chunk boundaries, where the vertical triangle filter of an output
// row needs chroma samples from the next chunk's first block row: the
// boundary output row is deferred to the later chunk (or to the CPU
// partition), which by then has all its inputs resident.
func (e *Engine) DecodeChunk(m0, m1, y0, y1 int, out *jpegcodec.RGBImage) {
	f := e.F
	r0, r1 := f.PixelRows(m0, m1)
	if y0 < 0 {
		y0 = r0
	}
	if y1 < 0 {
		y1 = r1
	}

	// Host -> device: the chunk's coefficient data across all components
	// (the Y|Cb|Cr buffer layout of Section 4).
	for c, p := range f.Planes {
		off := m0 * p.V * p.BlocksPerRow * e.stride
		e.Dev.CopyInAt(e.coef[c], off, f.CoeffRows(c, m0, m1))
	}

	// Kernel plan.
	switch {
	case f.Sub == jfif.SubGray:
		e.runIDCT(m0, m1)
		e.runGrayColor(y0, y1)
	case f.Sub == jfif.Sub444 && e.Merged:
		e.runMerged444(m0, m1)
	case f.Sub == jfif.Sub444:
		e.runIDCT(m0, m1)
		e.runColor444(y0, y1)
	case e.Merged:
		e.runIDCT(m0, m1)
		e.runUpsampleColor(y0, y1)
	default:
		e.runIDCT(m0, m1)
		e.runUpsample(y0, y1)
		e.runColorFromUpsampled(y0, y1)
	}

	// Device -> host readback of finished rows (output-scale geometry).
	w, _ := f.OutDims()
	n := (y1 - y0) * w * 3
	if n < 0 {
		n = 0
	}
	e.Dev.CopyOutAt(out.Pix, y0*w*3, e.rgb, n)
}

// blockRef locates one block inside the per-component device buffers.
type blockRef struct {
	comp int
	bx   int
	by   int
}

// blockIndex maps a flat launch index to a blockRef (Y|Cb|Cr buffer
// order over MCU rows [m0, m1)) arithmetically, so a launch does not
// materialize a per-block slice on every chunk.
type blockIndex struct {
	f   *jpegcodec.Frame
	m0  int
	cum [4]int // cumulative block counts per component
	n   int
}

func newBlockIndex(f *jpegcodec.Frame, m0, m1 int) blockIndex {
	ix := blockIndex{f: f, m0: m0}
	for c, p := range f.Planes {
		ix.cum[c+1] = ix.cum[c] + (m1-m0)*p.V*p.BlocksPerRow
	}
	ix.n = ix.cum[len(f.Planes)]
	return ix
}

func (ix *blockIndex) at(bi int) blockRef {
	c := 0
	for bi >= ix.cum[c+1] {
		c++
	}
	p := ix.f.Planes[c]
	rel := bi - ix.cum[c]
	return blockRef{c, rel % p.BlocksPerRow, ix.m0*p.V + rel/p.BlocksPerRow}
}

// runIDCT launches the Section 4.1 IDCT kernel over every block of every
// component in MCU rows [m0, m1) (single launch, Y|Cb|Cr buffer order).
// Scaled decodes dispatch the reduced-resolution kernel instead.
func (e *Engine) runIDCT(m0, m1 int) {
	f := e.F
	if f.BlockPixels() < 8 {
		e.runIDCTScaled(m0, m1)
		return
	}
	ix := newBlockIndex(f, m0, m1)
	nBlocks := ix.n
	groupBlocks := e.Dev.Spec.WorkGroupBlocks
	groups := (nBlocks + groupBlocks - 1) / groupBlocks

	colPass := func(g *gpusim.Group, item int) {
		bi := g.ID*groupBlocks + item/8
		if bi >= nBlocks {
			return
		}
		r := ix.at(bi)
		p := f.Planes[r.comp]
		c := item % 8
		base := (r.by*p.BlocksPerRow + r.bx) * 64
		cb := e.coef[r.comp].Data[base : base+64 : base+64]
		q := &e.quant[r.comp]
		var col [8]int32
		for k := 0; k < 8; k++ {
			col[k] = int32(cb[c+8*k]) * q[c+8*k]
		}
		local := g.Local[(item/8)*64 : (item/8)*64+64]
		dct.InverseIntColumn(&col, local, c)
	}
	rowPass := func(g *gpusim.Group, item int) {
		bi := g.ID*groupBlocks + item/8
		if bi >= nBlocks {
			return
		}
		r := ix.at(bi)
		p := f.Planes[r.comp]
		row := item % 8
		local := g.Local[(item/8)*64 : (item/8)*64+64]
		pw := p.PlaneW()
		base := (r.by*8+row)*pw + r.bx*8
		// Row pass stores clamped bytes straight into the sample buffer
		// (the Section 4.1 vectorized store), same arithmetic as the CPU
		// fast path so every mode stays byte-identical.
		dct.InverseIntRowBytes(local, row, e.samples[r.comp].Data[base:base+8:base+8])
	}

	e.Dev.Run(&gpusim.Kernel{
		Name:          "idct",
		Groups:        groups,
		ItemsPerGroup: groupBlocks * 8,
		LocalInt32:    groupBlocks * 64,
		Phases:        []gpusim.PhaseFunc{colPass, rowPass},
	})
}

// runIDCTScaled is the decode-to-scale IDCT kernel: a scaled block is
// too small to split eight ways, so one work-item reconstructs one
// whole block (the thread-per-scaled-block mapping real implementations
// use), writing BlockPix x BlockPix clamped samples through the same
// dct scaled kernels as the CPU path — output stays byte-identical. No
// local memory or phase barrier is needed.
func (e *Engine) runIDCTScaled(m0, m1 int) {
	f := e.F
	ix := newBlockIndex(f, m0, m1)
	nBlocks := ix.n
	groupBlocks := e.Dev.Spec.WorkGroupBlocks
	groups := (nBlocks + groupBlocks - 1) / groupBlocks
	bp := f.BlockPixels()
	stride := e.stride

	phase := func(g *gpusim.Group, item int) {
		bi := g.ID*groupBlocks + item
		if bi >= nBlocks {
			return
		}
		r := ix.at(bi)
		p := f.Planes[r.comp]
		base := (r.by*p.BlocksPerRow + r.bx) * stride
		cb := e.coef[r.comp].Data[base : base+stride : base+stride]
		q := &e.quant[r.comp]
		pw := p.PlaneW()
		dst := e.samples[r.comp].Data[r.by*bp*pw+r.bx*bp:]
		if bp == 1 {
			// 1/8 scale reads only the DC term, whether the frame stores
			// one slot per block (baseline) or all 64 (progressive) —
			// skip the coefficient widening entirely.
			dct.InverseIntScaled1x1Bytes(int32(cb[0])*q[0], dst[:1:1])
			return
		}
		var blk [64]int32
		for i, v := range cb {
			blk[i] = int32(v)
		}
		if bp == 4 {
			dct.InverseIntScaled4x4DequantBytes(blk[:], q, dst, pw)
		} else {
			dct.InverseIntScaled2x2DequantBytes(blk[:], q, dst, pw)
		}
	}

	e.Dev.Run(&gpusim.Kernel{
		Name:          "idct_scaled",
		Groups:        groups,
		ItemsPerGroup: groupBlocks,
		Phases:        []gpusim.PhaseFunc{phase},
	})
}

// runMerged444 is the Section 4.4 merged IDCT + color-conversion kernel
// for 4:4:4 frames: three column passes (Y, Cb, Cr) into local memory,
// then a row pass that converts and stores interleaved RGB directly.
// Scaled decodes dispatch the reduced-resolution merged kernel instead.
func (e *Engine) runMerged444(m0, m1 int) {
	f := e.F
	if f.BlockPixels() < 8 {
		e.runMerged444Scaled(m0, m1)
		return
	}
	p := f.Planes[0]
	b0, b1 := m0*p.V, m1*p.V
	nBlocks := (b1 - b0) * p.BlocksPerRow
	groupBlocks := e.Dev.Spec.WorkGroupBlocks
	groups := (nBlocks + groupBlocks - 1) / groupBlocks
	w, h := f.Img.Width, f.Img.Height

	locate := func(g *gpusim.Group, item int) (bx, by int, ok bool) {
		bi := g.ID*groupBlocks + item/8
		if bi >= nBlocks {
			return 0, 0, false
		}
		bi += b0 * p.BlocksPerRow
		return bi % p.BlocksPerRow, bi / p.BlocksPerRow, true
	}

	colPassFor := func(comp int) gpusim.PhaseFunc {
		return func(g *gpusim.Group, item int) {
			bx, by, ok := locate(g, item)
			if !ok {
				return
			}
			c := item % 8
			base := (by*p.BlocksPerRow + bx) * 64
			cb := e.coef[comp].Data[base : base+64 : base+64]
			q := &e.quant[comp]
			var col [8]int32
			for k := 0; k < 8; k++ {
				col[k] = int32(cb[c+8*k]) * q[c+8*k]
			}
			local := g.Local[(item/8)*192+comp*64 : (item/8)*192+comp*64+64]
			dct.InverseIntColumn(&col, local, c)
		}
	}
	rowPass := func(g *gpusim.Group, item int) {
		bx, by, ok := locate(g, item)
		if !ok {
			return
		}
		row := item % 8
		base := (item / 8) * 192
		var yv, cbv, crv [8]int32
		dct.InverseIntRow(g.Local[base:base+64], row, &yv)
		dct.InverseIntRow(g.Local[base+64:base+128], row, &cbv)
		dct.InverseIntRow(g.Local[base+128:base+192], row, &crv)
		py := by*8 + row
		if py >= h {
			return
		}
		for x := 0; x < 8; x++ {
			px := bx*8 + x
			if px >= w {
				continue
			}
			r, gg, b := color.YCbCrToRGB(yv[x], cbv[x], crv[x])
			i := (py*w + px) * 3
			e.rgb.Data[i], e.rgb.Data[i+1], e.rgb.Data[i+2] = r, gg, b
		}
	}

	e.Dev.Run(&gpusim.Kernel{
		Name:          "merged_idct_color_444",
		Groups:        groups,
		ItemsPerGroup: groupBlocks * 8,
		LocalInt32:    groupBlocks * 192,
		Phases:        []gpusim.PhaseFunc{colPassFor(0), colPassFor(1), colPassFor(2), rowPass},
	})
}

// runMerged444Scaled is the merged IDCT + color kernel at reduced
// resolution: one work-item reconstructs the three co-sited scaled
// blocks (4:4:4 planes are congruent) into private byte buffers through
// the same dct scaled kernels as the CPU path, then converts and stores
// the BlockPix x BlockPix RGB pixels. Roundtripping through clamped
// bytes keeps the output byte-identical to the scalar pipeline.
func (e *Engine) runMerged444Scaled(m0, m1 int) {
	f := e.F
	p := f.Planes[0]
	bp := f.BlockPixels()
	stride := e.stride
	b0, b1 := m0*p.V, m1*p.V
	nBlocks := (b1 - b0) * p.BlocksPerRow
	groupBlocks := e.Dev.Spec.WorkGroupBlocks
	groups := (nBlocks + groupBlocks - 1) / groupBlocks
	w, h := f.OutDims()

	phase := func(g *gpusim.Group, item int) {
		bi := g.ID*groupBlocks + item
		if bi >= nBlocks {
			return
		}
		bi += b0 * p.BlocksPerRow
		bx, by := bi%p.BlocksPerRow, bi/p.BlocksPerRow
		var sam [3][16]byte // bp <= 4: at most 16 samples per block
		for comp := 0; comp < 3; comp++ {
			base := (by*p.BlocksPerRow + bx) * stride
			cb := e.coef[comp].Data[base : base+stride : base+stride]
			q := &e.quant[comp]
			dst := sam[comp][:]
			if bp == 1 {
				// DC term only, at either coefficient stride.
				dct.InverseIntScaled1x1Bytes(int32(cb[0])*q[0], dst)
				continue
			}
			var blk [64]int32
			for i, v := range cb {
				blk[i] = int32(v)
			}
			if bp == 4 {
				dct.InverseIntScaled4x4DequantBytes(blk[:], q, dst, bp)
			} else {
				dct.InverseIntScaled2x2DequantBytes(blk[:], q, dst, bp)
			}
		}
		for y := 0; y < bp; y++ {
			py := by*bp + y
			if py >= h {
				break
			}
			for x := 0; x < bp; x++ {
				px := bx*bp + x
				if px >= w {
					continue
				}
				r, gg, b := color.YCbCrToRGB(int32(sam[0][y*bp+x]), int32(sam[1][y*bp+x]), int32(sam[2][y*bp+x]))
				i := (py*w + px) * 3
				e.rgb.Data[i], e.rgb.Data[i+1], e.rgb.Data[i+2] = r, gg, b
			}
		}
	}

	e.Dev.Run(&gpusim.Kernel{
		Name:          "merged_idct_color_444_scaled",
		Groups:        groups,
		ItemsPerGroup: groupBlocks,
		Phases:        []gpusim.PhaseFunc{phase},
	})
}

// runUpsampleColor is the Section 4.4 merged upsampling + color kernel
// for 4:2:2 (and the 4:2:0 extension): each work-item upsamples the
// chroma for one 8-pixel output segment in registers, loads the matching
// luma row, converts and stores RGB. Work-group shape keeps all 16 items
// of a block on the same branch (no divergence, Section 4.2).
func (e *Engine) runUpsampleColor(r0, r1 int) {
	f := e.F
	w, h := f.OutDims()
	yp := f.Planes[0]
	cp := f.Planes[1]
	ypw, cpw := yp.PlaneW(), cp.PlaneW()
	cph := cp.PlaneH()
	ySam := e.samples[0].Data
	cbSam := e.samples[1].Data
	crSam := e.samples[2].Data

	rows := r1 - r0
	if rows <= 0 {
		return
	}
	// One item produces one 8-pixel output segment.
	segsPerRow := (w + 7) / 8
	items := rows * segsPerRow
	groupItems := 128 // the paper's merged work-group: 128 items
	groups := (items + groupItems - 1) / groupItems

	is420 := f.Sub == jfif.Sub420

	phase := func(g *gpusim.Group, item int) {
		gi := g.ID*groupItems + item
		if gi >= items {
			return
		}
		py := r0 + gi/segsPerRow
		x0 := (gi % segsPerRow) * 8
		// Upsample 8 chroma samples into "registers".
		var cbv, crv [8]int32
		if is420 {
			for x := 0; x < 8 && x0+x < w; x++ {
				cbv[x] = int32(color.UpsampleH2V2At(cbSam, cpw, cph, x0+x, py))
				crv[x] = int32(color.UpsampleH2V2At(crSam, cpw, cph, x0+x, py))
			}
		} else {
			cRow := cbSam[py*cpw : py*cpw+cpw]
			rRow := crSam[py*cpw : py*cpw+cpw]
			for x := 0; x < 8 && x0+x < w; x++ {
				cbv[x] = int32(color.UpsampleH2V1At(cRow, cpw, x0+x))
				crv[x] = int32(color.UpsampleH2V1At(rRow, cpw, x0+x))
			}
		}
		// Load the luma row and convert.
		yRow := ySam[py*ypw:]
		for x := 0; x < 8; x++ {
			px := x0 + x
			if px >= w || py >= h {
				continue
			}
			r, gg, b := color.YCbCrToRGB(int32(yRow[px]), cbv[x], crv[x])
			i := (py*w + px) * 3
			e.rgb.Data[i], e.rgb.Data[i+1], e.rgb.Data[i+2] = r, gg, b
		}
	}

	e.Dev.Run(&gpusim.Kernel{
		Name:          "merged_upsample_color",
		Groups:        groups,
		ItemsPerGroup: groupItems,
		Phases:        []gpusim.PhaseFunc{phase},
	})
}

// runColor444 is the standalone color-conversion kernel (Section 4.3),
// used in split (non-merged) mode for 4:4:4 frames.
func (e *Engine) runColor444(r0, r1 int) {
	f := e.F
	w, h := f.OutDims()
	pw := f.Planes[0].PlaneW()
	rows := r1 - r0
	if rows <= 0 {
		return
	}
	segsPerRow := (w + 3) / 4 // one item converts 4 pixels (vectorized, Fig. 4)
	items := rows * segsPerRow
	groupItems := 128
	groups := (items + groupItems - 1) / groupItems
	ySam, cbSam, crSam := e.samples[0].Data, e.samples[1].Data, e.samples[2].Data

	phase := func(g *gpusim.Group, item int) {
		gi := g.ID*groupItems + item
		if gi >= items {
			return
		}
		py := r0 + gi/segsPerRow
		x0 := (gi % segsPerRow) * 4
		if py >= h {
			return
		}
		for x := x0; x < x0+4 && x < w; x++ {
			r, gg, b := color.YCbCrToRGB(int32(ySam[py*pw+x]), int32(cbSam[py*pw+x]), int32(crSam[py*pw+x]))
			i := (py*w + x) * 3
			e.rgb.Data[i], e.rgb.Data[i+1], e.rgb.Data[i+2] = r, gg, b
		}
	}
	e.Dev.Run(&gpusim.Kernel{
		Name:          "color_444",
		Groups:        groups,
		ItemsPerGroup: groupItems,
		Phases:        []gpusim.PhaseFunc{phase},
	})
}

// runUpsample is the standalone Section 4.2 upsampling kernel (split
// mode): expands the chroma planes to full resolution into dedicated
// device buffers. The odd/even work-item split follows Algorithm 1.
func (e *Engine) runUpsample(r0, r1 int) {
	f := e.F
	yp := f.Planes[0]
	cp := f.Planes[1]
	ypw, cpw := yp.PlaneW(), cp.PlaneW()
	cph := cp.PlaneH()
	rows := r1 - r0
	if rows <= 0 {
		return
	}
	// Two items per (component, output row, chroma block): each produces
	// an 8-pixel half of the 16-pixel output row (Section 4.2).
	segsPerRow := (ypw + 7) / 8
	items := rows * segsPerRow * 2 // two chroma components
	groupItems := 128
	groups := (items + groupItems - 1) / groupItems
	is420 := f.Sub == jfif.Sub420
	cbSam, crSam := e.samples[1].Data, e.samples[2].Data

	phase := func(g *gpusim.Group, item int) {
		gi := g.ID*groupItems + item
		if gi >= items {
			return
		}
		comp := gi % 2
		gi /= 2
		py := r0 + gi/segsPerRow
		x0 := (gi % segsPerRow) * 8
		src, dst := cbSam, e.upsCb.Data
		if comp == 1 {
			src, dst = crSam, e.upsCr.Data
		}
		if is420 {
			for x := x0; x < x0+8 && x < ypw; x++ {
				dst[py*ypw+x] = color.UpsampleH2V2At(src, cpw, cph, x, py)
			}
		} else {
			row := src[py*cpw : py*cpw+cpw]
			for x := x0; x < x0+8 && x < ypw; x++ {
				dst[py*ypw+x] = color.UpsampleH2V1At(row, cpw, x)
			}
		}
	}
	e.Dev.Run(&gpusim.Kernel{
		Name:          "upsample",
		Groups:        groups,
		ItemsPerGroup: groupItems,
		Phases:        []gpusim.PhaseFunc{phase},
	})
}

// runColorFromUpsampled converts using the full-resolution chroma planes
// produced by runUpsample (split mode tail).
func (e *Engine) runColorFromUpsampled(r0, r1 int) {
	f := e.F
	w, h := f.OutDims()
	pw := f.Planes[0].PlaneW()
	rows := r1 - r0
	if rows <= 0 {
		return
	}
	segsPerRow := (w + 3) / 4
	items := rows * segsPerRow
	groupItems := 128
	groups := (items + groupItems - 1) / groupItems
	ySam := e.samples[0].Data

	phase := func(g *gpusim.Group, item int) {
		gi := g.ID*groupItems + item
		if gi >= items {
			return
		}
		py := r0 + gi/segsPerRow
		x0 := (gi % segsPerRow) * 4
		if py >= h {
			return
		}
		for x := x0; x < x0+4 && x < w; x++ {
			r, gg, b := color.YCbCrToRGB(int32(ySam[py*pw+x]), int32(e.upsCb.Data[py*pw+x]), int32(e.upsCr.Data[py*pw+x]))
			i := (py*w + x) * 3
			e.rgb.Data[i], e.rgb.Data[i+1], e.rgb.Data[i+2] = r, gg, b
		}
	}
	e.Dev.Run(&gpusim.Kernel{
		Name:          "color_upsampled",
		Groups:        groups,
		ItemsPerGroup: groupItems,
		Phases:        []gpusim.PhaseFunc{phase},
	})
}

// runGrayColor replicates the luma plane into RGB for grayscale frames.
func (e *Engine) runGrayColor(r0, r1 int) {
	f := e.F
	w, h := f.OutDims()
	pw := f.Planes[0].PlaneW()
	rows := r1 - r0
	if rows <= 0 {
		return
	}
	segsPerRow := (w + 7) / 8
	items := rows * segsPerRow
	groupItems := 128
	groups := (items + groupItems - 1) / groupItems
	ySam := e.samples[0].Data

	phase := func(g *gpusim.Group, item int) {
		gi := g.ID*groupItems + item
		if gi >= items {
			return
		}
		py := r0 + gi/segsPerRow
		x0 := (gi % segsPerRow) * 8
		if py >= h {
			return
		}
		for x := x0; x < x0+8 && x < w; x++ {
			v := ySam[py*pw+x]
			i := (py*w + x) * 3
			e.rgb.Data[i], e.rgb.Data[i+1], e.rgb.Data[i+2] = v, v, v
		}
	}
	e.Dev.Run(&gpusim.Kernel{
		Name:          "gray_rgb",
		Groups:        groups,
		ItemsPerGroup: groupItems,
		Phases:        []gpusim.PhaseFunc{phase},
	})
}
