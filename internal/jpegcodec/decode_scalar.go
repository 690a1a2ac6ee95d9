package jpegcodec

import (
	"hetjpeg/internal/color"
	"hetjpeg/internal/dct"
	"hetjpeg/internal/jfif"
)

// This file is the one back phase, the scalar (non-SIMD) CPU parallel
// phase: dequantization + IDCT, upsampling and color conversion. Every
// decoder mode's pixels come from it, whoever drives it (a decode
// starts at Open, decode.go; its bands run in Run's crew, the batch
// band scheduler or one sequential pass), and every driver must
// produce byte-identical output.
//
// The hot path is a fused MCU-row-band pipeline: each band is
// dequantized + inverse-transformed and then immediately upsampled and
// color-converted while its samples are still in L1/L2, instead of the
// textbook three whole-plane passes. The IDCT dispatches per-block on
// the sparsity summary entropy decoding recorded (Frame.NZ): DC-only
// and 4x4-sparse blocks skip most of the transform, and all kernels
// write clamped bytes straight into the plane.

// IDCTRange dequantizes and inverse-transforms every block of component c
// within MCU rows [m0, m1), writing reconstructed samples into
// f.Samples[c].
func IDCTRange(f *Frame, c, m0, m1 int) {
	p := f.Planes[c]
	idctBlockRows(f, c, m0*p.V, m1*p.V)
}

// idctBlockRows transforms block rows [b0, b1) of component c, the
// work of IDCTRange. Under decode-to-scale it dispatches the scaled
// kernels instead, writing BlockPix x BlockPix samples per block; the
// NZ sparsity watermark keeps driving the DC-flat fast path at every
// scale. A 1/8-scale block reads only its DC term, whether the frame
// stores that one slot (baseline) or all 64 (progressive).
func idctBlockRows(f *Frame, c, b0, b1 int) {
	p := f.Planes[c]
	q := f.QuantInt(c)
	pw := p.PlaneW()
	plane := f.Samples[c]
	coeff := f.Coeff[c]
	bp, cs := f.BlockPix, f.CoeffStride
	nz := f.NZ[c] // nil for a DC-only frame
	for by := b0; by < b1; by++ {
		rowBase := by * bp * pw
		blkBase := by * p.BlocksPerRow
		for bx := 0; bx < p.BlocksPerRow; bx++ {
			bi := blkBase + bx
			blk := coeff[bi*cs : bi*cs+cs : bi*cs+cs]
			dc := blk[0] * q[0]
			dst := plane[rowBase+bx*bp:]
			var n uint8
			if nz != nil {
				n = nz[bi]
			}
			switch bp {
			case 8:
				switch {
				case n == 1:
					dct.InverseIntDCBytes(dc, dst, pw)
				case n != 0 && n <= dct.SparseCutoff4x4+1:
					dct.InverseInt4x4DequantBytes(blk, q, dst, pw)
				default:
					dct.InverseIntDequantBytes(blk, q, dst, pw)
				}
			case 4:
				if n == 1 {
					dct.InverseIntScaledDCBytes(dc, 4, dst, pw)
				} else {
					dct.InverseIntScaled4x4DequantBytes(blk, q, dst, pw)
				}
			case 2:
				if n == 1 {
					dct.InverseIntScaledDCBytes(dc, 2, dst, pw)
				} else {
					dct.InverseIntScaled2x2DequantBytes(blk, q, dst, pw)
				}
			case 1:
				dct.InverseIntScaled1x1Bytes(dc, dst[:1:1])
			}
		}
	}
}

// ColorConvertRange upsamples (if needed) and color-converts luma pixel
// rows [r0, r1) into the interleaved RGB output buffer. Sample planes for
// the covered region must already be reconstructed.
func ColorConvertRange(f *Frame, r0, r1 int, out *RGBImage) {
	colorConvertRange(f, r0, r1, out, &ConvertScratch{})
}

func colorConvertRange(f *Frame, r0, r1 int, out *RGBImage, cs *ConvertScratch) {
	cs.ensure(f)
	w := f.OutW
	switch f.Sub {
	case jfif.SubGray:
		yPlane := f.Samples[0]
		pw := f.Planes[0].PlaneW()
		for y := r0; y < r1; y++ {
			row := yPlane[y*pw : y*pw+w : y*pw+w]
			dst := out.Pix[y*w*3 : y*w*3+w*3 : y*w*3+w*3]
			for x := 0; x < w; x++ {
				v := row[x]
				dst[x*3], dst[x*3+1], dst[x*3+2] = v, v, v
			}
		}
	case jfif.Sub444:
		pw := f.Planes[0].PlaneW()
		yP, cbP, crP := f.Samples[0], f.Samples[1], f.Samples[2]
		for y := r0; y < r1; y++ {
			color.ConvertRow(yP[y*pw:], cbP[y*pw:], crP[y*pw:], out.Pix[y*w*3:], w)
		}
	case jfif.Sub422:
		ypw := f.Planes[0].PlaneW()
		cpw := f.Planes[1].PlaneW()
		yP, cbP, crP := f.Samples[0], f.Samples[1], f.Samples[2]
		for y := r0; y < r1; y++ {
			color.UpsampleRowH2V1Fancy(cbP[y*cpw:y*cpw+cpw], cs.cbUp)
			color.UpsampleRowH2V1Fancy(crP[y*cpw:y*cpw+cpw], cs.crUp)
			color.ConvertRow(yP[y*ypw:], cs.cbUp, cs.crUp, out.Pix[y*w*3:], w)
		}
	case jfif.Sub420:
		ypw := f.Planes[0].PlaneW()
		cpw := f.Planes[1].PlaneW()
		yP, cbP, crP := f.Samples[0], f.Samples[1], f.Samples[2]
		ch := f.Planes[1].PlaneH()
		for y := r0; y < r1; y++ {
			near, far := color.ChromaRowsH2V2(y, ch)
			color.UpsampleRowH2V2Fancy(cbP[near*cpw:near*cpw+cpw], cbP[far*cpw:far*cpw+cpw], cs.cbUp)
			color.UpsampleRowH2V2Fancy(crP[near*cpw:near*cpw+cpw], crP[far*cpw:far*cpw+cpw], cs.crUp)
			color.ConvertRow(yP[y*ypw:], cs.cbUp, cs.crUp, out.Pix[y*w*3:], w)
		}
	}
}

// ParallelPhaseScalar runs the full scalar parallel phase (dequant+IDCT,
// upsample, color conversion) for MCU rows [m0, m1) as a fused band
// pipeline: each MCU row band is transformed and then immediately
// upsampled and color-converted while hot in cache.
func ParallelPhaseScalar(f *Frame, m0, m1 int, out *RGBImage) {
	r0, r1 := f.PixelRows(m0, m1)
	parallelPhaseBands(f, m0, m1, r0, r1, out, &ConvertScratch{})
}

// parallelPhaseBands is the fused pipeline over MCU rows [m0, m1): each
// row is inverse-transformed, then the pixel rows within [lo, hi) that
// it completes (Frame.RowBound's deferral) are converted.
func parallelPhaseBands(f *Frame, m0, m1, lo, hi int, out *RGBImage, cs *ConvertScratch) {
	y := lo
	for m := m0; m < m1; m++ {
		for c := range f.Planes {
			IDCTRange(f, c, m, m+1)
		}
		yEnd := hi
		if m+1 < m1 {
			yEnd = min(yEnd, f.RowBound(m+1))
		}
		yEnd = max(yEnd, y)
		colorConvertRange(f, y, yEnd, out, cs)
		y = yEnd
	}
}

// ParallelPhaseScalarWorkers runs the fused parallel phase on up to
// workers goroutines: Run's crew with every band ready from the
// start, one contiguous band per worker. Output is byte-identical to
// the sequential pipeline.
func ParallelPhaseScalarWorkers(f *Frame, m0, m1 int, out *RGBImage, workers int) {
	workers = max(workers, 1)
	c := newCrew(PlanBands(f, m0, m1, (m1-m0+workers-1)/workers), out, workers)
	c.publish(0, c.bp.Bands())
	c.end(true)
}
