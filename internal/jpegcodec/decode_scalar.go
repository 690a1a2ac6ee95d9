package jpegcodec

import (
	"fmt"

	"hetjpeg/internal/color"
	"hetjpeg/internal/dct"
	"hetjpeg/internal/jfif"
)

// This file implements the scalar (non-SIMD) CPU parallel phase: the
// reference implementation of dequantization + IDCT, upsampling and color
// conversion, and the one back phase: every decoder mode's pixels come
// from it, and its banded and pipelined drivers must produce
// byte-identical output.
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
	IDCTBlockRows(f, c, m0*p.V, m1*p.V)
}

// IDCTBlockRows transforms block rows [b0, b1) of component c. The
// heterogeneous decoder uses it for the one-block-row halo the 4:2:0
// vertical filter needs above a CPU partition. Under decode-to-scale it
// dispatches the scaled kernels instead, writing BlockPix x BlockPix
// samples per block; the NZ sparsity watermark keeps driving the
// DC-flat fast path at every scale.
func IDCTBlockRows(f *Frame, c, b0, b1 int) {
	p := f.Planes[c]
	q := f.QuantInt(c)
	pw := p.PlaneW()
	plane := f.Samples[c]
	coeff := f.Coeff[c]
	if f.DCOnly() {
		// Baseline 1/8 scale: one stored DC per block, one sample out.
		for by := b0; by < b1; by++ {
			rowBase := by * pw
			blkBase := by * p.BlocksPerRow
			for bx := 0; bx < p.BlocksPerRow; bx++ {
				dct.InverseIntScaled1x1Bytes(coeff[blkBase+bx]*q[0],
					plane[rowBase+bx:rowBase+bx+1:rowBase+bx+1])
			}
		}
		return
	}
	bp := f.BlockPix
	if bp == 0 {
		bp = 8
	}
	nz := f.NZ[c] // nil when the frame skipped entropy bookkeeping
	for by := b0; by < b1; by++ {
		rowBase := by * bp * pw
		blkBase := by * p.BlocksPerRow
		for bx := 0; bx < p.BlocksPerRow; bx++ {
			blk := coeff[(blkBase+bx)*64 : (blkBase+bx)*64+64 : (blkBase+bx)*64+64]
			dst := plane[rowBase+bx*bp:]
			var n uint8
			if nz != nil {
				n = nz[blkBase+bx]
			}
			switch bp {
			case 8:
				switch {
				case n == 1:
					dct.InverseIntDCBytes(blk[0]*q[0], dst, pw)
				case n != 0 && n <= dct.SparseCutoff4x4+1:
					dct.InverseInt4x4DequantBytes(blk, q, dst, pw)
				default:
					dct.InverseIntDequantBytes(blk, q, dst, pw)
				}
			case 4:
				if n == 1 {
					dct.InverseIntScaledDCBytes(blk[0]*q[0], 4, dst, pw)
				} else {
					dct.InverseIntScaled4x4DequantBytes(blk, q, dst, pw)
				}
			case 2:
				if n == 1 {
					dct.InverseIntScaledDCBytes(blk[0]*q[0], 2, dst, pw)
				} else {
					dct.InverseIntScaled2x2DequantBytes(blk, q, dst, pw)
				}
			case 1:
				// Progressive 1/8 scale keeps full coefficient storage;
				// reconstruction still reads only the DC term.
				dct.InverseIntScaled1x1Bytes(blk[0]*q[0], dst[:1:1])
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
	w := f.outW()
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
			upsample420Row(cbP, cpw, ch, y, cs.cbUp, cs.blend)
			upsample420Row(crP, cpw, ch, y, cs.crUp, cs.blend)
			color.ConvertRow(yP[y*ypw:], cs.cbUp, cs.crUp, out.Pix[y*w*3:], w)
		}
	}
}

// upsample420Row produces one full-resolution chroma row (output luma row
// index y) from an h2v2 plane using the fancy triangle filter: a 3:1
// vertical blend of the two nearest chroma rows followed by the
// horizontal Algorithm 1 filter. blend is caller-provided scratch of
// length >= cpw.
func upsample420Row(plane []byte, cpw, ch, y int, out []byte, blend []int) {
	near := y / 2
	var far int
	if y%2 == 0 {
		far = near - 1
	} else {
		far = near + 1
	}
	if far < 0 {
		far = 0
	}
	if far >= ch {
		far = ch - 1
	}
	rn := plane[near*cpw : near*cpw+cpw]
	rf := plane[far*cpw : far*cpw+cpw]
	// Vertical 3:1 blend into 10-bit intermediate, then the horizontal
	// triangle filter on the blended row (libjpeg h2v2 fancy upsampling).
	blend = blend[:cpw]
	for i := range blend {
		blend[i] = 3*int(rn[i]) + int(rf[i])
	}
	n := cpw
	out[0] = byte((4*blend[0] + 8) >> 4)
	if n == 1 {
		out[1] = out[0]
		return
	}
	out[1] = byte((3*blend[0] + blend[1] + 7) >> 4)
	for i := 1; i < n-1; i++ {
		c := 3 * blend[i]
		out[2*i] = byte((c + blend[i-1] + 8) >> 4)
		out[2*i+1] = byte((c + blend[i+1] + 7) >> 4)
	}
	out[2*n-2] = byte((3*blend[n-1] + blend[n-2] + 8) >> 4)
	out[2*n-1] = byte((4*blend[n-1] + 8) >> 4)
}

// bandBound returns the exclusive pixel row up to which color conversion
// is safe once MCU rows [.., m) are reconstructed. For 4:2:0 the last
// pixel row of band m-1 reads the first chroma row of band m through the
// vertical triangle filter, so interior bounds shift up one row (the
// same deferral rule the GPU chunk scheduler applies, gpuRowBound).
func bandBound(f *Frame, m int) int {
	y := m * f.mcuOutH()
	if f.Sub == jfif.Sub420 && m < f.MCURows {
		y--
	}
	if y > f.outH() {
		y = f.outH()
	}
	return y
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
// it completes (bandBound's deferral) are converted.
func parallelPhaseBands(f *Frame, m0, m1, lo, hi int, out *RGBImage, cs *ConvertScratch) {
	y := lo
	for m := m0; m < m1; m++ {
		for c := range f.Planes {
			IDCTRange(f, c, m, m+1)
		}
		yEnd := hi
		if m+1 < m1 {
			yEnd = min(yEnd, bandBound(f, m+1))
		}
		yEnd = max(yEnd, y)
		colorConvertRange(f, y, yEnd, out, cs)
		y = yEnd
	}
}

// ParallelPhaseScalarWorkers runs the fused parallel phase on up to
// workers goroutines: decodeWhole's crew with every band ready from the
// start, one contiguous band per worker. Output is byte-identical to
// the sequential pipeline.
func ParallelPhaseScalarWorkers(f *Frame, m0, m1 int, out *RGBImage, workers int) {
	workers = max(workers, 1)
	c := newCrew(PlanBands(f, m0, m1, (m1-m0+workers-1)/workers), out, workers)
	c.publish(0, c.bp.Bands())
	c.end(true)
}

// DecodeScalar is the sequential reference decoder (the libjpeg analog):
// entropy decode then the scalar parallel phase, whole image.
func DecodeScalar(data []byte) (*RGBImage, error) {
	return DecodeScalarScaled(data, Scale1)
}

// DecodeScalarScaled is the sequential reference decoder at a decode
// scale — the scalar scaled reference every other execution path's
// scaled output must match byte for byte.
func DecodeScalarScaled(data []byte, scale Scale) (*RGBImage, error) {
	out, _, err := DecodeScalarWorkers(data, scale, 1)
	return out, err
}

// DecodeScalarWorkers is DecodeScalarScaled on up to workers goroutines,
// with byte-identical output and the same errors: the back phase of a
// baseline stream overlaps its entropy stage, a progressive one's starts
// after the last scan. dcOnly reports that the coefficient-domain
// DC-only path ran (baseline input at 1/8 scale).
func DecodeScalarWorkers(data []byte, scale Scale, workers int) (out *RGBImage, dcOnly bool, err error) {
	out, dcOnly, _, err = decodeWhole(data, scale, workers, false)
	return out, dcOnly, err
}

// decodeWhole is the one whole-image sequence behind the scalar entry
// points, the paper's pipeline inside one image (§4.5/§5.2) on the wall
// clock: the caller entropy-decodes, and each band whose rows are
// decoded goes to a crew of workers-1 goroutines, which the caller
// joins when entropy ends. On a strict error no band starts any more,
// and the output goes back once none runs. The frame goes back to the
// pools on every path; nothing reads it after the last band.
func decodeWhole(data []byte, scale Scale, workers int, salvage bool) (*RGBImage, bool, *SalvageReport, error) {
	f, ed, err := prepareDecode(data, scale, salvage)
	if err != nil {
		return nil, false, nil, err
	}
	defer f.Release()
	out := NewRGBImage(f.OutW, f.OutH)
	// One worker runs the fused sequential pass as one band; a crew's
	// bands are one MCU row, so its helpers trail entropy by a row.
	bandRows := 1
	if workers <= 1 {
		bandRows = f.MCURows
	}
	c := newCrew(PlanBands(f, 0, f.MCURows, bandRows), out, workers)
	for !ed.Done() {
		from, to, err := c.bp.Step(ed, f.MCURows)
		if err != nil {
			c.end(false)
			out.Release()
			return nil, false, nil, err
		}
		c.publish(from, to)
	}
	c.end(true)
	return out, f.DCOnly(), ed.SalvageReport(), nil
}

// PrepareDecode parses the stream and allocates whole-image buffers,
// returning the frame and a chunked entropy decoder positioned at row 0.
func PrepareDecode(data []byte) (*Frame, *EntropyDecoder, error) {
	return PrepareDecodeScaled(data, Scale1)
}

// PrepareDecodeScaled is PrepareDecode at a decode scale; an invalid
// scale fails with ErrUnsupportedScale before the stream is parsed.
func PrepareDecodeScaled(data []byte, scale Scale) (*Frame, *EntropyDecoder, error) {
	return prepareDecode(data, scale, false)
}

// prepareDecode is PrepareDecodeScaled, or with salvage
// PrepareDecodeSalvageScaled.
func prepareDecode(data []byte, scale Scale, salvage bool) (*Frame, *EntropyDecoder, error) {
	if err := scale.Validate(); err != nil {
		return nil, nil, err
	}
	parse := jfif.Parse
	if salvage {
		parse = jfif.ParseSalvage
	}
	im, perr := parse(data)
	if im == nil {
		return nil, nil, perr
	}
	for _, c := range im.Components {
		if im.Quant[c.QuantSel] == nil {
			return nil, nil, fmt.Errorf("jpegcodec: missing quant table %d", c.QuantSel)
		}
	}
	f, err := NewFrameScaled(im, scale)
	if err != nil {
		return nil, nil, err
	}
	ed := NewEntropyDecoder(f)
	if salvage {
		rep := NewSalvageReport(f.MCUsPerRow * f.MCURows)
		if perr != nil {
			rep.record(-1, perr)
		}
		ed.EnableSalvage(rep)
	}
	return f, ed, nil
}
