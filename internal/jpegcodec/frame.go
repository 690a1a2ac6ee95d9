// Package jpegcodec implements the baseline JPEG encoder and the
// re-engineered decoder core of the paper's Section 3: a whole-image
// coefficient buffer below the traditional MCU-row machinery, so that
// entropy decoding (sequential, CPU-only) is decoupled from the
// data-parallel stages (dequantization, IDCT, upsampling, color
// conversion) that heterogeneous schedulers distribute freely.
package jpegcodec

import (
	"fmt"

	"hetjpeg/internal/dct"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/pool"
)

// Slab pools for the large per-decode buffers (whole-image coefficients,
// sample planes, interleaved RGB output), so steady-state batch decoding
// stays allocation-flat. Slabs arrive with unspecified contents and
// every stage overwrites what it owns in full: entropy decoding clears
// each baseline block immediately before filling it and sets every NZ
// entry, the IDCT writes every sample of the padded planes, and colour
// conversion every output pixel. Only progressive coefficient slabs,
// which scans accumulate into, are cleared up front (newFrame).
var (
	coeffPool pool.Slab[int32]  // whole-image coefficient slabs
	bytePool  pool.Slab[byte]   // sample planes and RGB pixels
	maskPool  pool.Slab[uint64] // per-block nonzero masks: the encoder's, and progressive refinement's
)

//hetlint:transfer ownership moves to the Frame/RGBImage; Frame.Release / RGBImage.Release put it back
func getCoeffSlab(n int) []int32 { return coeffPool.Get(n) }
func putCoeffSlab(s []int32)     { coeffPool.Put(s) }

//hetlint:transfer ownership moves to the Frame/RGBImage; Frame.Release / RGBImage.Release put it back
func getByteSlab(n int) []byte { return bytePool.Get(n) }
func putByteSlab(s []byte)     { bytePool.Put(s) }

//hetlint:transfer ownership moves to Encode's per-component masks or a progressive decoder; Encode puts them back on return, the decoder when its scans end
func getMaskSlab(n int) []uint64 { return maskPool.Get(n) }
func putMaskSlab(s []uint64)     { maskPool.Put(s) }

// PlaneInfo describes the padded sample geometry of one component.
type PlaneInfo struct {
	// CompW, CompH are the unpadded component dimensions in coded
	// (full-resolution) samples — the block-grid semantics entropy
	// decoding works in, independent of the decode scale.
	CompW, CompH int
	// BlocksPerRow, BlockRows are the padded block-grid dimensions;
	// padding aligns every component to whole MCUs.
	BlocksPerRow, BlockRows int
	// H, V are the component's sampling factors.
	H, V int
	// BlockPix is the reconstructed samples per block edge: 8 for a
	// full-size decode, 4/2/1 under decode-to-scale. The zero value
	// means 8, so hand-built PlaneInfo literals keep working.
	BlockPix int
}

// blockPix maps the zero value to the full-size block edge.
func (p PlaneInfo) blockPix() int {
	if p.BlockPix == 0 {
		return 8
	}
	return p.BlockPix
}

// PlaneW returns the padded plane width in reconstructed samples.
func (p PlaneInfo) PlaneW() int { return p.BlocksPerRow * p.blockPix() }

// PlaneH returns the padded plane height in reconstructed samples.
func (p PlaneInfo) PlaneH() int { return p.BlockRows * p.blockPix() }

// Blocks returns the total number of 8x8 blocks in the plane.
func (p PlaneInfo) Blocks() int { return p.BlocksPerRow * p.BlockRows }

// Frame is the whole-image decode state: parsed structure, the quantized
// coefficient buffer filled by entropy decoding, and the sample planes
// filled by the parallel phase.
type Frame struct {
	Img *jfif.Image
	Sub jfif.Subsampling

	// MCU grid (coded, full-resolution geometry: entropy decoding and
	// scheduling always work in coded MCU rows regardless of scale).
	MCUWidth, MCUHeight int // in coded luma pixels
	MCUsPerRow, MCURows int

	// Scale is the decode-to-scale denominator (1, 2, 4 or 8); the
	// back phase reconstructs directly at the reduced resolution.
	Scale int
	// BlockPix is the reconstructed samples per block edge (8/Scale).
	BlockPix int
	// OutW, OutH are the reconstructed output dimensions:
	// ceil(Width/Scale) x ceil(Height/Scale).
	OutW, OutH int
	// MCUOutH is the reconstructed pixel rows per MCU row
	// (MCUHeight/Scale) — the unit all back-phase pixel-row math uses.
	MCUOutH int
	// CoeffStride is the int32 slots per block in Coeff: 64 normally, 1
	// for DC-only frames (baseline Scale8 decodes store and read only
	// the DC coefficient, collapsing the buffer 64x).
	CoeffStride int

	Planes []PlaneInfo

	// Coeff holds quantized DCT coefficients per component, blocks in
	// raster order, 64 int32 per block in natural (row-major) order.
	// This is the paper's whole-image input buffer: large contiguous
	// transfers to an accelerator need no re-layout.
	Coeff [][]int32

	// Samples holds the reconstructed (post-IDCT) planes, padded
	// geometry, one byte per sample.
	Samples [][]byte

	// NZ records per-block sparsity per component, blocks in raster
	// order: 0 means unknown (the IDCT falls back to the dense kernel),
	// v > 0 means the last nonzero coefficient of the block sits at
	// zigzag index v-1. Entropy decoding fills it for free; the IDCT
	// dispatches DC-only and 4x4-sparse fast paths on it.
	NZ [][]uint8

	// quantInt caches the per-component quantization tables widened to
	// int32, the form every IDCT kernel consumes.
	quantInt [][dct.BlockSize]int32
}

// NewFrameGeometry builds only the geometric view of a parsed image,
// without allocating the whole-image coefficient and sample buffers.
// Profiling uses it to summarize large corpora cheaply.
func NewFrameGeometry(im *jfif.Image) (*Frame, error) {
	f, err := newFrame(im, false, Scale1)
	return f, err
}

// NewFrameScaled builds the decode state for a parsed image at the
// given decode scale: sample planes and the output geometry shrink by
// the scale denominator, and baseline Scale8 frames collapse the
// coefficient buffer to DC-only storage.
func NewFrameScaled(im *jfif.Image, scale Scale) (*Frame, error) {
	return newFrame(im, true, scale)
}

func newFrame(im *jfif.Image, alloc bool, scale Scale) (*Frame, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	sub, err := im.Subsampling()
	if err != nil {
		return nil, err
	}
	if im.Width <= 0 || im.Height <= 0 {
		return nil, fmt.Errorf("jpegcodec: bad dimensions %dx%d", im.Width, im.Height)
	}
	f := &Frame{Img: im, Sub: sub}
	f.MCUWidth, f.MCUHeight = sub.MCUPixels()
	f.MCUsPerRow = (im.Width + f.MCUWidth - 1) / f.MCUWidth
	f.MCURows = (im.Height + f.MCUHeight - 1) / f.MCUHeight

	f.Scale = scale.Denominator()
	f.BlockPix = 8 / f.Scale
	f.OutW = (im.Width + f.Scale - 1) / f.Scale
	f.OutH = (im.Height + f.Scale - 1) / f.Scale
	f.MCUOutH = f.MCUHeight / f.Scale
	// Baseline DC-only decodes never revisit AC coefficients, so one
	// int32 per block suffices; progressive refinement scans read back
	// earlier coefficients and keep the full layout at every scale.
	f.CoeffStride = 64
	if f.Scale == 8 && !im.Progressive {
		f.CoeffStride = 1
	}

	f.Planes = make([]PlaneInfo, len(im.Components))
	f.Coeff = make([][]int32, len(im.Components))
	f.Samples = make([][]byte, len(im.Components))
	f.NZ = make([][]uint8, len(im.Components))
	f.quantInt = make([][dct.BlockSize]int32, len(im.Components))
	hMax, vMax := 1, 1
	for _, c := range im.Components {
		if c.H > hMax {
			hMax = c.H
		}
		if c.V > vMax {
			vMax = c.V
		}
	}
	for i, c := range im.Components {
		p := PlaneInfo{
			CompW:        (im.Width*c.H + hMax - 1) / hMax,
			CompH:        (im.Height*c.V + vMax - 1) / vMax,
			BlocksPerRow: f.MCUsPerRow * c.H,
			BlockRows:    f.MCURows * c.V,
			H:            c.H,
			V:            c.V,
			BlockPix:     f.BlockPix,
		}
		f.Planes[i] = p
		if q := im.Quant[c.QuantSel]; q != nil {
			for k, v := range q {
				f.quantInt[i][k] = int32(v)
			}
		}
		if alloc {
			coeff := getCoeffSlab(p.Blocks() * f.CoeffStride)
			if im.Progressive {
				clear(coeff) // scans accumulate into it
			}
			f.Coeff[i] = coeff
			f.Samples[i] = getByteSlab(p.PlaneW() * p.PlaneH())
			if f.CoeffStride == 64 {
				// DC-only frames skip the sparsity watermark: every block
				// is DC-only by construction.
				f.NZ[i] = getByteSlab(p.Blocks())
			}
		}
	}
	return f, nil
}

// QuantInt returns component c's quantization table widened to int32.
func (f *Frame) QuantInt(c int) *[dct.BlockSize]int32 { return &f.quantInt[c] }

// coeffStride maps a zero value (hand-built frames in tests) to the
// full 64-coefficient layout.
func (f *Frame) coeffStride() int {
	if f.CoeffStride == 0 {
		return 64
	}
	return f.CoeffStride
}

// DCOnly reports whether the frame stores only DC coefficients
// (baseline 1/8-scale decodes).
func (f *Frame) DCOnly() bool { return f.coeffStride() == 1 }

// CoeffPerBlock returns the int32 slots per block in Coeff (64, or 1
// for DC-only frames), mapping the zero value to 64. Consumers outside
// the package (the device cost plans) use it so the defaulting rule has
// one authoritative site.
func (f *Frame) CoeffPerBlock() int { return f.coeffStride() }

// BlockPixels returns the reconstructed samples per block edge (8 at
// full size; 4, 2 or 1 under decode-to-scale), mapping the zero value
// to 8.
func (f *Frame) BlockPixels() int {
	if f.BlockPix == 0 {
		return 8
	}
	return f.BlockPix
}

// OutDims returns the reconstructed output dimensions, mapping the
// zero value to the coded size.
func (f *Frame) OutDims() (w, h int) { return f.outW(), f.outH() }

// Block returns the coefficient slice of block (bx, by) of component c:
// 64 natural-order coefficients normally, a single DC slot for DC-only
// frames.
func (f *Frame) Block(c, bx, by int) []int32 {
	return f.blockAt(c, by*f.Planes[c].BlocksPerRow+bx)
}

// blockAt returns the coefficient slice of block bi (raster order) of
// component c.
func (f *Frame) blockAt(c, bi int) []int32 {
	cs := f.coeffStride()
	return f.Coeff[c][bi*cs : bi*cs+cs : bi*cs+cs]
}

// CoeffBytes returns the byte size of the coefficient data for MCU rows
// [m0, m1) across all components (what a host→device transfer moves; the
// wire format is int16 per coefficient, as in the paper's short buffers —
// DC-only frames move a single int16 per block).
func (f *Frame) CoeffBytes(m0, m1 int) int {
	n := 0
	cs := f.coeffStride()
	for c := range f.Planes {
		p := f.Planes[c]
		n += (m1 - m0) * p.V * p.BlocksPerRow * cs * 2
	}
	return n
}

// outH maps the zero value (hand-built frames) to the coded height.
func (f *Frame) outH() int {
	if f.OutH == 0 {
		return f.Img.Height
	}
	return f.OutH
}

// outW maps the zero value to the coded width.
func (f *Frame) outW() int {
	if f.OutW == 0 {
		return f.Img.Width
	}
	return f.OutW
}

// mcuOutH maps the zero value to the coded MCU height.
func (f *Frame) mcuOutH() int {
	if f.MCUOutH == 0 {
		return f.MCUHeight
	}
	return f.MCUOutH
}

// PixelRows maps MCU row range [m0, m1) to output pixel rows, clamped
// to the output height. At full size these are coded luma rows; under
// decode-to-scale they are scaled rows (MCUOutH per MCU row).
func (f *Frame) PixelRows(m0, m1 int) (int, int) {
	mh, oh := f.mcuOutH(), f.outH()
	r0 := m0 * mh
	r1 := m1 * mh
	if r1 > oh {
		r1 = oh
	}
	if r0 > oh {
		r0 = oh
	}
	return r0, r1
}

// TotalBlocks returns the number of 8x8 blocks across all components.
func (f *Frame) TotalBlocks() int {
	n := 0
	for _, p := range f.Planes {
		n += p.Blocks()
	}
	return n
}

// Release returns the frame's coefficient and sample slabs to the
// decoder's buffer pools and drops its slices of the input stream, so a
// kept result does not pin the input. The frame's geometry stays valid,
// but Coeff, Samples and the scan data become nil: call it only once
// the pixels (or coefficients) are no longer needed. Releasing is
// optional — an unreleased frame is simply garbage-collected.
func (f *Frame) Release() {
	f.Img.EntropyData = nil
	scans := f.Img.Scans
	for i := range scans {
		scans[i].Data = nil
	}
	for i := range f.Coeff {
		if f.Coeff[i] != nil {
			putCoeffSlab(f.Coeff[i])
			f.Coeff[i] = nil
		}
	}
	for i := range f.Samples {
		if f.Samples[i] != nil {
			putByteSlab(f.Samples[i])
			f.Samples[i] = nil
		}
	}
	for i := range f.NZ {
		if f.NZ[i] != nil {
			putByteSlab(f.NZ[i])
			f.NZ[i] = nil
		}
	}
}

// RGBImage is a decoded image: interleaved 8-bit RGB.
type RGBImage struct {
	W, H int
	Pix  []byte // len = W*H*3
}

// NewRGBImage allocates a w×h RGB image, reusing a pooled pixel buffer
// when one is available.
func NewRGBImage(w, h int) *RGBImage {
	return &RGBImage{W: w, H: h, Pix: getByteSlab(w * h * 3)}
}

// Release returns the image's pixel buffer to the decoder's buffer pool
// and nils Pix. Call it only once the pixels are no longer needed;
// releasing is optional.
func (im *RGBImage) Release() {
	if im.Pix != nil {
		putByteSlab(im.Pix)
		im.Pix = nil
	}
}

// At returns the pixel at (x, y).
func (im *RGBImage) At(x, y int) (r, g, b byte) {
	i := (y*im.W + x) * 3
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set writes the pixel at (x, y).
func (im *RGBImage) Set(x, y int, r, g, b byte) {
	i := (y*im.W + x) * 3
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}
