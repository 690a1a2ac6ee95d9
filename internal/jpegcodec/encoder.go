package jpegcodec

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"hetjpeg/internal/bitstream"
	"hetjpeg/internal/color"
	"hetjpeg/internal/dct"
	"hetjpeg/internal/huffman"
	"hetjpeg/internal/jfif"
)

// EncodeOptions controls the baseline JPEG encoder.
type EncodeOptions struct {
	// Quality is the libjpeg-style quality factor, 1..100. Zero means 75.
	Quality int
	// Subsampling selects the chroma layout (default Sub444).
	Subsampling jfif.Subsampling
	// RestartInterval, when > 0, inserts RSTn markers every that many MCUs.
	RestartInterval int
	// OptimizeHuffman builds image-specific optimal Huffman tables with a
	// second statistics pass instead of using the Annex K defaults.
	OptimizeHuffman bool
	// Progressive emits a multi-scan SOF2 stream following Script
	// (default: ScriptDefault). Progressive scans always use per-scan
	// optimal Huffman tables, so OptimizeHuffman is implied.
	Progressive bool
	// Script is the progressive scan script; ignored unless Progressive.
	Script []ScanSpec
	// Workers bounds the forward pass's parallelism: color conversion,
	// chroma downsampling, padding, forward DCT and quantization run as
	// contiguous row bands across this many goroutines (the mirror of
	// the decoder's MCU-row band decomposition). 0 or 1 runs
	// sequentially. Output is byte-identical for every worker count —
	// bands write disjoint regions and the entropy pass stays
	// sequential.
	Workers int
}

func (o *EncodeOptions) withDefaults() EncodeOptions {
	out := *o
	if out.Quality == 0 {
		out.Quality = 75
	}
	return out
}

// Encode compresses an RGB image into a baseline JPEG stream.
func Encode(img *RGBImage, opts EncodeOptions) ([]byte, error) {
	opts = opts.withDefaults()
	if img.W <= 0 || img.H <= 0 {
		return nil, fmt.Errorf("jpegcodec: bad dimensions %dx%d", img.W, img.H)
	}
	if img.W >= 1<<16 || img.H >= 1<<16 {
		return nil, fmt.Errorf("jpegcodec: dimensions %dx%d exceed JPEG limits", img.W, img.H)
	}
	if opts.Subsampling == jfif.SubGray {
		return nil, fmt.Errorf("jpegcodec: grayscale encoding not supported (decode-only)")
	}

	lumaQ := jfif.ScaleQuantTable(&jfif.StdLuminanceQuant, opts.Quality)
	chromaQ := jfif.ScaleQuantTable(&jfif.StdChrominanceQuant, opts.Quality)

	hs, vs := opts.Subsampling.Factors()
	comps := []jfif.Component{
		{ID: 1, H: hs, V: vs, QuantSel: 0, DCSel: 0, ACSel: 0},
		{ID: 2, H: 1, V: 1, QuantSel: 1, DCSel: 1, ACSel: 1},
		{ID: 3, H: 1, V: 1, QuantSel: 1, DCSel: 1, ACSel: 1},
	}

	planes, infos, releasePlanes := buildEncodePlanes(img, opts.Subsampling, opts.Workers)

	// Quantized coefficients per component, blocks in raster order, in
	// pooled whole-image slabs (the encode-side mirror of Frame.Coeff),
	// and beside them one nonzero mask per block: bit k is set when the
	// coefficient at zigzag position k is nonzero.
	recips := recipsFor(opts.Quality, &lumaQ, &chromaQ)
	var coeffs [3][]int32
	var masks [3][]uint64
	for ci := range planes {
		coeffs[ci] = getCoeffSlab(infos[ci].Blocks() * 64)
		masks[ci] = getMaskSlab(infos[ci].Blocks())
		forwardComponent(planes[ci], infos[ci], &recips[min(ci, 1)], coeffs[ci], masks[ci], opts.Workers)
	}
	// The sample planes are consumed by the forward pass; only the
	// coefficients and masks feed entropy encoding.
	releasePlanes()
	defer func() {
		for ci := range coeffs {
			putCoeffSlab(coeffs[ci])
			putMaskSlab(masks[ci])
		}
	}()

	mcuW, mcuH := opts.Subsampling.MCUPixels()
	mcusPerRow := (img.W + mcuW - 1) / mcuW
	mcuRows := (img.H + mcuH - 1) / mcuH

	if opts.Progressive {
		return encodeProgressive(img, opts, comps, coeffs, masks, infos, &lumaQ, &chromaQ, mcusPerRow, mcuRows)
	}

	scan := baselineScan{comps: comps, coeffs: coeffs, masks: masks, infos: infos,
		mcusPerRow: mcusPerRow, mcuRows: mcuRows, restartInterval: opts.RestartInterval}
	dcTabs := [2]huffman.Spec{huffman.StdDCLuminance, huffman.StdDCChrominance}
	acTabs := [2]huffman.Spec{huffman.StdACLuminance, huffman.StdACChrominance}
	dc := [2]*huffman.Table{huffman.StdDCLuminanceTable, huffman.StdDCChrominanceTable}
	ac := [2]*huffman.Table{huffman.StdACLuminanceTable, huffman.StdACChrominanceTable}
	if opts.OptimizeHuffman {
		var dcFreq, acFreq [2][256]int64
		scan.walk(nil, func(tab int, blk *[64]int32, mask uint64, diff int32) {
			countBlock(&dcFreq[tab&1], &acFreq[tab&1], blk, mask, diff)
		})
		for i := 0; i < 2; i++ {
			var err error
			if dcTabs[i], err = huffman.BuildFromFrequencies(dcFreq[i]); err != nil {
				return nil, fmt.Errorf("jpegcodec: optimal DC table %d: %w", i, err)
			}
			if acTabs[i], err = huffman.BuildFromFrequencies(acFreq[i]); err != nil {
				return nil, fmt.Errorf("jpegcodec: optimal AC table %d: %w", i, err)
			}
			if dc[i], err = huffman.New(dcTabs[i]); err != nil {
				return nil, err
			}
			if ac[i], err = huffman.New(acTabs[i]); err != nil {
				return nil, err
			}
		}
	}

	w := newEntropyWriter(infos)
	scan.walk(w.WriteRestartMarker, func(tab int, blk *[64]int32, mask uint64, diff int32) {
		emitBlock(w, dc[tab&1], ac[tab&1], blk, mask, diff)
	})
	entropy := w.Flush()

	jw := jfif.NewWriter()
	jw.WriteAPP0()
	jw.WriteDQT(0, &lumaQ)
	jw.WriteDQT(1, &chromaQ)
	jw.WriteSOF0(img.W, img.H, comps)
	jw.WriteDHT(0, 0, dcTabs[0])
	jw.WriteDHT(1, 0, acTabs[0])
	jw.WriteDHT(0, 1, dcTabs[1])
	jw.WriteDHT(1, 1, acTabs[1])
	if opts.RestartInterval > 0 {
		jw.WriteDRI(opts.RestartInterval)
	}
	// WriteSOS copies the entropy bytes into the container, so the
	// pooled emission buffer goes straight back.
	jw.WriteSOS(comps, entropy)
	putByteSlab(entropy)
	return jw.Finish(), nil
}

// newEntropyWriter returns a bit writer appending into a pooled slab
// sized for a typical photographic scan (~2 bytes per 8x8 block at
// quality 75-90); the writer regrows past it and Flush hands the final
// buffer back for recycling.
func newEntropyWriter(infos [3]PlaneInfo) *bitstream.Writer {
	blocks := 0
	for _, info := range infos {
		blocks += info.Blocks()
	}
	return bitstream.NewWriterBuf(getByteSlab(blocks * 2))
}

// parallelRowBands splits [0, n) into contiguous chunks across at most
// `workers` goroutines. fn writes only its own [lo, hi) range, so the
// result is byte-identical for every worker count; workers <= 1 runs
// inline.
func parallelRowBands(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// buildEncodePlanes converts to YCbCr, downsamples chroma, and pads each
// plane to its MCU-aligned geometry with edge replication. All planes —
// intermediates and the returned ones — live in pooled slabs; the
// intermediates go back to the pool before return, and the release
// closure recycles the three final planes once the forward pass has
// consumed them.
func buildEncodePlanes(img *RGBImage, sub jfif.Subsampling, workers int) ([3][]byte, [3]PlaneInfo, func()) {
	w, h := img.W, img.H
	hs, vs := sub.Factors()
	mcuW, mcuH := sub.MCUPixels()
	mcusPerRow := (w + mcuW - 1) / mcuW
	mcuRows := (h + mcuH - 1) / mcuH

	var infos [3]PlaneInfo
	infos[0] = PlaneInfo{CompW: w, CompH: h, BlocksPerRow: mcusPerRow * hs, BlockRows: mcuRows * vs, H: hs, V: vs, BlockPix: 8}
	cw := (w + hs - 1) / hs
	ch := (h + vs - 1) / vs
	infos[1] = PlaneInfo{CompW: cw, CompH: ch, BlocksPerRow: mcusPerRow, BlockRows: mcuRows, H: 1, V: 1, BlockPix: 8}
	infos[2] = infos[1]

	var planes [3][]byte
	release := func() {
		for _, p := range planes {
			putByteSlab(p)
		}
	}
	if sub == jfif.Sub444 {
		// Convert straight into the padded planes. Padded row y converts
		// image row min(y, h-1) and replicates its last sample to the
		// right, so no band reads rows another band writes.
		pw, ph := infos[0].PlaneW(), infos[0].PlaneH()
		for ci := range planes {
			planes[ci] = getByteSlab(pw * ph)
		}
		parallelRowBands(ph, workers, func(lo, hi int) {
			for y := lo; y < hi; y++ {
				src := img.Pix[min(y, h-1)*w*3:]
				rows := [3][]byte{planes[0][y*pw : y*pw+pw], planes[1][y*pw : y*pw+pw], planes[2][y*pw : y*pw+pw]}
				color.RGBToYCbCrRow(src, rows[0][:w], rows[1][:w], rows[2][:w])
				for _, row := range rows {
					last := row[w-1]
					for x := w; x < pw; x++ {
						row[x] = last
					}
				}
			}
		})
		return planes, infos, release
	}

	yP := getByteSlab(w * h)
	cbP := getByteSlab(w * h)
	crP := getByteSlab(w * h)
	parallelRowBands(h, workers, func(lo, hi int) {
		color.RGBToYCbCrRow(img.Pix[lo*w*3:], yP[lo*w:hi*w], cbP[lo*w:hi*w], crP[lo*w:hi*w])
	})

	// Downsample chroma into fresh pooled slabs.
	cb2 := getByteSlab(cw * ch)
	cr2 := getByteSlab(cw * ch)
	switch sub {
	case jfif.Sub422:
		parallelRowBands(h, workers, func(lo, hi int) {
			// Per-band scratch for padding odd-width rows to the
			// downsampler's even input length.
			scratch := getByteSlab(2 * cw)
			for y := lo; y < hi; y++ {
				in := padRowInto(scratch, cbP[y*w:y*w+w])
				color.DownsampleRowsH2V1(in, cb2[y*cw:y*cw+cw])
				in = padRowInto(scratch, crP[y*w:y*w+w])
				color.DownsampleRowsH2V1(in, cr2[y*cw:y*cw+cw])
			}
			putByteSlab(scratch)
		})
	case jfif.Sub420:
		evenW, evenH := 2*cw, 2*ch
		cbe := padPlaneSlab(cbP, w, h, evenW, evenH, workers)
		cre := padPlaneSlab(crP, w, h, evenW, evenH, workers)
		color.DownsampleH2V2(cbe, evenW, evenH, cb2)
		color.DownsampleH2V2(cre, evenW, evenH, cr2)
		putByteSlab(cbe)
		putByteSlab(cre)
	}

	planes[0] = padPlaneSlab(yP, w, h, infos[0].PlaneW(), infos[0].PlaneH(), workers)
	planes[1] = padPlaneSlab(cb2, cw, ch, infos[1].PlaneW(), infos[1].PlaneH(), workers)
	planes[2] = padPlaneSlab(cr2, cw, ch, infos[2].PlaneW(), infos[2].PlaneH(), workers)
	for _, p := range [][]byte{yP, cbP, crP, cb2, cr2} {
		putByteSlab(p)
	}
	return planes, infos, release
}

// padRowInto copies row into dst, replicating the last sample to fill
// the tail. Rows already long enough pass through without a copy.
func padRowInto(dst, row []byte) []byte {
	if len(row) >= len(dst) {
		return row[:len(dst)]
	}
	copy(dst, row)
	last := row[len(row)-1]
	for i := len(row); i < len(dst); i++ {
		dst[i] = last
	}
	return dst
}

// padPlaneSlab expands a w×h plane to pw×ph by edge replication into a
// fresh pooled slab (always a copy, so the caller's release accounting
// never depends on whether padding happened).
func padPlaneSlab(p []byte, w, h, pw, ph, workers int) []byte {
	out := getByteSlab(pw * ph)
	parallelRowBands(ph, workers, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			sy := y
			if sy >= h {
				sy = h - 1
			}
			dst := out[y*pw : y*pw+pw]
			src := p[sy*w : sy*w+w]
			copy(dst, src)
			last := src[w-1]
			for x := w; x < pw; x++ {
				dst[x] = last
			}
		}
	})
	return out
}

// recipShift is the fixed shift of the forward pass's reciprocal
// quantiser: 20 + 11, for dividends below 2^20 and divisors below 2^11.
const recipShift = 31

// quantRecip is a quantisation table as the forward pass divides by it.
// ForwardInt's output is scaled by 8, so coefficient i divides by
// d = 8·quant[i], rounding half away from zero. Per natural-order
// coefficient it holds m = ⌈2^31/d⌉ and the rounding bias (d/2)·m, so
// that (|v|·m + bias) >> 31 equals (|v| + d/2) / d. With n = |v| + d/2,
// m exceeds 2^31/d by less than 1, so n·m/2^31 exceeds n/d by less than
// n/2^31 < 2^-11 ≤ 1/d: too little to lift n/d, whose fraction is at
// most (d-1)/d, to the next integer. Baseline tables give
// d ≤ 8·255 = 2040, ForwardInt's output stays far below 2^20 for 8-bit
// samples, and TestQuantRecipExact checks every such d and dividend.
type quantRecip struct {
	mul, bias [64]uint64
}

// recipCache holds each quality's reciprocal tables (luma, chroma),
// built on first use: the forward pass's goroutines share them, so
// tables built per Encode would cost a heap allocation each time.
var recipCache [101]atomic.Pointer[[2]quantRecip]

// recipsFor returns the reciprocal tables of quality's luma and chroma
// quantisation tables, which are functions of the quality alone.
func recipsFor(quality int, luma, chroma *[64]uint16) *[2]quantRecip {
	c := &recipCache[min(max(quality, 1), 100)]
	r := c.Load()
	if r == nil {
		r = &[2]quantRecip{newQuantRecip(luma), newQuantRecip(chroma)}
		c.Store(r)
	}
	return r
}

func newQuantRecip(quant *[64]uint16) quantRecip {
	var r quantRecip
	for i, q := range quant {
		d := 8 * uint64(q)
		r.mul[i] = (1<<recipShift + d - 1) / d
		r.bias[i] = d / 2 * r.mul[i]
	}
	return r
}

// forwardComponent runs level shift, forward DCT and quantization over
// every block of a padded plane, writing quantized coefficients into
// out (len info.Blocks()*64) and each block's nonzero mask into masks
// (len info.Blocks()). Block rows fan out as contiguous bands; each
// band owns disjoint output blocks, so results match the sequential
// pass bit for bit.
func forwardComponent(plane []byte, info PlaneInfo, r *quantRecip, out []int32, masks []uint64, workers int) {
	pw := info.PlaneW()
	parallelRowBands(info.BlockRows, workers, func(lo, hi int) {
		var blk [64]int32
		for by := lo; by < hi; by++ {
			for bx := 0; bx < info.BlocksPerRow; bx++ {
				for y := 0; y < 8; y++ {
					base := (by*8+y)*pw + bx*8
					for x := 0; x < 8; x++ {
						blk[y*8+x] = int32(plane[base+x]) - 128
					}
				}
				dct.ForwardInt(&blk)
				b := by*info.BlocksPerRow + bx
				masks[b] = quantizeBlock(&blk, r, (*[64]int32)(out[b*64:]))
			}
		}
	})
}

// quantizeBlock quantises blk into dst by reciprocal multiplication and
// returns the block's nonzero mask, bits in zigzag order.
func quantizeBlock(blk *[64]int32, r *quantRecip, dst *[64]int32) uint64 {
	var mask uint64
	for i, v := range blk {
		sign := v >> 31 // 0 or -1
		q := (uint64((v^sign)-sign)*r.mul[i] + r.bias[i]) >> recipShift
		dst[i] = (int32(q) ^ sign) - sign
		mask |= (q | -q) >> 63 << uint(jfif.Natural[i])
	}
	return mask
}

// baselineScan is the block order of a baseline scan: MCUs in raster
// order, within each MCU every component's blocks in raster order.
type baselineScan struct {
	comps                                []jfif.Component
	coeffs                               [3][]int32
	masks                                [3][]uint64
	infos                                [3]PlaneInfo
	mcusPerRow, mcuRows, restartInterval int
}

// walk visits every block in scan order with its component's table
// selector (0 for luma, 1 for chroma), its nonzero mask and the
// difference of its DC from the component's predictor. restart, when
// non-nil, runs at every restart boundary; the predictors start over
// there either way.
func (s *baselineScan) walk(restart func(i int), block func(tab int, blk *[64]int32, mask uint64, diff int32)) {
	var dcPred [3]int32
	mcuCount, rstIdx := 0, 0
	for my := 0; my < s.mcuRows; my++ {
		for mx := 0; mx < s.mcusPerRow; mx++ {
			if s.restartInterval > 0 && mcuCount == s.restartInterval {
				if restart != nil {
					restart(rstIdx)
				}
				rstIdx = (rstIdx + 1) & 7
				mcuCount = 0
				dcPred = [3]int32{}
			}
			for ci := range s.infos {
				comp, info, coeffs, masks := s.comps[ci], s.infos[ci], s.coeffs[ci], s.masks[ci]
				for v := 0; v < comp.V; v++ {
					for h := 0; h < comp.H; h++ {
						b := (my*comp.V+v)*info.BlocksPerRow + mx*comp.H + h
						blk := (*[64]int32)(coeffs[b*64:])
						diff := blk[0] - dcPred[ci]
						dcPred[ci] = blk[0]
						block(comp.DCSel, blk, masks[b], diff)
					}
				}
			}
			mcuCount++
		}
	}
}

// countBlock adds the symbols one block encodes to the DC and AC
// frequency tables, walking only the block's nonzero coefficients.
func countBlock(dc, ac *[256]int64, blk *[64]int32, mask uint64, diff int32) {
	cat, _ := magnitude(diff)
	dc[byte(cat)]++
	last := 0
	for m := mask &^ 1; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		run := k - last - 1
		last = k
		for ; run > 15; run -= 16 {
			ac[0xF0]++ // ZRL
		}
		cat, _ := magnitude(blk[jfif.ZigZag[k&63]&63])
		ac[byte(run<<4)|byte(cat)]++
	}
	if last != 63 {
		ac[0x00]++ // EOB
	}
}

// emitBlock writes one block's symbols and magnitude bits, walking only
// the block's nonzero coefficients. Each code goes out with its
// magnitude bits in one write of at most 16+11 bits.
func emitBlock(w *bitstream.Writer, dc, ac *huffman.Table, blk *[64]int32, mask uint64, diff int32) {
	cat, extra := magnitude(diff)
	code, size := dc.Code(byte(cat))
	w.WriteBits(code<<cat|extra, uint(size)+cat)
	last := 0
	for m := mask &^ 1; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		run := k - last - 1
		last = k
		for ; run > 15; run -= 16 {
			code, size := ac.Code(0xF0) // ZRL
			w.WriteBits(code, uint(size))
		}
		cat, extra := magnitude(blk[jfif.ZigZag[k&63]&63])
		code, size := ac.Code(byte(run<<4) | byte(cat))
		w.WriteBits(code<<cat|extra, uint(size)+cat)
	}
	if last != 63 {
		code, size := ac.Code(0x00) // EOB
		w.WriteBits(code, uint(size))
	}
}

// magnitude returns the category (bit length) and the encoded magnitude
// bits for a coefficient value per T.81 F.1.2.1: v itself when
// positive, v-1 in the category's bits when negative.
func magnitude(v int32) (uint, uint32) {
	sign := v >> 31 // 0 or -1
	cat := uint(bits.Len32(uint32((v ^ sign) - sign)))
	return cat, uint32(v+sign) & (1<<cat - 1)
}
