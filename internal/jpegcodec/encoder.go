package jpegcodec

import (
	"fmt"
	"sync"

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
	// pooled whole-image slabs (the encode-side mirror of Frame.Coeff).
	quants := [3]*[64]uint16{&lumaQ, &chromaQ, &chromaQ}
	coeffs := make([][]int32, 3)
	for ci := range planes {
		c := getCoeffSlab(infos[ci].Blocks() * 64)
		forwardComponent(planes[ci], infos[ci], quants[ci], c, opts.Workers)
		coeffs[ci] = c
	}
	// The sample planes are consumed by the forward pass; only the
	// coefficients feed entropy encoding.
	releasePlanes()
	defer func() {
		for _, c := range coeffs {
			putCoeffSlab(c)
		}
	}()

	mcuW, mcuH := opts.Subsampling.MCUPixels()
	mcusPerRow := (img.W + mcuW - 1) / mcuW
	mcuRows := (img.H + mcuH - 1) / mcuH

	if opts.Progressive {
		return encodeProgressive(img, opts, comps, coeffs, infos, &lumaQ, &chromaQ, mcusPerRow, mcuRows)
	}

	dcTabs := [2]huffman.Spec{huffman.StdDCLuminance, huffman.StdDCChrominance}
	acTabs := [2]huffman.Spec{huffman.StdACLuminance, huffman.StdACChrominance}
	tabs := tableSet{
		dc: [2]*huffman.Table{huffman.StdDCLuminanceTable, huffman.StdDCChrominanceTable},
		ac: [2]*huffman.Table{huffman.StdACLuminanceTable, huffman.StdACChrominanceTable},
	}
	if opts.OptimizeHuffman {
		var dcFreq, acFreq [2][256]int64
		countPass := &freqCounter{dc: &dcFreq, ac: &acFreq}
		if err := encodeScan(countPass, comps, coeffs, infos, mcusPerRow, mcuRows, opts.RestartInterval); err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ {
			var err error
			if dcTabs[i], err = huffman.BuildFromFrequencies(dcFreq[i]); err != nil {
				return nil, fmt.Errorf("jpegcodec: optimal DC table %d: %w", i, err)
			}
			if acTabs[i], err = huffman.BuildFromFrequencies(acFreq[i]); err != nil {
				return nil, fmt.Errorf("jpegcodec: optimal AC table %d: %w", i, err)
			}
			if tabs.dc[i], err = huffman.New(dcTabs[i]); err != nil {
				return nil, err
			}
			if tabs.ac[i], err = huffman.New(acTabs[i]); err != nil {
				return nil, err
			}
		}
	}

	emit := &bitEmitter{w: newEntropyWriter(infos), tabs: &tabs}
	if err := encodeScan(emit, comps, coeffs, infos, mcusPerRow, mcuRows, opts.RestartInterval); err != nil {
		return nil, err
	}
	entropy := emit.w.Flush()

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
	yP := getByteSlab(w * h)
	cbP := getByteSlab(w * h)
	crP := getByteSlab(w * h)
	parallelRowBands(h, workers, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			px := y * w * 3
			for i := y * w; i < (y+1)*w; i, px = i+1, px+3 {
				yP[i], cbP[i], crP[i] = color.RGBToYCbCr(img.Pix[px], img.Pix[px+1], img.Pix[px+2])
			}
		}
	})

	hs, vs := sub.Factors()
	mcuW, mcuH := sub.MCUPixels()
	mcusPerRow := (w + mcuW - 1) / mcuW
	mcuRows := (h + mcuH - 1) / mcuH

	var infos [3]PlaneInfo
	infos[0] = PlaneInfo{CompW: w, CompH: h, BlocksPerRow: mcusPerRow * hs, BlockRows: mcuRows * vs, H: hs, V: vs}
	cw := (w + hs - 1) / hs
	ch := (h + vs - 1) / vs
	infos[1] = PlaneInfo{CompW: cw, CompH: ch, BlocksPerRow: mcusPerRow, BlockRows: mcuRows, H: 1, V: 1}
	infos[2] = infos[1]

	// Downsample chroma. cb2/cr2 alias cbP/crP at 4:4:4 and are fresh
	// pooled slabs otherwise.
	var cb2, cr2 []byte
	switch sub {
	case jfif.Sub444:
		cb2, cr2 = cbP, crP
	case jfif.Sub422:
		cb2 = getByteSlab(cw * ch)
		cr2 = getByteSlab(cw * ch)
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
		cb2 = getByteSlab(cw * ch)
		cr2 = getByteSlab(cw * ch)
		color.DownsampleH2V2(cbe, evenW, evenH, cb2)
		color.DownsampleH2V2(cre, evenW, evenH, cr2)
		putByteSlab(cbe)
		putByteSlab(cre)
	}

	var planes [3][]byte
	planes[0] = padPlaneSlab(yP, w, h, infos[0].PlaneW(), infos[0].PlaneH(), workers)
	planes[1] = padPlaneSlab(cb2, cw, ch, infos[1].PlaneW(), infos[1].PlaneH(), workers)
	planes[2] = padPlaneSlab(cr2, cw, ch, infos[2].PlaneW(), infos[2].PlaneH(), workers)

	putByteSlab(yP)
	putByteSlab(cbP)
	putByteSlab(crP)
	if sub != jfif.Sub444 {
		putByteSlab(cb2)
		putByteSlab(cr2)
	}
	release := func() {
		for _, p := range planes {
			putByteSlab(p)
		}
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

// forwardComponent runs level shift, forward DCT and quantization over
// every block of a padded plane, writing quantized coefficients into
// out (len info.Blocks()*64). Block rows fan out as contiguous bands;
// each band owns disjoint output blocks, so results match the
// sequential pass bit for bit.
func forwardComponent(plane []byte, info PlaneInfo, quant *[64]uint16, out []int32, workers int) {
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
				dst := out[(by*info.BlocksPerRow+bx)*64:]
				for i := 0; i < 64; i++ {
					// ForwardInt output is scaled by 8.
					d := int32(quant[i]) * 8
					v := blk[i]
					if v >= 0 {
						dst[i] = (v + d/2) / d
					} else {
						dst[i] = -((-v + d/2) / d)
					}
				}
			}
		}
	})
}

// scanEmitter abstracts the two encoder passes: statistics gathering and
// actual bit emission.
type scanEmitter interface {
	emitDC(tab int, sym byte, bits uint32, n uint)
	emitAC(tab int, sym byte, bits uint32, n uint)
	restart(i int)
}

type tableSet struct {
	dc [2]*huffman.Table
	ac [2]*huffman.Table
}

type bitEmitter struct {
	w    *bitstream.Writer
	tabs *tableSet
}

func (e *bitEmitter) emitDC(tab int, sym byte, bits uint32, n uint) {
	_ = e.tabs.dc[tab].Encode(e.w, sym)
	e.w.WriteBits(bits, n)
}

func (e *bitEmitter) emitAC(tab int, sym byte, bits uint32, n uint) {
	_ = e.tabs.ac[tab].Encode(e.w, sym)
	e.w.WriteBits(bits, n)
}

func (e *bitEmitter) restart(i int) {
	e.w.WriteRestartMarker(i)
}

type freqCounter struct {
	dc *[2][256]int64
	ac *[2][256]int64
}

func (c *freqCounter) emitDC(tab int, sym byte, bits uint32, n uint) { c.dc[tab][sym]++ }
func (c *freqCounter) emitAC(tab int, sym byte, bits uint32, n uint) { c.ac[tab][sym]++ }
func (c *freqCounter) restart(i int)                                 {}

// encodeScan walks MCUs in scan order, entropy-encoding every block.
func encodeScan(em scanEmitter, comps []jfif.Component, coeffs [][]int32, infos [3]PlaneInfo, mcusPerRow, mcuRows, restartInterval int) error {
	var dcPred [3]int32
	mcuCount := 0
	rstIdx := 0
	for my := 0; my < mcuRows; my++ {
		for mx := 0; mx < mcusPerRow; mx++ {
			if restartInterval > 0 && mcuCount == restartInterval {
				em.restart(rstIdx)
				rstIdx = (rstIdx + 1) & 7
				mcuCount = 0
				dcPred = [3]int32{}
			}
			for ci, comp := range comps {
				tabDC := comp.DCSel
				tabAC := comp.ACSel
				info := infos[ci]
				for v := 0; v < comp.V; v++ {
					for h := 0; h < comp.H; h++ {
						bx := mx*comp.H + h
						by := my*comp.V + v
						blk := coeffs[ci][(by*info.BlocksPerRow+bx)*64:]
						encodeBlock(em, blk[:64], tabDC, tabAC, &dcPred[ci])
					}
				}
			}
			mcuCount++
		}
	}
	return nil
}

func encodeBlock(em scanEmitter, blk []int32, tabDC, tabAC int, pred *int32) {
	diff := blk[0] - *pred
	*pred = blk[0]
	cat, bits := magnitude(diff)
	em.emitDC(tabDC, byte(cat), bits, cat)

	run := 0
	for k := 1; k < 64; k++ {
		v := blk[jfif.ZigZag[k]]
		if v == 0 {
			run++
			continue
		}
		for run > 15 {
			em.emitAC(tabAC, 0xF0, 0, 0) // ZRL
			run -= 16
		}
		cat, bits := magnitude(v)
		em.emitAC(tabAC, byte(run<<4)|byte(cat), bits, cat)
		run = 0
	}
	if run > 0 {
		em.emitAC(tabAC, 0x00, 0, 0) // EOB
	}
}

// magnitude returns the category (bit length) and the encoded magnitude
// bits for a coefficient value per T.81 F.1.2.1.
func magnitude(v int32) (uint, uint32) {
	a := v
	if a < 0 {
		a = -a
	}
	cat := uint(0)
	for a > 0 {
		cat++
		a >>= 1
	}
	if v < 0 {
		return cat, uint32(v + (1 << cat) - 1)
	}
	return cat, uint32(v)
}
