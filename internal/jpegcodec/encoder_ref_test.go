package jpegcodec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hetjpeg/internal/bitstream"
	"hetjpeg/internal/color"
	"hetjpeg/internal/dct"
	"hetjpeg/internal/huffman"
	"hetjpeg/internal/jfif"
)

// The reference encoder is the straightforward form of Encode's inner
// loops: per-pixel color.RGBToYCbCr into w×h planes that are then padded
// by copy, a quantiser that divides, an entropy walk over all 63 AC
// slots of every block in zigzag order, and a per-symbol interface
// emitter that goes through huffman.Table.Encode. Encode must produce
// exactly its bytes; FuzzEncodeMatchesReference and
// TestEncodeMatchesReference hold it to that.

// refEncode is Encode built from the reference loops.
func refEncode(img *RGBImage, opts EncodeOptions) ([]byte, error) {
	opts = opts.withDefaults()
	if img.W <= 0 || img.H <= 0 || img.W >= 1<<16 || img.H >= 1<<16 {
		return nil, fmt.Errorf("jpegcodec: bad dimensions %dx%d", img.W, img.H)
	}
	lumaQ := jfif.ScaleQuantTable(&jfif.StdLuminanceQuant, opts.Quality)
	chromaQ := jfif.ScaleQuantTable(&jfif.StdChrominanceQuant, opts.Quality)
	hs, vs := opts.Subsampling.Factors()
	comps := []jfif.Component{
		{ID: 1, H: hs, V: vs, QuantSel: 0, DCSel: 0, ACSel: 0},
		{ID: 2, H: 1, V: 1, QuantSel: 1, DCSel: 1, ACSel: 1},
		{ID: 3, H: 1, V: 1, QuantSel: 1, DCSel: 1, ACSel: 1},
	}
	planes, infos := refBuildPlanes(img, opts.Subsampling)
	quants := [3]*[64]uint16{&lumaQ, &chromaQ, &chromaQ}
	var coeffs [3][]int32
	for ci := range planes {
		coeffs[ci] = make([]int32, infos[ci].Blocks()*64)
		refForwardComponent(planes[ci], infos[ci], quants[ci], coeffs[ci])
	}
	mcuW, mcuH := opts.Subsampling.MCUPixels()
	mcusPerRow := (img.W + mcuW - 1) / mcuW
	mcuRows := (img.H + mcuH - 1) / mcuH

	if opts.Progressive {
		// Masks with every bit set make each AC scan visit every
		// coefficient of its band, as a walk without masks does.
		var masks [3][]uint64
		for ci := range masks {
			masks[ci] = make([]uint64, infos[ci].Blocks())
			for b := range masks[ci] {
				masks[ci][b] = ^uint64(0)
			}
		}
		return encodeProgressive(img, opts, comps, coeffs, masks, infos, &lumaQ, &chromaQ, mcusPerRow, mcuRows)
	}

	dcTabs := [2]huffman.Spec{huffman.StdDCLuminance, huffman.StdDCChrominance}
	acTabs := [2]huffman.Spec{huffman.StdACLuminance, huffman.StdACChrominance}
	tabs := refTableSet{
		dc: [2]*huffman.Table{huffman.StdDCLuminanceTable, huffman.StdDCChrominanceTable},
		ac: [2]*huffman.Table{huffman.StdACLuminanceTable, huffman.StdACChrominanceTable},
	}
	if opts.OptimizeHuffman {
		var dcFreq, acFreq [2][256]int64
		refEncodeScan(&refFreqCounter{dc: &dcFreq, ac: &acFreq}, comps, coeffs, infos, mcusPerRow, mcuRows, opts.RestartInterval)
		for i := 0; i < 2; i++ {
			var err error
			if dcTabs[i], err = huffman.BuildFromFrequencies(dcFreq[i]); err != nil {
				return nil, err
			}
			if acTabs[i], err = huffman.BuildFromFrequencies(acFreq[i]); err != nil {
				return nil, err
			}
			if tabs.dc[i], err = huffman.New(dcTabs[i]); err != nil {
				return nil, err
			}
			if tabs.ac[i], err = huffman.New(acTabs[i]); err != nil {
				return nil, err
			}
		}
	}
	emit := &refBitEmitter{w: bitstream.NewWriter(), tabs: &tabs}
	refEncodeScan(emit, comps, coeffs, infos, mcusPerRow, mcuRows, opts.RestartInterval)

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
	jw.WriteSOS(comps, emit.w.Flush())
	return jw.Finish(), nil
}

// refPad expands a w×h plane to pw×ph by edge replication.
func refPad(p []byte, w, h, pw, ph int) []byte {
	out := make([]byte, pw*ph)
	for y := 0; y < ph; y++ {
		src := p[min(y, h-1)*w:][:w]
		dst := out[y*pw : y*pw+pw]
		copy(dst, src)
		for x := w; x < pw; x++ {
			dst[x] = src[w-1]
		}
	}
	return out
}

// refBuildPlanes converts to YCbCr one pixel at a time through
// color.RGBToYCbCr, downsamples chroma and pads every plane by copy.
func refBuildPlanes(img *RGBImage, sub jfif.Subsampling) ([3][]byte, [3]PlaneInfo) {
	w, h := img.W, img.H
	yP, cbP, crP := make([]byte, w*h), make([]byte, w*h), make([]byte, w*h)
	for i := 0; i < w*h; i++ {
		yP[i], cbP[i], crP[i] = color.RGBToYCbCr(img.Pix[3*i], img.Pix[3*i+1], img.Pix[3*i+2])
	}
	hs, vs := sub.Factors()
	mcuW, mcuH := sub.MCUPixels()
	mcusPerRow := (w + mcuW - 1) / mcuW
	mcuRows := (h + mcuH - 1) / mcuH
	var infos [3]PlaneInfo
	infos[0] = PlaneInfo{CompW: w, CompH: h, BlocksPerRow: mcusPerRow * hs, BlockRows: mcuRows * vs, H: hs, V: vs, BlockPix: 8}
	cw, ch := (w+hs-1)/hs, (h+vs-1)/vs
	infos[1] = PlaneInfo{CompW: cw, CompH: ch, BlocksPerRow: mcusPerRow, BlockRows: mcuRows, H: 1, V: 1, BlockPix: 8}
	infos[2] = infos[1]

	cb2, cr2 := cbP, crP
	switch sub {
	case jfif.Sub422:
		cb2, cr2 = make([]byte, cw*ch), make([]byte, cw*ch)
		scratch := make([]byte, 2*cw)
		for y := 0; y < h; y++ {
			color.DownsampleRowsH2V1(padRowInto(scratch, cbP[y*w:y*w+w]), cb2[y*cw:y*cw+cw])
			color.DownsampleRowsH2V1(padRowInto(scratch, crP[y*w:y*w+w]), cr2[y*cw:y*cw+cw])
		}
	case jfif.Sub420:
		cb2, cr2 = make([]byte, cw*ch), make([]byte, cw*ch)
		color.DownsampleH2V2(refPad(cbP, w, h, 2*cw, 2*ch), 2*cw, 2*ch, cb2)
		color.DownsampleH2V2(refPad(crP, w, h, 2*cw, 2*ch), 2*cw, 2*ch, cr2)
	}
	return [3][]byte{
		refPad(yP, w, h, infos[0].PlaneW(), infos[0].PlaneH()),
		refPad(cb2, cw, ch, infos[1].PlaneW(), infos[1].PlaneH()),
		refPad(cr2, cw, ch, infos[2].PlaneW(), infos[2].PlaneH()),
	}, infos
}

// refForwardComponent level-shifts, transforms and quantises by
// division.
func refForwardComponent(plane []byte, info PlaneInfo, quant *[64]uint16, out []int32) {
	pw := info.PlaneW()
	var blk [64]int32
	for by := 0; by < info.BlockRows; by++ {
		for bx := 0; bx < info.BlocksPerRow; bx++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					blk[y*8+x] = int32(plane[(by*8+y)*pw+bx*8+x]) - 128
				}
			}
			dct.ForwardInt(&blk)
			dst := out[(by*info.BlocksPerRow+bx)*64:]
			for i := 0; i < 64; i++ {
				d := int32(quant[i]) * 8
				if v := blk[i]; v >= 0 {
					dst[i] = (v + d/2) / d
				} else {
					dst[i] = -((-v + d/2) / d)
				}
			}
		}
	}
}

// TestQuantRecipExact checks the reciprocal quantiser against division
// for every baseline quantiser value 1..255 and every magnitude n with
// n + d/2 < 2^20, where d = 8·quant.
func TestQuantRecipExact(t *testing.T) {
	for q := 1; q <= 255; q++ {
		var quant [64]uint16
		for i := range quant {
			quant[i] = uint16(q)
		}
		r := newQuantRecip(&quant)
		mul, bias := r.mul[0], r.bias[0]
		d := uint64(8 * q)
		for n := uint64(0); n+d/2 < 1<<20; n++ {
			if got, want := (n*mul+bias)>>recipShift, (n+d/2)/d; got != want {
				t.Fatalf("quant %d, |v| %d: reciprocal gives %d, division %d", q, n, got, want)
			}
		}
	}
}

// TestQuantizeBlockMatchesDivision checks quantizeBlock's signed
// rounding and its nonzero mask against the reference division over
// random blocks at every quality's tables.
func TestQuantizeBlockMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for quality := 1; quality <= 100; quality++ {
		for _, base := range []*[64]uint16{&jfif.StdLuminanceQuant, &jfif.StdChrominanceQuant} {
			quant := jfif.ScaleQuantTable(base, quality)
			r := newQuantRecip(&quant)
			for trial := 0; trial < 20; trial++ {
				var blk, got [64]int32
				span := int32(1) << (4 + trial%16) // small to ±2^19
				for i := range blk {
					blk[i] = rng.Int31n(2*span) - span
				}
				mask := quantizeBlock(&blk, &r, &got)
				for i, v := range blk {
					d := int32(quant[i]) * 8
					want := (v + d/2) / d
					if v < 0 {
						want = -((-v + d/2) / d)
					}
					if got[i] != want {
						t.Fatalf("quality %d, coefficient %d = %d: got %d, want %d", quality, i, v, got[i], want)
					}
					if bit := mask>>jfif.Natural[i]&1 == 1; bit != (want != 0) {
						t.Fatalf("quality %d, coefficient %d = %d: mask bit %v for quantised %d", quality, i, v, bit, want)
					}
				}
			}
		}
	}
}

// refEmitter abstracts the reference's two passes: statistics gathering
// and bit emission, one call per symbol.
type refEmitter interface {
	emitDC(tab int, sym byte, bits uint32, n uint)
	emitAC(tab int, sym byte, bits uint32, n uint)
	restart(i int)
}

type refTableSet struct {
	dc, ac [2]*huffman.Table
}

type refBitEmitter struct {
	w    *bitstream.Writer
	tabs *refTableSet
}

func (e *refBitEmitter) emitDC(tab int, sym byte, bits uint32, n uint) {
	_ = e.tabs.dc[tab].Encode(e.w, sym)
	e.w.WriteBits(bits, n)
}

func (e *refBitEmitter) emitAC(tab int, sym byte, bits uint32, n uint) {
	_ = e.tabs.ac[tab].Encode(e.w, sym)
	e.w.WriteBits(bits, n)
}

func (e *refBitEmitter) restart(i int) { e.w.WriteRestartMarker(i) }

type refFreqCounter struct {
	dc, ac *[2][256]int64
}

func (c *refFreqCounter) emitDC(tab int, sym byte, bits uint32, n uint) { c.dc[tab][sym]++ }
func (c *refFreqCounter) emitAC(tab int, sym byte, bits uint32, n uint) { c.ac[tab][sym]++ }
func (c *refFreqCounter) restart(i int)                                 {}

// refEncodeScan walks MCUs in scan order, entropy-encoding every block.
func refEncodeScan(em refEmitter, comps []jfif.Component, coeffs [3][]int32, infos [3]PlaneInfo, mcusPerRow, mcuRows, restartInterval int) {
	var dcPred [3]int32
	mcuCount, rstIdx := 0, 0
	for my := 0; my < mcuRows; my++ {
		for mx := 0; mx < mcusPerRow; mx++ {
			if restartInterval > 0 && mcuCount == restartInterval {
				em.restart(rstIdx)
				rstIdx = (rstIdx + 1) & 7
				mcuCount = 0
				dcPred = [3]int32{}
			}
			for ci, comp := range comps {
				for v := 0; v < comp.V; v++ {
					for h := 0; h < comp.H; h++ {
						bx, by := mx*comp.H+h, my*comp.V+v
						blk := coeffs[ci][(by*infos[ci].BlocksPerRow+bx)*64:]
						refEncodeBlock(em, blk[:64], comp.DCSel, comp.ACSel, &dcPred[ci])
					}
				}
			}
			mcuCount++
		}
	}
}

func refEncodeBlock(em refEmitter, blk []int32, tabDC, tabAC int, pred *int32) {
	diff := blk[0] - *pred
	*pred = blk[0]
	cat, bits := refMagnitude(diff)
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
		cat, bits := refMagnitude(v)
		em.emitAC(tabAC, byte(run<<4)|byte(cat), bits, cat)
		run = 0
	}
	if run > 0 {
		em.emitAC(tabAC, 0x00, 0, 0) // EOB
	}
}

// refMagnitude returns the category and magnitude bits of v (T.81
// F.1.2.1) by counting bits one at a time.
func refMagnitude(v int32) (uint, uint32) {
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

// fuzzEncodeCase decodes the fuzzer's option bytes into an image and
// options: sizes 1..40 on each side, every subsampling, quality 1..100,
// Annex-K or optimised tables, DRI 0..3, baseline or one of the four
// progressive scripts, one or two workers.
func fuzzEncodeCase(w, h, sub, q, flags byte, pix []byte) (*RGBImage, EncodeOptions) {
	img := NewRGBImage(1+int(w)%40, 1+int(h)%40)
	if len(pix) > 0 {
		for i := range img.Pix {
			img.Pix[i] = pix[i%len(pix)] + byte(i/len(pix))*37
		}
	}
	opts := EncodeOptions{
		Quality:         1 + int(q)%100,
		Subsampling:     goldenSubs[int(sub)%len(goldenSubs)].sub,
		OptimizeHuffman: flags&1 != 0,
		RestartInterval: int(flags>>1) & 3,
		Workers:         1 + int(flags>>6)&1,
	}
	if s := int(flags>>3) & 7; s > 0 && s <= len(goldenScripts) {
		opts.Progressive = true
		opts.Script = goldenScripts[s-1].script()
	}
	return img, opts
}

func checkEncodeMatchesReference(t *testing.T, img *RGBImage, opts EncodeOptions) {
	t.Helper()
	got, err := Encode(img, opts)
	want, refErr := refEncode(img, opts)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%dx%d %+v: Encode error %v, reference error %v", img.W, img.H, opts, err, refErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%dx%d %+v: Encode output (%d bytes) differs from the reference (%d bytes)", img.W, img.H, opts, len(got), len(want))
	}
}

// TestEncodeMatchesReference runs the golden matrix's options over the
// golden images and over noise through both encoders.
func TestEncodeMatchesReference(t *testing.T) {
	for _, c := range goldenCases() {
		if c.w > 40 {
			continue
		}
		checkEncodeMatchesReference(t, goldenImage(c.w, c.h), c.opts)
		checkEncodeMatchesReference(t, makeNoisyImage(c.w+7, c.h+3, int64(c.opts.Quality)), c.opts)
	}
}

// FuzzEncodeMatchesReference holds Encode to the reference encoder byte
// for byte over random small images and every option the golden covers.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add(byte(16), byte(8), byte(0), byte(84), byte(0), []byte{0, 0, 255})
	f.Add(byte(39), byte(30), byte(1), byte(99), byte(0x03), []byte{255, 0, 0, 7, 200, 13})
	f.Add(byte(0), byte(0), byte(2), byte(0), byte(0x4d), []byte{})
	for s := byte(1); s <= 4; s++ {
		f.Add(byte(20+s), byte(11), s%3, byte(20*s), s<<3|s<<1, []byte{s, 9 * s, 250, 3})
	}
	f.Fuzz(func(t *testing.T, w, h, sub, q, flags byte, pix []byte) {
		img, opts := fuzzEncodeCase(w, h, sub, q, flags, pix)
		checkEncodeMatchesReference(t, img, opts)
	})
}
