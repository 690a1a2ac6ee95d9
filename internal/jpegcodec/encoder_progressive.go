package jpegcodec

import (
	"fmt"
	"math/bits"

	"hetjpeg/internal/bitstream"
	"hetjpeg/internal/huffman"
	"hetjpeg/internal/jfif"
)

// Progressive (SOF2) encoding. The sole consumer is the test-fixture
// generator (internal/imagegen): the conformance corpus needs
// deterministic progressive streams covering scan scripts, successive
// approximation depths and restart intervals without shipping binary
// fixtures. Unlike baseline, progressive scans need image-specific
// Huffman tables (EOB-run symbols like 0xE0 are absent from the Annex K
// defaults), so every scan runs a statistics pass, builds optimal
// tables with huffman.BuildFromFrequencies, and emits its DHT segments
// right before its SOS — the same forced-optimization rule libjpeg
// applies in progressive mode.

// ScanSpec describes one scan of a progressive script: which components
// it covers (indices into the encoder's Y/Cb/Cr order), the spectral
// band [Ss, Se], and the successive-approximation bit positions Ah/Al.
type ScanSpec struct {
	Comps          []int
	Ss, Se, Ah, Al int
}

// ScriptSpectralOnly is the simplest complete progressive script:
// one interleaved DC scan, then each component's full AC band, with no
// successive approximation.
func ScriptSpectralOnly() []ScanSpec {
	return []ScanSpec{
		{Comps: []int{0, 1, 2}, Ss: 0, Se: 0},
		{Comps: []int{0}, Ss: 1, Se: 63},
		{Comps: []int{1}, Ss: 1, Se: 63},
		{Comps: []int{2}, Ss: 1, Se: 63},
	}
}

// ScriptDefault mirrors libjpeg's default progressive script for YCbCr:
// spectral selection and successive approximation interleaved so the
// image sharpens gradually.
func ScriptDefault() []ScanSpec {
	return []ScanSpec{
		{Comps: []int{0, 1, 2}, Ss: 0, Se: 0, Ah: 0, Al: 1},
		{Comps: []int{0}, Ss: 1, Se: 5, Ah: 0, Al: 2},
		{Comps: []int{1}, Ss: 1, Se: 63, Ah: 0, Al: 1},
		{Comps: []int{2}, Ss: 1, Se: 63, Ah: 0, Al: 1},
		{Comps: []int{0}, Ss: 6, Se: 63, Ah: 0, Al: 2},
		{Comps: []int{0}, Ss: 1, Se: 63, Ah: 2, Al: 1},
		{Comps: []int{0, 1, 2}, Ss: 0, Se: 0, Ah: 1, Al: 0},
		{Comps: []int{1}, Ss: 1, Se: 63, Ah: 1, Al: 0},
		{Comps: []int{2}, Ss: 1, Se: 63, Ah: 1, Al: 0},
		{Comps: []int{0}, Ss: 1, Se: 63, Ah: 1, Al: 0},
	}
}

// ScriptMultiBand splits each component's AC coefficients into three
// spectral bands with no successive approximation — exercises EOB runs
// over high-frequency bands that are mostly zero.
func ScriptMultiBand() []ScanSpec {
	s := []ScanSpec{{Comps: []int{0, 1, 2}, Ss: 0, Se: 0}}
	for c := 0; c < 3; c++ {
		s = append(s,
			ScanSpec{Comps: []int{c}, Ss: 1, Se: 5},
			ScanSpec{Comps: []int{c}, Ss: 6, Se: 20},
			ScanSpec{Comps: []int{c}, Ss: 21, Se: 63},
		)
	}
	return s
}

// ScriptDeepSA pushes successive approximation to depth 3 on every
// band — maximal refinement-scan coverage (many correction-bit and
// EOB-run refinement paths).
func ScriptDeepSA() []ScanSpec {
	s := []ScanSpec{
		{Comps: []int{0, 1, 2}, Ss: 0, Se: 0, Ah: 0, Al: 3},
		{Comps: []int{0, 1, 2}, Ss: 0, Se: 0, Ah: 3, Al: 2},
		{Comps: []int{0, 1, 2}, Ss: 0, Se: 0, Ah: 2, Al: 1},
		{Comps: []int{0, 1, 2}, Ss: 0, Se: 0, Ah: 1, Al: 0},
	}
	for c := 0; c < 3; c++ {
		s = append(s,
			ScanSpec{Comps: []int{c}, Ss: 1, Se: 63, Ah: 0, Al: 2},
			ScanSpec{Comps: []int{c}, Ss: 1, Se: 63, Ah: 2, Al: 1},
			ScanSpec{Comps: []int{c}, Ss: 1, Se: 63, Ah: 1, Al: 0},
		)
	}
	return s
}

// validateScript rejects scripts the decoder-side scan parser would
// refuse, with the ncomp components available.
func validateScript(script []ScanSpec, ncomp int) error {
	if len(script) == 0 {
		return fmt.Errorf("jpegcodec: empty progressive script")
	}
	for i, sc := range script {
		if len(sc.Comps) == 0 || len(sc.Comps) > ncomp {
			return fmt.Errorf("jpegcodec: scan %d has %d components", i, len(sc.Comps))
		}
		seen := map[int]bool{}
		for _, c := range sc.Comps {
			if c < 0 || c >= ncomp || seen[c] {
				return fmt.Errorf("jpegcodec: scan %d has bad component %d", i, c)
			}
			seen[c] = true
		}
		switch {
		case sc.Ss == 0 && sc.Se != 0:
			return fmt.Errorf("jpegcodec: scan %d: DC scan with Se=%d", i, sc.Se)
		case sc.Ss < 0 || sc.Se > 63 || sc.Se < sc.Ss:
			return fmt.Errorf("jpegcodec: scan %d: bad band [%d,%d]", i, sc.Ss, sc.Se)
		case sc.Ss > 0 && len(sc.Comps) != 1:
			return fmt.Errorf("jpegcodec: scan %d: interleaved AC scan", i)
		case sc.Al < 0 || sc.Al > 13 || (sc.Ah != 0 && sc.Ah != sc.Al+1):
			return fmt.Errorf("jpegcodec: scan %d: bad approximation Ah=%d Al=%d", i, sc.Ah, sc.Al)
		}
	}
	return nil
}

// progEmitter abstracts the two per-scan encoder passes: statistics
// gathering and actual bit emission. Slots 0..1 are DC table selectors,
// 2..3 are AC table selectors + 2.
type progEmitter interface {
	symbol(slot int, sym byte)
	bits(v uint32, n uint)
	restart(i int)
}

type progFreqCounter struct {
	freq [4][256]int64
}

func (c *progFreqCounter) symbol(slot int, sym byte) { c.freq[slot][sym]++ }
func (c *progFreqCounter) bits(v uint32, n uint)     {}
func (c *progFreqCounter) restart(i int)             {}

type progBitWriter struct {
	w    *bitstream.Writer
	tabs [4]*huffman.Table
}

func (e *progBitWriter) symbol(slot int, sym byte) { _ = e.tabs[slot].Encode(e.w, sym) }
func (e *progBitWriter) bits(v uint32, n uint)     { e.w.WriteBits(v, n) }
func (e *progBitWriter) restart(i int)             { e.w.WriteRestartMarker(i) }

// maxCorrBits bounds the buffered refinement correction bits before the
// pending EOB run is forced out (libjpeg's MAX_CORR_BITS safeguard).
const maxCorrBits = 1000

// progScanEnc encodes one scan; run executes one full pass over the
// scan's blocks against an emitter.
type progScanEnc struct {
	spec                ScanSpec
	comps               []jfif.Component
	coeffs              [3][]int32
	masks               [3][]uint64 // per-block nonzero masks, zigzag bit order
	infos               [3]PlaneInfo
	mcusPerRow, mcuRows int
	restartInterval     int

	// Pass state.
	dcPred   []int32
	eobrun   int
	pendBits []byte // correction bits owned by the pending EOB run
	curBits  []byte // correction bits of the block being encoded
}

func (e *progScanEnc) run(em progEmitter) {
	e.dcPred = make([]int32, len(e.spec.Comps))
	e.eobrun = 0
	e.pendBits = e.pendBits[:0]
	e.curBits = e.curBits[:0]

	count := 0
	rstIdx := 0
	unit := func() {
		if e.restartInterval > 0 && count == e.restartInterval {
			e.flushEOB(em)
			em.restart(rstIdx)
			rstIdx = (rstIdx + 1) & 7
			count = 0
			for i := range e.dcPred {
				e.dcPred[i] = 0
			}
		}
		count++
	}

	if len(e.spec.Comps) > 1 {
		// Interleaved DC scan over the padded MCU grid.
		for my := 0; my < e.mcuRows; my++ {
			for mx := 0; mx < e.mcusPerRow; mx++ {
				unit()
				for si, ci := range e.spec.Comps {
					comp := e.comps[ci]
					info := e.infos[ci]
					for v := 0; v < comp.V; v++ {
						for h := 0; h < comp.H; h++ {
							bx, by := mx*comp.H+h, my*comp.V+v
							blk := e.coeffs[ci][(by*info.BlocksPerRow+bx)*64:]
							e.encodeDC(em, blk[:64], si, ci)
						}
					}
				}
			}
		}
	} else {
		// Single-component scan over the component's own block grid.
		ci := e.spec.Comps[0]
		info, masks := e.infos[ci], e.masks[ci]
		wb := (info.CompW + 7) / 8
		hb := (info.CompH + 7) / 8
		for by := 0; by < hb; by++ {
			for bx := 0; bx < wb; bx++ {
				unit()
				b := by*info.BlocksPerRow + bx
				blk := e.coeffs[ci][b*64:]
				switch {
				case e.spec.Ss == 0:
					e.encodeDC(em, blk[:64], 0, ci)
				case e.spec.Ah == 0:
					e.encodeACFirst(em, blk[:64], masks[b], ci)
				default:
					e.encodeACRefine(em, blk[:64], masks[b], ci)
				}
			}
		}
	}
	e.flushEOB(em)
}

// dcSlot and acSlot map a component to its emitter table slot; Y owns
// selector 0, the chroma components share selector 1 (as in the
// baseline encoder).
func dcSlot(ci int) int { return min(ci, 1) }
func acSlot(ci int) int { return 2 + min(ci, 1) }

// encodeDC emits one block's DC pass: Huffman-coded shifted difference
// for a first scan (arithmetic shift, per T.81 G.1.2.1), one raw bit
// for a refinement scan.
func (e *progScanEnc) encodeDC(em progEmitter, blk []int32, si, ci int) {
	if e.spec.Ah != 0 {
		em.bits(uint32(blk[0]>>uint(e.spec.Al))&1, 1)
		return
	}
	t := blk[0] >> uint(e.spec.Al)
	diff := t - e.dcPred[si]
	e.dcPred[si] = t
	cat, extra := magnitude(diff)
	em.symbol(dcSlot(ci), byte(cat))
	em.bits(extra, cat)
}

// encodeACFirst emits one block of an AC first scan, accumulating EOB
// runs across blocks whose band is entirely zero at this bit depth. It
// walks only the band's bits of the block's nonzero mask, so a block
// with none of them joins the EOB run without a look at its
// coefficients.
func (e *progScanEnc) encodeACFirst(em progEmitter, blk []int32, mask uint64, ci int) {
	slot := acSlot(ci)
	al := uint(e.spec.Al)
	last := e.spec.Ss - 1 // zigzag position of the last coefficient sent
	for m := mask & e.band(); m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		v := blk[jfif.ZigZag[k&63]]
		// Point transform is sign-magnitude for AC (T.81 G.1.2.2).
		var t int32
		if v >= 0 {
			t = v >> al
		} else {
			t = -((-v) >> al)
		}
		if t == 0 {
			continue
		}
		e.flushEOB(em)
		r := k - last - 1
		for r > 15 {
			em.symbol(slot, 0xF0)
			r -= 16
		}
		cat, extra := magnitude(t)
		em.symbol(slot, byte(r<<4)|byte(cat))
		em.bits(extra, cat)
		last = k
	}
	if last < e.spec.Se {
		e.eobrun++
		if e.eobrun == 0x7FFF {
			e.flushEOB(em)
		}
	}
}

// band is the scan's spectral band as mask bits: Ss through Se.
func (e *progScanEnc) band() uint64 {
	return uint64(1)<<(e.spec.Se+1) - uint64(1)<<e.spec.Ss
}

// encodeACRefine emits one block of an AC refinement scan: correction
// bits for coefficients that were already nonzero, ±1 insertions for
// newly nonzero ones, with zero runs counting only zero-history
// positions (the mirror of decodeACRefine). Like encodeACFirst it
// visits only the band's bits of the block's nonzero mask; the zeros
// between them enter the runs by position.
func (e *progScanEnc) encodeACRefine(em progEmitter, blk []int32, mask uint64, ci int) {
	slot := acSlot(ci)
	al := uint(e.spec.Al)
	band := mask & e.band()

	var absv [64]int32
	eob := e.spec.Ss - 1 // index of the last newly nonzero coefficient
	for m := band; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		a := blk[jfif.ZigZag[k&63]]
		if a < 0 {
			a = -a
		}
		a >>= al
		absv[k&63] = a
		if a == 1 {
			eob = k
		}
	}

	r := 0
	prev := e.spec.Ss - 1 // the last position with a nonzero absv
	for m := band; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		t := absv[k&63]
		if t == 0 {
			continue
		}
		r += k - prev - 1
		prev = k
		for r > 15 && k <= eob {
			e.flushEOB(em)
			em.symbol(slot, 0xF0)
			r -= 16
			e.flushCur(em)
		}
		if t > 1 {
			// Previously nonzero: append its next magnitude bit.
			e.curBits = append(e.curBits, byte(t&1))
			continue
		}
		e.flushEOB(em)
		em.symbol(slot, byte(r<<4)|1)
		sign := uint32(1)
		if blk[jfif.ZigZag[k&63]] < 0 {
			sign = 0
		}
		em.bits(sign, 1)
		e.flushCur(em)
		r = 0
	}
	r += e.spec.Se - prev
	if r > 0 || len(e.curBits) > 0 {
		e.eobrun++
		e.pendBits = append(e.pendBits, e.curBits...)
		e.curBits = e.curBits[:0]
		if e.eobrun == 0x7FFF || len(e.pendBits) > maxCorrBits {
			e.flushEOB(em)
		}
	}
}

// flushEOB emits the pending EOB run symbol (with its extension bits)
// followed by the correction bits buffered under it.
func (e *progScanEnc) flushEOB(em progEmitter) {
	if e.eobrun > 0 {
		nbits := 0
		for v := e.eobrun >> 1; v > 0; v >>= 1 {
			nbits++
		}
		ci := e.spec.Comps[0]
		em.symbol(acSlot(ci), byte(nbits<<4))
		if nbits > 0 {
			em.bits(uint32(e.eobrun)&((1<<uint(nbits))-1), uint(nbits))
		}
		e.eobrun = 0
	}
	for _, b := range e.pendBits {
		em.bits(uint32(b), 1)
	}
	e.pendBits = e.pendBits[:0]
}

// flushCur emits the current block's buffered correction bits.
func (e *progScanEnc) flushCur(em progEmitter) {
	for _, b := range e.curBits {
		em.bits(uint32(b), 1)
	}
	e.curBits = e.curBits[:0]
}

// encodeProgressive assembles the SOF2 stream: frame-level segments,
// then per scan its optimal Huffman tables (DHT), scan header (SOS) and
// entropy bits.
func encodeProgressive(img *RGBImage, opts EncodeOptions, comps []jfif.Component,
	coeffs [3][]int32, masks [3][]uint64, infos [3]PlaneInfo, lumaQ, chromaQ *[64]uint16,
	mcusPerRow, mcuRows int) ([]byte, error) {

	script := opts.Script
	if script == nil {
		script = ScriptDefault()
	}
	if err := validateScript(script, len(comps)); err != nil {
		return nil, err
	}

	jw := jfif.NewWriter()
	jw.WriteAPP0()
	jw.WriteDQT(0, lumaQ)
	jw.WriteDQT(1, chromaQ)
	jw.WriteSOF2(img.W, img.H, comps)
	if opts.RestartInterval > 0 {
		jw.WriteDRI(opts.RestartInterval)
	}

	// One pooled emission buffer serves every scan: WriteProgressiveSOS
	// copies the entropy bytes into the container, so the writer just
	// resets between scans and the (possibly regrown) slab is recycled
	// once at the end.
	ew := newEntropyWriter(infos)
	defer func() { putByteSlab(ew.Flush()) }()

	for i, spec := range script {
		enc := &progScanEnc{
			spec:            spec,
			comps:           comps,
			coeffs:          coeffs,
			masks:           masks,
			infos:           infos,
			mcusPerRow:      mcusPerRow,
			mcuRows:         mcuRows,
			restartInterval: opts.RestartInterval,
		}

		// Pass 1: symbol statistics for this scan.
		counter := &progFreqCounter{}
		enc.run(counter)

		// Build and emit the tables the scan actually used.
		var tabs [4]*huffman.Table
		for slot := 0; slot < 4; slot++ {
			total := int64(0)
			for _, f := range counter.freq[slot] {
				total += f
			}
			if total == 0 {
				continue
			}
			spec2, err := huffman.BuildFromFrequencies(counter.freq[slot])
			if err != nil {
				return nil, fmt.Errorf("jpegcodec: scan %d table slot %d: %w", i, slot, err)
			}
			tab, err := huffman.New(spec2)
			if err != nil {
				return nil, err
			}
			tabs[slot] = tab
			jw.WriteDHT(slot/2, slot%2, spec2)
		}

		// Pass 2: real emission.
		ew.Reset()
		emit := &progBitWriter{w: ew, tabs: tabs}
		enc.run(emit)

		scanComps := make([]jfif.Component, len(spec.Comps))
		for j, ci := range spec.Comps {
			scanComps[j] = comps[ci]
		}
		jw.WriteProgressiveSOS(scanComps, spec.Ss, spec.Se, spec.Ah, spec.Al, emit.w.Flush())
	}
	return jw.Finish(), nil
}
