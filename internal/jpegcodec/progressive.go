package jpegcodec

import (
	"errors"
	"fmt"
	"math/bits"

	"hetjpeg/internal/bitstream"
	"hetjpeg/internal/huffman"
	"hetjpeg/internal/jfif"
)

// This file implements progressive (SOF2) entropy decoding: the multiple
// scans of a progressive stream — DC first and refinement, AC spectral
// bands with EOB run-lengths, successive-approximation refinement — all
// accumulate into the same whole-image coefficient buffer the baseline
// decoder fills in one pass. The back phase (dequant+IDCT, upsampling,
// color conversion) is completely unchanged: once the last scan lands,
// a progressive Frame is indistinguishable from a baseline one, so every
// execution mode and the batch scheduler run progressive images
// through the very same BandPlan machinery and produce identical pixels.
// The entropy side is shared too: each scan is a scanState walked by
// the same walkRow, probes, general path and resync as a baseline image
// (see entropy.go), in units of MCUs for an interleaved scan and of
// blocks for a single-component one.
//
// Refinement scans read a persistent nonzero mask beside the
// coefficients: one uint64 per block, bit k set when the coefficient at
// zigzag position k is nonzero. AC first scans set it, in cache, from
// the band of the block they just wrote; AC refinement decodes each
// symbol through the probe LUT and finds a run's landing slot, the
// (r+1)th clear bit of the band, with popcounts. The correction bits
// of the nonzeros a run passes are read as one window-wide value and
// applied by walking its set bits, so a block whose corrections are all
// zero is not touched. The per-bit walk (refineGeneral,
// refineNonZeroes) stays the general path, and the only place an error
// is made: it takes every symbol the probe cannot settle before a bit
// of it is consumed, and finishes the correction bits of a symbol the
// window runs short in, so both paths agree on every coefficient, bit
// position and salvage report. The mask is a slab of maskPool owned by
// the progressive decoder, not a Frame field, so baseline decodes pay
// nothing; a 1/8-scale decode, which skips the AC scans, takes none.
//
// Sparsity bookkeeping rides along: Frame.NZ starts at 1 (DC-only) and
// grows monotonically as scans append coefficients — refinement never
// zeroes a coefficient, so the per-block maximum zigzag index only ever
// increases and the sparse IDCT fast paths keep firing on smooth blocks
// even for progressive input. The mask only gains bits for the same
// reason, and a refinement block's watermark is its mask's length.

// progDecoder walks the scans of a progressive image. It is driven
// row-at-a-time (MCU rows for interleaved scans, block rows for
// single-component scans) so the pipelined callers keep their
// cancellation-poll granularity, and it attributes the entropy bits of
// every row to the covering luma MCU row so the virtual cost model and
// the PPS equations see the same per-row distribution as baseline. Its
// scanState is the current scan's: in salvage mode a scan error resyncs
// at the next restart marker within the scan, or abandons the scan —
// prior-scan coefficients stay, so only lost first-DC coverage is
// damage.
type progDecoder struct {
	scanState
	coeff   [][]int32 // f.Coeff, or private slabs in discard mode
	rowBits []int64   // entropy bits per luma MCU row, summed over scans

	// The nonzero masks, one per block, per component windows of one
	// pooled slab; nil when no scan refines ACs or the decode skips
	// them (1/8 scale), and from the moment the scans end.
	maskSlab []uint64
	masks    [3][]uint64 // by component (a frame has one or three)
	scanMask []uint64    // the current AC scan's component's masks

	scanIdx  int
	sc       *jfif.Scan // the current scan; nil between scans
	prevBits int64      // bit position after the previous row
}

func newProgDecoder(f *Frame, discard bool) *progDecoder {
	d := &progDecoder{
		scanState: scanState{f: f, unit: "unit"},
		coeff:     f.Coeff,
		rowBits:   make([]int64, f.MCURows),
	}
	if discard {
		// Geometry-only frames (profiling) have no pooled buffers, but
		// refinement scans must read back what earlier scans wrote, so a
		// discard-mode progressive decode still needs whole-image
		// coefficients; plain allocations keep the pools out of it.
		d.coeff = make([][]int32, len(f.Planes))
		for c := range f.Planes {
			d.coeff[c] = make([]int32, f.Planes[c].Blocks()*64)
		}
	}
	for c := range f.NZ {
		if f.NZ[c] == nil {
			continue
		}
		for i := range f.NZ[c] {
			f.NZ[c][i] = 1 // DC-only until an AC scan says otherwise
		}
	}
	if d.refinesACs() {
		n := 0
		for c := range f.Planes {
			n += f.Planes[c].Blocks()
		}
		d.maskSlab = getMaskSlab(n)
		clear(d.maskSlab)
		n = 0
		for c := range f.Planes {
			b := f.Planes[c].Blocks()
			d.masks[c] = d.maskSlab[n : n+b : n+b]
			n += b
		}
	}
	return d
}

// refinesACs reports whether a scan the decode reads refines AC
// coefficients, the one reader of the nonzero masks.
func (d *progDecoder) refinesACs() bool {
	for i, sc := range d.f.Img.Scans {
		if sc.Ss > 0 && sc.Ah > 0 && !d.skipsScan(i) {
			return true
		}
	}
	return false
}

// releaseMask returns the nonzero masks to their pool once the scans
// end, whether the last one completed, the tail was skipped or
// abandoned, or a strict decode failed.
func (d *progDecoder) releaseMask() {
	if d.maskSlab != nil {
		putMaskSlab(d.maskSlab)
		d.maskSlab, d.masks, d.scanMask = nil, [3][]uint64{}, nil
	}
}

// Done reports whether every scan has been decoded.
func (d *progDecoder) Done() bool { return d.scanIdx >= len(d.f.Img.Scans) }

// setNZ raises the sparsity watermark of block bi of component c to
// zigzag index k.
func (d *progDecoder) setNZ(c, bi, k int) {
	if nz := d.f.NZ[c]; nz != nil && int(nz[bi]) < k+1 {
		nz[bi] = uint8(k + 1)
	}
}

// beginScan initializes the state of scan scanIdx.
func (d *progDecoder) beginScan() error {
	sc := &d.f.Img.Scans[d.scanIdx]
	d.sc = sc
	d.prevBits = 0
	d.begin(sc.Data, sc.RestartInterval, sc.Comps, sc.Interleaved())
	d.scanMask = nil
	if sc.Ss > 0 {
		d.scanMask = d.masks[sc.Comps[0].CompIdx]
	}
	if d.rows == 0 {
		return errors.New("jpegcodec: empty scan geometry")
	}
	return nil
}

// skipsScan reports whether scan i's entropy data can go unread: a
// 1/8-scale reconstruction uses only the DC coefficient, and AC scans
// (Ss >= 1, single-component by parse validation) never touch it, so a
// DC-only decode skips their payload entirely — typically the large
// majority of a progressive stream's entropy bits. DC scans (first and
// refinement) still run. Skipped scans contribute no bits to the cost
// model, matching the work actually done.
func (d *progDecoder) skipsScan(i int) bool {
	return d.f.BlockPixels() == 1 && d.f.Img.Scans[i].Ss > 0
}

// DecodeRows decodes up to n rows of scan work, crossing scan
// boundaries as needed, and returns the number of rows decoded.
func (d *progDecoder) DecodeRows(n int) (int, error) {
	decoded, err := d.decodeRows(n)
	if err != nil || d.Done() {
		d.releaseMask()
	}
	return decoded, err
}

func (d *progDecoder) decodeRows(n int) (int, error) {
	decoded := 0
	for ; n > 0 && !d.Done(); n-- {
		if d.sc == nil {
			for !d.Done() && d.skipsScan(d.scanIdx) {
				d.scanIdx++
			}
			if d.Done() {
				break
			}
			if err := d.beginScan(); err != nil {
				err = fmt.Errorf("jpegcodec: scan %d: %w", d.scanIdx, err)
				if !d.salvage {
					return decoded, err
				}
				// The scan is structurally unusable; skip it. Later
				// scans still decode on their own readers.
				d.report.record(d.scanIdx, err)
				d.scanIdx++
				d.sc = nil
				continue
			}
		}
		if err := d.walkRow(d.decodeUnit); err != nil {
			err = fmt.Errorf("jpegcodec: scan %d row %d: %w", d.scanIdx, d.row, err)
			if !d.salvage {
				return decoded, err
			}
			d.report.record(d.scanIdx, err)
			d.salvageScanError()
			decoded++
			continue
		}
		// Attribute the row's bits to its covering luma MCU row.
		m := d.row
		if !d.sc.Interleaved() {
			m = d.row / d.f.Img.Components[d.sc.Comps[0].CompIdx].V
		}
		if m >= len(d.rowBits) {
			m = len(d.rowBits) - 1
		}
		pos := d.bitPos()
		d.rowBits[m] += pos - d.prevBits
		d.prevBits = pos
		d.row++
		decoded++
		if d.row >= d.rows {
			d.scanIdx++
			d.sc = nil
		}
	}
	return decoded, nil
}

// decodeUnit decodes the blocks of unit (ux, uy) of the current scan.
// An AC scan has one component and one block per unit; a block inside
// an EOB run that owes no correction bit costs nothing more than the
// count.
func (d *progDecoder) decodeUnit(ux, uy int) error {
	sc := d.sc
	if sc.Ss > 0 {
		b := &d.blocks[0]
		bi := b.index(ux, uy)
		if d.eobrun > 0 && (sc.Ah == 0 || d.scanMask != nil && d.scanMask[bi]&bandBits(sc.Ss, sc.Se) == 0) {
			d.eobrun--
			return nil
		}
		blk := (*[64]int32)(d.coeff[b.c][bi*64 : bi*64+64])
		if sc.Ah == 0 {
			return d.decodeACFirst(blk, b, bi)
		}
		return d.decodeACRefine(blk, b.c, bi)
	}
	if sc.Ah != 0 && !d.generalOnly {
		// DC refinement: one bit per block, from the window when it
		// holds the unit's bits (ReadBit refills only once it is empty).
		if acc, nb, ok := d.r.Window(); ok && nb >= uint(len(d.blocks)) {
			al := uint(sc.Al) & 15
			for i := range d.blocks {
				b := &d.blocks[i]
				d.coeff[b.c][b.index(ux, uy)*64] |= int32(acc>>63) << al
				acc <<= 1
			}
			d.r.SetWindow(acc, nb-uint(len(d.blocks)))
			return nil
		}
	}
	for i := range d.blocks {
		b := &d.blocks[i]
		bi := b.index(ux, uy)
		if err := d.decodeDC((*[64]int32)(d.coeff[b.c][bi*64:bi*64+64]), b); err != nil {
			return err
		}
	}
	return nil
}

// salvageScanError absorbs an entropy error in the current scan (the
// caller has recorded it): resync within the scan at the next usable
// restart marker, in scan units. When no usable marker exists the rest
// of the scan is abandoned; later scans still decode. Coefficients are
// never zeroed — prior-scan values are the best available — so only
// lost first-DC coverage counts as damage.
func (d *progDecoder) salvageScanError() {
	total := d.unitsPerRow * d.rows
	errUnit := d.row*d.unitsPerRow + d.col
	land := d.resync(errUnit, total)
	d.addDCDamage(errUnit, land, total)
	if land == total {
		d.scanIdx++
		d.sc = nil
		d.col = 0
		return
	}
	d.row, d.col = land/d.unitsPerRow, land%d.unitsPerRow
	d.prevBits = d.bitPos()
}

// addDCDamage records scan units [fromUnit, toUnit) as damaged when the
// current scan is a first DC scan — blocks that never receive their DC
// render flat. AC and refinement losses keep prior-scan coefficients
// and merely cap quality, so they are not damage. Interleaved units are
// MCUs directly; single-component block units map proportionally onto
// the MCU raster.
func (d *progDecoder) addDCDamage(fromUnit, toUnit, totalUnits int) {
	sc := d.sc
	if sc.Ss != 0 || sc.Ah != 0 {
		return
	}
	if sc.Interleaved() {
		d.report.addDamage(fromUnit, toUnit-fromUnit)
		return
	}
	totalMCU := d.f.MCUsPerRow * d.f.MCURows
	first := fromUnit * totalMCU / totalUnits
	end := (toUnit*totalMCU + totalUnits - 1) / totalUnits
	if end > totalMCU {
		end = totalMCU
	}
	d.report.addDamage(first, end-first)
}

// decodeDC handles both DC passes: the first scan decodes a
// Huffman-coded difference (through the probe of entropy.go) and stores
// the predictor shifted left by Al; refinement scans append one raw bit
// at bit position Al.
func (d *progDecoder) decodeDC(blk *[64]int32, b *unitBlock) error {
	sc := d.sc
	if sc.Ah != 0 {
		bit, err := d.r.ReadBit()
		if err != nil {
			return err
		}
		blk[0] |= int32(bit) << uint(sc.Al)
		return nil
	}
	diff, ok := int32(0), false
	if !d.generalOnly {
		diff, ok = probeDC(d.r, b.dc)
	}
	if !ok {
		var err error
		if diff, err = d.dcGeneral(b.dc); err != nil {
			return err
		}
	}
	d.dc[b.si] += diff
	blk[0] = d.dc[b.si] << uint(sc.Al)
	return nil
}

// decodeACFirst decodes one block of an AC first scan (Ah = 0): plain
// run-length coding within the band [Ss, Se], except that an s=0 symbol
// with r < 15 starts an EOB run of 2^r plus r appended bits, covering
// this block and the next eobrun-1 blocks of the scan. The probe of
// entropy.go reads the band; the general path finishes what it leaves.
// The block's nonzero mask gains the positions written, read back from
// the block in cache: [Ss, maxK], or the whole band after an error.
func (d *progDecoder) decodeACFirst(blk *[64]int32, b *unitBlock, bi int) error {
	sc := d.sc
	k, maxK, general := sc.Ss, -1, true
	if !d.generalOnly {
		k, maxK, d.eobrun, general = probeACs(d.r, b.ac, blk, sc.Ss, sc.Se, uint(sc.Al), -1, true)
	}
	var err error
	if general {
		maxK, err = d.acGeneral(b.ac, blk, k, sc.Se, uint(sc.Al), maxK, true)
	}
	if maxK >= 0 {
		d.setNZ(b.c, bi, maxK)
	}
	if d.scanMask != nil {
		hi := maxK
		if err != nil {
			hi = sc.Se
		}
		m := d.scanMask[bi]
		for k := sc.Ss; k <= hi; k++ {
			v := blk[jfif.ZigZag[k&63]&63]
			m |= uint64(uint32(v|-v)>>31) << uint(k&63) // bit k if v != 0
		}
		d.scanMask[bi] = m
	}
	return err
}

// decodeACRefine decodes one block of an AC refinement scan (Ah = Al+1):
// every coefficient that is already nonzero receives a correction bit;
// newly nonzero coefficients arrive as ±1 at bit position Al, with zero
// runs counting only zero-history positions. An EOB run still refines
// the nonzero coefficients of the blocks it covers. The mask walk
// (refineProbe) goes as far as it can; the per-bit walk finishes from
// the symbol it stopped before.
func (d *progDecoder) decodeACRefine(blk *[64]int32, ci, bi int) error {
	sc := d.sc
	k := sc.Ss
	if d.scanMask != nil && !d.generalOnly {
		m := &d.scanMask[bi]
		if d.eobrun == 0 {
			before := *m
			var err error
			k, err = d.refineProbe(blk, m)
			if *m != before {
				// Only new nonzeros move the watermark: it is the mask's length.
				d.setNZ(ci, bi, bits.Len64(*m)-1)
			}
			if err != nil || k > sc.Se {
				return err
			}
		} else if acc, nb, ok := d.r.Window(); ok {
			// A block inside an EOB run owes only the correction bits of
			// its history in the band.
			d.eobrun--
			return d.refineCorrections(blk, *m&bandBits(k, sc.Se), int32(1)<<uint(sc.Al), acc, nb)
		}
	}
	return d.refineGeneral(blk, ci, bi, k)
}

// bandBits is the zigzag band [lo, hi] as mask bits.
func bandBits(lo, hi int) uint64 {
	return uint64(1)<<uint(hi+1) - uint64(1)<<uint(lo)
}

// refineProbe is the mask walk of an AC refinement block. It decodes
// each symbol through the probe LUT of the scan's table on the reader's
// bit window, refilled to 32 bits before a symbol exactly as
// Table.Decode would, and stops before any symbol it cannot settle: a
// long code past the LUT that starts no code, a magnitude other than 1,
// a run past the band, or fewer than 32 bits left before a marker or
// the end of the data. It returns the position the general path takes
// over at, or Se+1 when the block is done; an error can only come from
// refineNonZeroes, finishing the correction bits of a symbol the data
// ran short in. It keeps the block's mask m current.
func (d *progDecoder) refineProbe(blk *[64]int32, m *uint64) (int, error) {
	sc := d.sc
	k, se := sc.Ss, sc.Se
	acc, nb, ok := d.r.Window()
	if !ok {
		return k, nil
	}
	al := uint(sc.Al) & 15
	delta := int32(1) << al
	mask := *m
	tab := sc.Comps[0].AC
	lut := tab.Probes()
	top := bandBits(0, se)
	for k <= se {
		if nb < 32 {
			if acc, nb = d.r.Refill(acc, nb); nb < 32 {
				if acc, nb = d.r.RefillSlow(acc, nb); nb < 32 {
					break
				}
			}
		}
		e := lut[acc>>(64-huffman.ProbeBits)]
		if e == 0 {
			if e = tab.ProbeLong(acc); e == 0 {
				break
			}
		}
		n, r := e.Len(), e.Run()
		newval := int32(0)
		if e.ZeroSize() {
			if r != 15 {
				// An EOB run of 2^r plus r appended bits, this block the
				// first: the rest of the band takes correction bits only.
				acc <<= n
				nb -= n
				eobrun := 1 << uint(r)
				if r > 0 {
					eobrun += int(acc >> (64 - uint(r)))
					acc <<= uint(r)
					nb -= uint(r)
				}
				d.eobrun = eobrun - 1
				*m = mask
				return se + 1, d.refineCorrections(blk, mask&bandBits(k, se), delta, acc, nb)
			}
			// ZRL: the sixteenth zero-history position is passed, not set.
		} else if x, v := e.Extra(), e.Value(); x == 0 && uint32(v+1) <= 2 {
			newval = v << al // a magnitude of 1, its sign inside the LUT index
		} else if x == 1 {
			newval = (int32(acc<<n>>63)*2 - 1) << al
			n++
		} else {
			break // a magnitude other than 1: the general path's error
		}
		// The landing slot is the (r+1)th zero-history position of
		// [k, Se]; the nonzeros before it owe a correction bit each.
		// Where no history lies in the way it is simply k+r.
		p := k + r
		owed := uint64(0)
		if run := (uint64(2)<<uint(r) - 1) << uint(k&63); mask&run != 0 || p > se {
			from := ^uint64(0) << uint(k&63)
			zeros := ^mask & top & from
			for i := r; i > 0; i-- {
				zeros &= zeros - 1
			}
			if zeros == 0 {
				break // the run overflows the band: the general path's error
			}
			p = bits.TrailingZeros64(zeros) & 63
			owed = mask & from & (uint64(1)<<uint(p) - 1)
		}
		acc <<= n
		nb -= n
		stop := false
		if c := uint(bits.OnesCount64(owed)); c != 0 && c <= min(nb, 32) {
			// One read holds the correction bits of the run.
			correct(blk, owed, uint32(acc>>32)&^(^uint32(0)>>c), delta)
			acc <<= c
			nb -= c
		} else if c != 0 {
			var short uint64
			if acc, nb, short = applyCorrections(d.r, blk, owed, delta, acc, nb); short != 0 {
				// The data ran short: the per-bit walk reads the rest of
				// the run, and the window is checked out again after it.
				d.r.SetWindow(acc, nb)
				from := bits.TrailingZeros64(short)
				left := r - bits.OnesCount64(^mask&bandBits(k, from-1))
				if _, err := d.refineNonZeroes(blk[:], from, se, left, delta); err != nil {
					*m = mask
					return k, err
				}
				acc, nb, ok = d.r.Window()
				stop = !ok
			}
		}
		if newval != 0 {
			blk[jfif.ZigZag[p&63]&63] = newval
			mask |= 1 << uint(p&63)
		}
		k = p + 1
		if stop {
			// Zero padding past a marker: the reader's methods only.
			*m = mask
			return k, nil
		}
	}
	d.r.SetWindow(acc, nb)
	*m = mask
	return k, nil
}

// refineCorrections applies the correction bits of the nonzero-history
// positions owed up to the end of the band, from the window (acc, nb)
// checked out of the reader, and hands the window back; when the data
// runs short the per-bit walk finishes from the first position still
// owed.
func (d *progDecoder) refineCorrections(blk *[64]int32, owed uint64, delta int32, acc uint64, nb uint) error {
	if c := uint(bits.OnesCount64(owed)); c <= min(nb, 32) {
		// One read holds them all.
		correct(blk, owed, uint32(acc>>32)&^(^uint32(0)>>c), delta)
		d.r.SetWindow(acc<<c, nb-c)
		return nil
	}
	acc, nb, short := applyCorrections(d.r, blk, owed, delta, acc, nb)
	d.r.SetWindow(acc, nb)
	if short != 0 {
		_, err := d.refineNonZeroes(blk[:], bits.TrailingZeros64(short), d.sc.Se, -1, delta)
		return err
	}
	return nil
}

// applyCorrections reads one correction bit for each position in owed,
// in zigzag order, in reads of at most 32 bits, and applies them. It
// refills the window only once it is empty, when ReadBit would, and
// returns the positions whose bits the data could not supply; for those
// the reader pads past a marker or fails, which is the per-bit walk's
// to do.
func applyCorrections(r *bitstream.Reader, blk *[64]int32, owed uint64, delta int32, acc uint64, nb uint) (uint64, uint, uint64) {
	for c := uint(bits.OnesCount64(owed)); c > 0; {
		if nb == 0 {
			if acc, nb = r.Refill(acc, nb); nb == 0 {
				if acc, nb = r.RefillSlow(acc, nb); nb == 0 {
					break
				}
			}
		}
		n := min(c, nb, 32)
		correct(blk, owed, uint32(acc>>32)&^(^uint32(0)>>n), delta)
		acc <<= n
		nb -= n
		if c -= n; c == 0 {
			return acc, nb, 0
		}
		for ; n > 0; n-- {
			owed &= owed - 1
		}
	}
	return acc, nb, owed
}

// correct applies correction bits v, left-aligned, to the positions of
// owed in zigzag order, stopping at the last set bit: a set bit moves
// its coefficient one delta further from zero (the sign is settled, so
// a correction only grows the magnitude).
func correct(blk *[64]int32, owed uint64, v uint32, delta int32) {
	for ; v != 0; v <<= 1 {
		u := jfif.ZigZag[bits.TrailingZeros64(owed)&63] & 63
		owed &= owed - 1
		x := blk[u]
		s := x >> 31
		blk[u] = x + (delta^s-s)&-int32(v>>31)
	}
}

// refineGeneral is the per-bit walk of an AC refinement block from
// zigzag position k, a symbol boundary: the general path behind
// refineProbe, and the only place a refinement error is made.
func (d *progDecoder) refineGeneral(blk *[64]int32, ci, bi, k int) error {
	sc := d.sc
	ac := sc.Comps[0].AC
	delta := int32(1) << uint(sc.Al)
	if d.eobrun == 0 {
	scan:
		for ; k <= sc.Se; k++ {
			rs, err := ac.Decode(d.r)
			if err != nil {
				return err
			}
			r := int(rs >> 4)
			s := rs & 0xF
			newval := int32(0)
			switch s {
			case 0:
				if r != 15 {
					d.eobrun = 1 << uint(r)
					if r > 0 {
						bits, err := d.r.ReadBits(uint(r))
						if err != nil {
							return err
						}
						d.eobrun += int(bits)
					}
					break scan
				}
				// ZRL: skip 16 zero-history positions.
			case 1:
				bit, err := d.r.ReadBit()
				if err != nil {
					return err
				}
				if bit != 0 {
					newval = delta
				} else {
					newval = -delta
				}
			default:
				return fmt.Errorf("bad refinement magnitude %d", s)
			}
			k, err = d.refineNonZeroes(blk[:], k, sc.Se, r, delta)
			if err != nil {
				return err
			}
			if k > sc.Se {
				return fmt.Errorf("refinement run overflows band (k=%d)", k)
			}
			if newval != 0 {
				blk[jfif.ZigZag[k]] = newval
				d.setNZ(ci, bi, k)
				if d.scanMask != nil {
					d.scanMask[bi] |= 1 << uint(k)
				}
			}
		}
	}
	if d.eobrun > 0 {
		d.eobrun--
		if _, err := d.refineNonZeroes(blk[:], k, sc.Se, -1, delta); err != nil {
			return err
		}
	}
	return nil
}

// refineNonZeroes walks zigzag positions [k, se], reading one correction
// bit for every coefficient with nonzero history and skipping nz
// zero-history positions (nz < 0 means unbounded — the EOB-run case).
// It returns the position of the nz+1'th zero-history coefficient (the
// landing slot of a newly nonzero value), or se+1.
func (d *progDecoder) refineNonZeroes(blk []int32, k, se, nz int, delta int32) (int, error) {
	for ; k <= se; k++ {
		u := jfif.ZigZag[k]
		if blk[u] == 0 {
			if nz == 0 {
				break
			}
			nz--
			continue
		}
		bit, err := d.r.ReadBit()
		if err != nil {
			return k, err
		}
		if bit == 0 {
			continue
		}
		// Append the bit toward larger magnitude: the sign is already
		// settled, so a set correction bit moves the value away from zero.
		if blk[u] >= 0 {
			blk[u] += delta
		} else {
			blk[u] -= delta
		}
	}
	return k, nil
}
