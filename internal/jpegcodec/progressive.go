package jpegcodec

import (
	"errors"
	"fmt"

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
//
// Sparsity bookkeeping rides along: Frame.NZ starts at 1 (DC-only) and
// grows monotonically as scans append coefficients — refinement never
// zeroes a coefficient, so the per-block maximum zigzag index only ever
// increases and the sparse IDCT fast paths keep firing on smooth blocks
// even for progressive input.

// progDecoder walks the scans of a progressive image. It is driven
// row-at-a-time (MCU rows for interleaved scans, block rows for
// single-component scans) so the pipelined callers keep their
// cancellation-poll granularity, and it attributes the entropy bits of
// every row to the covering luma MCU row so the virtual cost model and
// the PPS equations see the same per-row distribution as baseline.
type progDecoder struct {
	f       *Frame
	coeff   [][]int32 // f.Coeff, or private slabs in discard mode
	rowBits []int64   // entropy bits per luma MCU row, summed over scans

	scanIdx int

	// Current scan state.
	sc               *jfif.Scan
	r                *bitstream.Reader
	dc               []int32 // DC predictors, one per scan component
	eobrun           int     // remaining blocks of the pending EOB run
	row              int     // next row of the current scan
	rows             int     // total rows of the current scan
	col              int     // next unit within the current row (salvage resume cursor)
	wb, hb           int     // single-component scans: the component's own block grid
	mcusSinceRestart int
	prevBits         int64 // bit position after the previous row

	// Salvage mode (see EntropyDecoder): scan errors resync at the next
	// restart marker within the scan, or abandon the scan — prior-scan
	// coefficients stay, so only lost first-DC coverage is damage.
	salvage      bool
	report       *SalvageReport
	restartsSeen int
	byteBase     int // offset of r's window within sc.Data after a resync

	generalOnly bool // see EntropyDecoder.generalOnly
}

func newProgDecoder(f *Frame, discard bool) *progDecoder {
	d := &progDecoder{
		f:       f,
		coeff:   f.Coeff,
		rowBits: make([]int64, f.MCURows),
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
	return d
}

// Done reports whether every scan has been decoded.
func (d *progDecoder) Done() bool { return d.scanIdx >= len(d.f.Img.Scans) }

// block returns the 64-coefficient natural-order slice of block (bx, by)
// of component c.
func (d *progDecoder) block(c, bx, by int) []int32 {
	p := d.f.Planes[c]
	idx := (by*p.BlocksPerRow + bx) * 64
	return d.coeff[c][idx : idx+64 : idx+64]
}

// setNZ raises the sparsity watermark of block (bx, by) of component c
// to zigzag index k.
func (d *progDecoder) setNZ(c, bx, by, k int) {
	nz := d.f.NZ[c]
	if nz == nil {
		return
	}
	bi := by*d.f.Planes[c].BlocksPerRow + bx
	if int(nz[bi]) < k+1 {
		nz[bi] = uint8(k + 1)
	}
}

// beginScan initializes the state of scan scanIdx.
func (d *progDecoder) beginScan() error {
	sc := &d.f.Img.Scans[d.scanIdx]
	d.sc = sc
	d.r = bitstream.NewReader(sc.Data)
	d.dc = make([]int32, len(sc.Comps))
	d.eobrun = 0
	d.row = 0
	d.col = 0
	d.mcusSinceRestart = 0
	d.prevBits = 0
	d.restartsSeen = 0
	d.byteBase = 0
	if sc.Interleaved() {
		d.rows = d.f.MCURows
	} else {
		// A single-component scan walks the component's own block grid
		// (T.81 A.2.2), not the MCU-padded one.
		p := d.f.Planes[sc.Comps[0].CompIdx]
		d.wb = (p.CompW + 7) / 8
		d.hb = (p.CompH + 7) / 8
		d.rows = d.hb
	}
	if d.rows == 0 {
		return errors.New("jpegcodec: empty scan geometry")
	}
	return nil
}

// bitPos returns the current scan reader's consumed-bit count within
// the whole scan (byteBase re-anchors after a salvage resync).
func (d *progDecoder) bitPos() int64 {
	return int64(d.byteBase+d.r.BytePos())*8 - int64(d.r.BitsBuffered())
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
				if d.salvage {
					// The scan is structurally unusable; skip it. Later
					// scans still decode on their own readers.
					d.report.record(d.scanIdx, fmt.Errorf("jpegcodec: scan %d: %w", d.scanIdx, err))
					d.scanIdx++
					d.sc = nil
					continue
				}
				return decoded, fmt.Errorf("jpegcodec: scan %d: %w", d.scanIdx, err)
			}
		}
		if err := d.decodeScanRow(); err != nil {
			if d.salvage {
				d.salvageScanError(err)
				decoded++
				continue
			}
			return decoded, fmt.Errorf("jpegcodec: scan %d row %d: %w", d.scanIdx, d.row, err)
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

// restartIfDue consumes an RSTn marker when the scan's restart interval
// expires, resetting DC predictors and any pending EOB run.
func (d *progDecoder) restartIfDue() error {
	ri := d.sc.RestartInterval
	if ri <= 0 || d.mcusSinceRestart != ri {
		return nil
	}
	mk, err := d.r.SkipRestartMarker()
	if err != nil {
		return err
	}
	if d.salvage && int(mk-0xD0) != d.restartsSeen%8 {
		// Salvage-only check (see the baseline decoder): out-of-sequence
		// restart numbers mean dropped/duplicated markers; resync.
		return fmt.Errorf("restart marker %#02x out of sequence (want RST%d)", mk, d.restartsSeen%8)
	}
	d.restartsSeen++
	for i := range d.dc {
		d.dc[i] = 0
	}
	d.eobrun = 0
	d.mcusSinceRestart = 0
	return nil
}

// decodeScanRow decodes row d.row of the current scan.
func (d *progDecoder) decodeScanRow() error {
	sc := d.sc
	f := d.f
	if sc.Interleaved() {
		// Interleaved scans exist only for DC bands (parse enforces
		// single-component AC scans); walk the padded MCU grid. d.col is
		// the salvage resume cursor (0 on the strict path).
		m := d.row
		for ; d.col < f.MCUsPerRow; d.col++ {
			mx := d.col
			if err := d.restartIfDue(); err != nil {
				return err
			}
			if err := d.checkExhausted(); err != nil {
				return err
			}
			for si, scc := range sc.Comps {
				comp := f.Img.Components[scc.CompIdx]
				for v := 0; v < comp.V; v++ {
					for h := 0; h < comp.H; h++ {
						blk := d.block(scc.CompIdx, mx*comp.H+h, m*comp.V+v)
						if err := d.decodeDC(blk, si); err != nil {
							return err
						}
					}
				}
			}
			d.mcusSinceRestart++
		}
		d.col = 0
		return nil
	}
	ci := sc.Comps[0].CompIdx
	by := d.row
	for ; d.col < d.wb; d.col++ {
		bx := d.col
		if err := d.restartIfDue(); err != nil {
			return err
		}
		if err := d.checkExhausted(); err != nil {
			return err
		}
		blk := d.block(ci, bx, by)
		var err error
		if sc.Ss == 0 {
			err = d.decodeDC(blk, 0)
		} else if sc.Ah == 0 {
			err = d.decodeACFirst(blk, bx, by)
		} else {
			err = d.decodeACRefine(blk, bx, by)
		}
		if err != nil {
			return err
		}
		d.mcusSinceRestart++
	}
	d.col = 0
	return nil
}

// checkExhausted is the salvage-only padding guard (see the baseline
// decoder): real bits ran out at a pending marker with units still owed
// before the next restart. A pending EOB run exempts the check — the
// covered blocks legitimately consume no bits, so a scan's last data
// byte can run dry well before its restart marker is due.
func (d *progDecoder) checkExhausted() error {
	if d.salvage && d.eobrun == 0 && d.r.Marker() != 0 && d.r.BitsBuffered() == 0 {
		return fmt.Errorf("entropy data exhausted at marker %#02x (unit %d of restart interval)", d.r.Marker(), d.mcusSinceRestart)
	}
	return nil
}

// salvageScanError absorbs an entropy error in the current scan: record
// it, then try an intra-scan resync at the next restart marker (same
// marker-number arithmetic as the baseline decoder, in scan units —
// MCUs for interleaved scans, blocks for single-component ones). When
// no usable marker exists the rest of the scan is abandoned; later
// scans still decode. Coefficients are never zeroed — prior-scan values
// are the best available — so only lost first-DC coverage counts as
// damage.
func (d *progDecoder) salvageScanError(err error) {
	sc := d.sc
	d.report.record(d.scanIdx, fmt.Errorf("jpegcodec: scan %d row %d: %w", d.scanIdx, d.row, err))
	unitsPerRow := d.f.MCUsPerRow
	if !sc.Interleaved() {
		unitsPerRow = d.wb
	}
	totalUnits := unitsPerRow * d.rows
	errUnit := d.row*unitsPerRow + d.col
	if ri := sc.RestartInterval; ri > 0 {
		data := sc.Data
		for i := d.byteBase + d.r.BytePos(); i+1 < len(data); {
			if data[i] != 0xFF {
				i++
				continue
			}
			mk := data[i+1]
			if mk == 0x00 { // byte stuffing
				i += 2
				continue
			}
			if mk == 0xFF { // fill byte
				i++
				continue
			}
			if mk < 0xD0 || mk > 0xD7 {
				break // non-restart marker: nothing further in this scan
			}
			dskip := (int(mk-0xD0) - d.restartsSeen%8 + 8) % 8
			cand := (d.restartsSeen + dskip + 1) * ri
			if dskip > maxResyncSkip || cand <= errUnit {
				i += 2
				continue
			}
			if cand >= totalUnits {
				break
			}
			d.addDCDamage(errUnit, cand, totalUnits)
			d.r.Reset(data[i+2:])
			d.byteBase = i + 2
			for j := range d.dc {
				d.dc[j] = 0
			}
			d.eobrun = 0
			d.mcusSinceRestart = 0
			d.restartsSeen += dskip + 1
			d.report.Resyncs++
			d.row = cand / unitsPerRow
			d.col = cand % unitsPerRow
			d.prevBits = d.bitPos()
			return
		}
	}
	d.addDCDamage(errUnit, totalUnits, totalUnits)
	d.scanIdx++
	d.sc = nil
	d.col = 0
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

// decodeDC handles both DC passes of scan component si: the first scan
// decodes a Huffman-coded difference and stores it shifted left by Al
// (through the probe of entropy.go); refinement scans append one raw
// bit at bit position Al.
func (d *progDecoder) decodeDC(blk []int32, si int) error {
	sc := d.sc
	if sc.Ah != 0 {
		bit, err := d.r.ReadBit()
		if err != nil {
			return err
		}
		if bit != 0 {
			blk[0] |= 1 << uint(sc.Al)
		}
		return nil
	}
	if d.generalOnly {
		return d.decodeDCGeneral(blk, si)
	}
	diff, ok := probeDC(d.r, sc.Comps[si].DC)
	if !ok {
		return d.decodeDCGeneral(blk, si)
	}
	d.dc[si] += diff
	blk[0] = d.dc[si] << uint(sc.Al)
	return nil
}

// decodeDCGeneral is the first DC pass on the general path.
func (d *progDecoder) decodeDCGeneral(blk []int32, si int) error {
	sc := d.sc
	t, err := sc.Comps[si].DC.Decode(d.r)
	if err != nil {
		return err
	}
	if t > 15 {
		return fmt.Errorf("bad DC category %d", t)
	}
	diff := int32(0)
	if t > 0 {
		bits, err := d.r.ReadBits(uint(t))
		if err != nil {
			return err
		}
		diff = huffman.Extend(bits, uint(t))
	}
	d.dc[si] += diff
	blk[0] = d.dc[si] << uint(sc.Al)
	return nil
}

// decodeACFirst decodes one block of an AC first scan (Ah = 0): plain
// run-length coding within the band [Ss, Se], except that an s=0 symbol
// with r < 15 starts an EOB run of 2^r plus r appended bits, covering
// this block and the next eobrun-1 blocks of the scan. The probe of
// entropy.go reads the band; the general path finishes what it leaves.
func (d *progDecoder) decodeACFirst(blk []int32, bx, by int) error {
	if d.eobrun > 0 {
		d.eobrun--
		return nil
	}
	sc := d.sc
	if d.generalOnly {
		return d.decodeACFirstGeneral(blk, bx, by, sc.Ss)
	}
	k, maxK, eobrun, general := probeACs(d.r, sc.Comps[0].AC, (*[64]int32)(blk), sc.Ss, sc.Se, uint(sc.Al), -1, true)
	d.eobrun = eobrun
	if maxK >= 0 {
		d.setNZ(sc.Comps[0].CompIdx, bx, by, maxK)
	}
	if general {
		return d.decodeACFirstGeneral(blk, bx, by, k)
	}
	return nil
}

// decodeACFirstGeneral finishes an AC first-scan block from zigzag
// position k on the general path.
func (d *progDecoder) decodeACFirstGeneral(blk []int32, bx, by, k int) error {
	sc := d.sc
	ac := sc.Comps[0].AC
	ci := sc.Comps[0].CompIdx
	for k <= sc.Se {
		rs, err := ac.Decode(d.r)
		if err != nil {
			return err
		}
		r := int(rs >> 4)
		s := uint(rs & 0xF)
		if s == 0 {
			if r == 15 { // ZRL: sixteen zeros
				k += 16
				continue
			}
			d.eobrun = 1 << uint(r)
			if r > 0 {
				bits, err := d.r.ReadBits(uint(r))
				if err != nil {
					return err
				}
				d.eobrun += int(bits)
			}
			d.eobrun-- // this block is the first of the run
			return nil
		}
		k += r
		if k > sc.Se {
			return fmt.Errorf("AC run overflows band (k=%d, Se=%d)", k, sc.Se)
		}
		bits, err := d.r.ReadBits(s)
		if err != nil {
			return err
		}
		blk[jfif.ZigZag[k]] = huffman.Extend(bits, s) << uint(sc.Al)
		d.setNZ(ci, bx, by, k)
		k++
	}
	return nil
}

// decodeACRefine decodes one block of an AC refinement scan (Ah = Al+1):
// every coefficient that is already nonzero receives a correction bit;
// newly nonzero coefficients arrive as ±1 at bit position Al, with zero
// runs counting only zero-history positions. An EOB run still refines
// the nonzero coefficients of the blocks it covers.
func (d *progDecoder) decodeACRefine(blk []int32, bx, by int) error {
	sc := d.sc
	ac := sc.Comps[0].AC
	ci := sc.Comps[0].CompIdx
	delta := int32(1) << uint(sc.Al)
	k := sc.Ss
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
			k, err = d.refineNonZeroes(blk, k, sc.Se, r, delta)
			if err != nil {
				return err
			}
			if k > sc.Se {
				return fmt.Errorf("refinement run overflows band (k=%d)", k)
			}
			if newval != 0 {
				blk[jfif.ZigZag[k]] = newval
				d.setNZ(ci, bx, by, k)
			}
		}
	}
	if d.eobrun > 0 {
		d.eobrun--
		if _, err := d.refineNonZeroes(blk, k, sc.Se, -1, delta); err != nil {
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
