package jpegcodec

import (
	"errors"
	"fmt"

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
// blocks for a single-component one; only the refinement passes
// (decodeACRefine, refineNonZeroes and the DC refinement bit) are
// progressive's own.
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
// the PPS equations see the same per-row distribution as baseline. Its
// scanState is the current scan's: in salvage mode a scan error resyncs
// at the next restart marker within the scan, or abandons the scan —
// prior-scan coefficients stay, so only lost first-DC coverage is
// damage.
type progDecoder struct {
	scanState
	coeff   [][]int32 // f.Coeff, or private slabs in discard mode
	rowBits []int64   // entropy bits per luma MCU row, summed over scans

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
	return d
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
func (d *progDecoder) decodeUnit(ux, uy int) error {
	sc := d.sc
	for i := range d.blocks {
		b := &d.blocks[i]
		bi := b.index(ux, uy)
		blk := d.coeff[b.c][bi*64 : bi*64+64 : bi*64+64]
		var err error
		switch {
		case sc.Ss == 0:
			err = d.decodeDC(blk, b)
		case sc.Ah == 0:
			err = d.decodeACFirst((*[64]int32)(blk), b, bi)
		default:
			err = d.decodeACRefine(blk, b.c, bi)
		}
		if err != nil {
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
func (d *progDecoder) decodeDC(blk []int32, b *unitBlock) error {
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
func (d *progDecoder) decodeACFirst(blk *[64]int32, b *unitBlock, bi int) error {
	if d.eobrun > 0 {
		d.eobrun--
		return nil
	}
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
	return err
}

// decodeACRefine decodes one block of an AC refinement scan (Ah = Al+1):
// every coefficient that is already nonzero receives a correction bit;
// newly nonzero coefficients arrive as ±1 at bit position Al, with zero
// runs counting only zero-history positions. An EOB run still refines
// the nonzero coefficients of the blocks it covers.
func (d *progDecoder) decodeACRefine(blk []int32, ci, bi int) error {
	sc := d.sc
	ac := sc.Comps[0].AC
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
				d.setNZ(ci, bi, k)
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
