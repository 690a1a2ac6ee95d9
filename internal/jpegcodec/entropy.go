package jpegcodec

import (
	"errors"
	"fmt"

	"hetjpeg/internal/bitstream"
	"hetjpeg/internal/huffman"
	"hetjpeg/internal/jfif"
)

// EntropyDecoder performs sequential Huffman decoding of a frame's
// entropy-coded segment into the whole-image coefficient buffer. It is
// chunk-oriented: callers decode a number of MCU rows at a time (the
// pipelined schedulers of Sections 4.5/5.2 interleave these chunks with
// device work) and can query the exact number of entropy bits each MCU
// row consumed (PPS re-partitioning, Equations 16-17).
//
// Progressive frames decode through the same interface: DecodeRows then
// measures scan rows (a progressive image traverses its coefficient
// buffer once per scan), and BitsPerRow aggregates every scan's bits
// onto the covering luma MCU rows once decoding completes, so the cost
// model sees the same per-row shape either way. The one semantic
// difference callers must respect: progressive coefficients are final
// only when Done reports true — no back-phase work may start earlier.
type EntropyDecoder struct {
	f   *Frame
	r   *bitstream.Reader
	dc  []int32 // DC predictor per component
	row int     // next MCU row to decode
	col int     // next MCU within the current row (salvage resume cursor)

	prog *progDecoder // non-nil for progressive frames

	// Salvage mode: entropy errors resynchronize at the next restart
	// marker (zeroing the lost MCUs) instead of aborting, accumulating
	// into report. restartsSeen tracks consumed restart markers so a
	// found marker's modulo-8 number resolves to an absolute position;
	// byteBase is the offset of r's current data window within
	// Img.EntropyData after a resync re-anchors the reader.
	salvage      bool
	report       *SalvageReport
	restartsSeen int
	byteBase     int

	discard bool
	// generalOnly keeps every symbol on the general path; the
	// differential tests decode each stream both ways.
	generalOnly bool
	// dcOnly (baseline 1/8-scale frames) keeps only DC coefficients:
	// AC symbols are still Huffman-decoded to advance the bitstream, but
	// land in scratch, without NZ bookkeeping — the whole-image
	// coefficient buffer collapses to one int32 per block and entropy
	// decoding sheds its store traffic to memory.
	dcOnly  bool
	scratch [64]int32 // the block of a discard decode; the unread ACs of a dcOnly one

	mcusSinceRestart int

	// BitsPerRow[i] is the number of entropy bits MCU row i consumed.
	BitsPerRow []int64
	// BlocksPerRow is the number of coefficient blocks per MCU row.
	blocksPerMCURow int
}

// NewEntropyDecoder prepares chunked entropy decoding for f.
func NewEntropyDecoder(f *Frame) *EntropyDecoder {
	return newEntropyDecoder(f, false)
}

// NewEntropyDecoderDiscard prepares a decode pass that discards the
// coefficients, recording only per-row bit counts. f may come from
// NewFrameGeometry (no buffers). Profiling uses this to measure entropy
// density distribution without whole-image allocations (progressive
// refinement needs read-back, so progressive discard decodes still
// allocate plain coefficient buffers internally).
func NewEntropyDecoderDiscard(f *Frame) *EntropyDecoder {
	return newEntropyDecoder(f, true)
}

func newEntropyDecoder(f *Frame, discard bool) *EntropyDecoder {
	blocks := 0
	for _, c := range f.Img.Components {
		blocks += c.H * c.V
	}
	d := &EntropyDecoder{
		f:               f,
		r:               bitstream.NewReader(f.Img.EntropyData),
		dc:              make([]int32, len(f.Img.Components)),
		BitsPerRow:      make([]int64, 0, f.MCURows),
		blocksPerMCURow: blocks * f.MCUsPerRow,
		discard:         discard,
		dcOnly:          f.DCOnly(),
	}
	if f.Img.Progressive {
		d.prog = newProgDecoder(f, discard)
	}
	return d
}

// EnableSalvage switches the decoder into salvage mode: entropy errors
// resynchronize at the next restart marker and accumulate into rep
// instead of aborting. Must be called before the first DecodeRows. On a
// clean stream the decode path is bit-for-bit the strict one and rep
// stays unimpaired.
func (d *EntropyDecoder) EnableSalvage(rep *SalvageReport) {
	d.salvage = true
	d.report = rep
	if d.prog != nil {
		d.prog.salvage = true
		d.prog.report = rep
	}
}

// SalvageReport returns the report EnableSalvage installed (nil in
// strict mode).
func (d *EntropyDecoder) SalvageReport() *SalvageReport { return d.report }

// Row returns the next MCU row index to be decoded (baseline only; a
// progressive decode reports the current scan's row).
func (d *EntropyDecoder) Row() int {
	if d.prog != nil {
		return d.prog.row
	}
	return d.row
}

// Done reports whether the whole image has been entropy decoded.
func (d *EntropyDecoder) Done() bool {
	if d.prog != nil {
		return d.prog.Done()
	}
	return d.row >= d.f.MCURows
}

// TotalRows returns the number of MCU rows in the image.
func (d *EntropyDecoder) TotalRows() int { return d.f.MCURows }

// bitPos returns the reader's position in bits within the full entropy
// segment, net of buffered bits (byteBase re-anchors after a salvage
// resync so positions stay monotone across Reader resets).
func (d *EntropyDecoder) bitPos() int64 {
	return int64(d.byteBase+d.r.BytePos())*8 - int64(d.r.BitsBuffered())
}

// DecodeRows entropy-decodes n rows of work into the coefficient
// buffer, returning the number of rows actually decoded. Baseline rows
// are MCU rows; progressive rows are scan rows (so the pipelined
// callers keep their cancellation-poll granularity across scans).
func (d *EntropyDecoder) DecodeRows(n int) (int, error) {
	if d.prog != nil {
		decoded, err := d.prog.DecodeRows(n)
		if err != nil {
			return decoded, err
		}
		if d.prog.Done() && len(d.BitsPerRow) == 0 {
			// All scans landed: publish the per-MCU-row aggregate.
			d.BitsPerRow = d.prog.rowBits
		}
		return decoded, nil
	}
	decoded := 0
	for ; n > 0 && d.row < d.f.MCURows; n-- {
		start := d.bitPos()
		if err := d.decodeMCURow(d.row); err != nil {
			if d.salvage {
				d.salvageResync(err, start)
				decoded++
				continue
			}
			return decoded, fmt.Errorf("jpegcodec: entropy decode of MCU row %d: %w", d.row, err)
		}
		d.BitsPerRow = append(d.BitsPerRow, d.bitPos()-start)
		d.row++
		d.col = 0
		decoded++
	}
	return decoded, nil
}

// DecodeAll decodes every remaining row of work.
func (d *EntropyDecoder) DecodeAll() error {
	for !d.Done() {
		if _, err := d.DecodeRows(d.f.MCURows); err != nil {
			return err
		}
	}
	return nil
}

func (d *EntropyDecoder) decodeMCURow(m int) error {
	f := d.f
	im := f.Img
	ri := im.RestartInterval
	// d.col is the resume cursor: 0 on the strict path (and after every
	// completed row), the failing MCU's column after a salvage resync
	// lands mid-row.
	for ; d.col < f.MCUsPerRow; d.col++ {
		mx := d.col
		if ri > 0 && d.mcusSinceRestart == ri {
			mk, err := d.r.SkipRestartMarker()
			if err != nil {
				return err
			}
			if d.salvage && int(mk-0xD0) != d.restartsSeen%8 {
				// Salvage-only check: an out-of-sequence restart number
				// means markers were dropped or duplicated; resync rather
				// than decode a misaligned interval. Strict mode keeps
				// its historical behavior (any RSTn accepted).
				return fmt.Errorf("restart marker %#02x out of sequence (want RST%d)", mk, d.restartsSeen%8)
			}
			d.restartsSeen++
			for i := range d.dc {
				d.dc[i] = 0
			}
			d.mcusSinceRestart = 0
		}
		if d.salvage && d.r.Marker() != 0 && d.r.BitsBuffered() == 0 {
			// Salvage-only check: real bits ran out at a pending marker
			// with MCUs still owed before the next restart — everything
			// further would decode synthetic zero padding.
			return fmt.Errorf("entropy data exhausted at marker %#02x (MCU %d of restart interval)", d.r.Marker(), d.mcusSinceRestart)
		}
		for ci, comp := range im.Components {
			dcTab := im.DCTables[comp.DCSel]
			acTab := im.ACTables[comp.ACSel]
			if dcTab == nil || acTab == nil {
				return errors.New("missing Huffman table")
			}
			for v := 0; v < comp.V; v++ {
				for h := 0; h < comp.H; h++ {
					var blk []int32
					if d.discard {
						blk = d.scratch[:]
					} else {
						blk = f.Block(ci, mx*comp.H+h, m*comp.V+v)
					}
					maxK, err := d.decodeBlock(blk, ci, dcTab, acTab)
					if err != nil {
						return err
					}
					if !d.discard && f.NZ[ci] != nil {
						bi := (m*comp.V+v)*f.Planes[ci].BlocksPerRow + mx*comp.H + h
						f.NZ[ci][bi] = uint8(maxK + 1)
					}
				}
			}
		}
		d.mcusSinceRestart++
	}
	return nil
}

// The entropy stage's inner loops share one probe, written once below
// and used by the baseline decoder (decodeBlock, at every scale) and by
// the progressive DC-first and AC-first scans. A probe checks the
// reader's bit window out into locals (bitstream.Reader.Window), tops it
// up to at least 32 bits, enough for a code (<= 16 bits) and its
// magnitude bits (<= 15), and resolves code length, run, category and,
// where it sat inside the index, the EXTENDed value with one load from
// the table's LUT (huffman.Table.Probes). Whatever that cannot settle is
// left to the general path before a single bit of the symbol has been
// consumed: fewer than 32 bits left before a marker or the end of the
// segment, zero padding past a marker, and every malformed symbol. The
// general path (Table.Decode and Reader.ReadBits, resumable at any
// zigzag position) is therefore the only place errors are made, and
// since the window refills when and as the reader itself would, both
// paths agree on every coefficient, byte position and bit count.

// extendTop EXTENDs the next x (1..15) bits of a window.
func extendTop(acc uint64, x uint) int32 {
	return huffman.Extend(uint32(acc>>((64-x)&63)), x)
}

// probeDC reads one DC difference. ok is false, with nothing consumed,
// when the symbol is the general path's.
func probeDC(r *bitstream.Reader, tab *huffman.Table) (diff int32, ok bool) {
	acc, bits, ok := r.Window()
	if !ok {
		return 0, false
	}
	if bits < 32 {
		if acc, bits = r.Refill(acc, bits); bits < 32 {
			if acc, bits = r.RefillSlow(acc, bits); bits < 32 {
				return 0, false
			}
		}
	}
	e := tab.Probes()[acc>>(64-huffman.ProbeBits)]
	n := e.Len()
	if n == 0 || e.Run() != 0 { // a long code, or not a DC category
		r.SetWindow(acc, bits)
		return 0, false
	}
	acc <<= n
	bits -= n
	diff = e.Value()
	if x := e.Extra(); x != 0 {
		diff = extendTop(acc, x)
		acc <<= x
		bits -= x
	}
	r.SetWindow(acc, bits)
	return diff, true
}

// probeACs reads the AC run-lengths of zigzag band [k, se] into b,
// de-zigzagged and shifted left by al, until the band ends. With eobRuns
// (progressive first scans) a zero-size symbol with run < 15 starts an
// EOB run of 2^run plus run appended bits, returned less the current
// block; without (baseline) it is a plain EOB. It returns the position
// reached, the last position written (maxK when none was), and whether
// the symbol at the position reached is the general path's, in which
// case none of its bits have been consumed.
func probeACs(r *bitstream.Reader, tab *huffman.Table, b *[64]int32, k, se int, al uint, maxK int, eobRuns bool) (kEnd, last, eobrun int, general bool) {
	acc, bits, ok := r.Window()
	if !ok {
		return k, maxK, 0, true
	}
	zz := &jfif.ZigZag
	lut := tab.Probes()
	var e huffman.Probe // a code past the LUT, resolved between two runs of the hot loop
band:
	for {
		// The hot loop makes no calls, so the window stays in registers.
		for k <= se {
			if e == 0 {
				if bits < 32 {
					if acc, bits = r.Refill(acc, bits); bits < 32 {
						break
					}
				}
				if e = lut[acc>>(64-huffman.ProbeBits)]; e == 0 {
					break
				}
			}
			n := e.Len()
			if e.ZeroSize() {
				run := uint(e.Run())
				acc <<= n
				bits -= n
				if run == 15 { // ZRL: sixteen zeros
					k += 16
					e = 0
					continue
				}
				if eobRuns {
					eobrun = 1<<run - 1 // this block is the first of the run
					if run > 0 {
						eobrun += int(acc >> (64 - run))
						acc <<= run
						bits -= run
					}
				}
				break band
			}
			kk := k + e.Run()
			if kk > se {
				general = true
				break band
			}
			acc <<= n
			bits -= n
			v := e.Value()
			if x := e.Extra(); x != 0 {
				v = extendTop(acc, x)
				acc <<= x
				bits -= x
			}
			b[zz[kk&63]&63] = v << (al & 15)
			maxK = kk
			k = kk + 1
			e = 0
		}
		if k > se {
			break
		}
		// The hot loop stopped before a symbol it could not take.
		if bits < 32 {
			if acc, bits = r.RefillSlow(acc, bits); bits < 32 {
				general = true
				break
			}
		} else if e = tab.ProbeLong(acc); e == 0 {
			general = true
			break
		}
	}
	r.SetWindow(acc, bits)
	return k, maxK, eobrun, general
}

// decodeBlock reads one 8x8 block: DC difference then AC run-lengths,
// writing coefficients in natural order (de-zigzagged). It returns the
// zigzag index of the last coefficient it wrote (0 for a DC-only block),
// the sparsity summary the IDCT dispatcher keys on. The block is cleared
// here, in cache, immediately before it is filled: coefficient slabs
// arrive with unspecified contents. A DC-only frame (baseline 1/8 scale)
// has one slot per block; its AC symbols are decoded all the same, to
// advance the bitstream exactly as at full size, and land in scratch.
func (d *EntropyDecoder) decodeBlock(blk []int32, comp int, dcTab, acTab *huffman.Table) (int, error) {
	b := &d.scratch
	if !d.dcOnly {
		b = (*[64]int32)(blk)
		*b = [64]int32{}
	}
	if d.generalOnly {
		return d.decodeBlockGeneral(blk, comp, 0, 0, dcTab, acTab)
	}
	diff, ok := probeDC(d.r, dcTab)
	if !ok {
		return d.decodeBlockGeneral(blk, comp, 0, 0, dcTab, acTab)
	}
	d.dc[comp] += diff
	blk[0] = d.dc[comp]
	k, maxK, _, general := probeACs(d.r, acTab, b, 1, 63, 0, 0, false)
	if general {
		return d.decodeBlockGeneral(blk, comp, k, maxK, dcTab, acTab)
	}
	return maxK, nil
}

// decodeBlockGeneral finishes a block from zigzag position k (0: the DC
// coefficient; maxK is the last position written so far) through
// Table.Decode and Reader.ReadBits: the general path behind the probe
// loops, and the only one that reports errors.
func (d *EntropyDecoder) decodeBlockGeneral(blk []int32, comp, k, maxK int, dcTab, acTab *huffman.Table) (int, error) {
	if k == 0 {
		t, err := dcTab.Decode(d.r)
		if err != nil {
			return 0, err
		}
		if t > 15 {
			return 0, fmt.Errorf("bad DC category %d", t)
		}
		diff := int32(0)
		if t > 0 {
			bits, err := d.r.ReadBits(uint(t))
			if err != nil {
				return 0, err
			}
			diff = huffman.Extend(bits, uint(t))
		}
		d.dc[comp] += diff
		blk[0] = d.dc[comp]
		k = 1
	}
	if d.dcOnly {
		return 0, d.skipACs(k, acTab)
	}
	for k < 64 {
		rs, err := acTab.Decode(d.r)
		if err != nil {
			return maxK, err
		}
		r := int(rs >> 4)
		s := uint(rs & 0xF)
		if s == 0 {
			if r == 15 { // ZRL: sixteen zeros
				k += 16
				continue
			}
			break // EOB
		}
		k += r
		if k > 63 {
			return maxK, fmt.Errorf("AC run overflows block (k=%d)", k)
		}
		bits, err := d.r.ReadBits(s)
		if err != nil {
			return maxK, err
		}
		blk[jfif.ZigZag[k]] = huffman.Extend(bits, s)
		maxK = k
		k++
	}
	return maxK, nil
}

// skipACs walks a DC-only block's AC symbols from zigzag position k on
// the general path without materializing the coefficients: Huffman
// symbols are decoded and value bits consumed (the bitstream position
// must advance exactly as in the storing path) but EXTEND and the
// coefficient stores are skipped. Run/length errors are still reported
// so corrupt streams fail identically at any scale.
func (d *EntropyDecoder) skipACs(k int, acTab *huffman.Table) error {
	for k < 64 {
		rs, err := acTab.Decode(d.r)
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
			return nil // EOB
		}
		k += r
		if k > 63 {
			return fmt.Errorf("AC run overflows block (k=%d)", k)
		}
		if _, err := d.r.ReadBits(s); err != nil {
			return err
		}
		k++
	}
	return nil
}

// salvageResync absorbs a baseline entropy error: record it, then scan
// the raw entropy bytes ahead for a restart marker whose modulo-8
// number resolves (against restartsSeen) to an MCU position past the
// error, zero the MCUs in between, and re-anchor the reader after the
// marker with DC predictors reset per T.81. Without a usable marker the
// remaining MCUs are zeroed and the decode completes as a tail loss.
// rowStart is the bit position where the failed row began (bit
// accounting for the cost model).
func (d *EntropyDecoder) salvageResync(err error, rowStart int64) {
	f := d.f
	total := f.MCUsPerRow * f.MCURows
	errMCU := d.row*f.MCUsPerRow + d.col
	d.report.record(0, fmt.Errorf("jpegcodec: entropy decode of MCU row %d: %w", d.row, err))
	if ri := f.Img.RestartInterval; ri > 0 {
		data := f.Img.EntropyData
		for i := d.byteBase + d.r.BytePos(); i+1 < len(data); {
			if data[i] != 0xFF {
				i++
				continue
			}
			mk := data[i+1]
			if mk == 0x00 { // byte stuffing: entropy data
				i += 2
				continue
			}
			if mk == 0xFF { // fill byte; the marker may start here
				i++
				continue
			}
			if mk < 0xD0 || mk > 0xD7 {
				break // a non-restart marker ends the scan: tail loss
			}
			// dskip = how many whole restart intervals the marker number
			// says were lost (0 = the very next expected marker).
			dskip := (int(mk-0xD0) - d.restartsSeen%8 + 8) % 8
			cand := (d.restartsSeen + dskip + 1) * ri
			if dskip > maxResyncSkip || cand <= errMCU {
				i += 2 // stale, duplicated, or behind the error: keep scanning
				continue
			}
			if cand >= total {
				break // claims a position past the image: tail loss
			}
			d.zeroMCUs(errMCU, cand-errMCU)
			d.r.Reset(data[i+2:])
			d.byteBase = i + 2
			for j := range d.dc {
				d.dc[j] = 0
			}
			d.mcusSinceRestart = 0
			d.restartsSeen += dskip + 1
			d.report.Resyncs++
			newRow := cand / f.MCUsPerRow
			d.fillRowBits(newRow, rowStart)
			d.row = newRow
			d.col = cand % f.MCUsPerRow
			return
		}
	}
	d.zeroMCUs(errMCU, total-errMCU)
	d.fillRowBits(f.MCURows, rowStart)
	d.row = f.MCURows
	d.col = 0
}

// fillRowBits keeps the len(BitsPerRow) == row invariant across a
// resync that jumps rows: the failed row absorbs the bits consumed and
// skipped during the jump, the fully-lost rows in between cost zero.
// A resync landing within the current row appends nothing (the row's
// entry lands when it eventually completes).
func (d *EntropyDecoder) fillRowBits(newRow int, rowStart int64) {
	if newRow <= d.row {
		return
	}
	d.BitsPerRow = append(d.BitsPerRow, d.bitPos()-rowStart)
	for r := d.row + 1; r < newRow; r++ {
		d.BitsPerRow = append(d.BitsPerRow, 0)
	}
}

// zeroMCUs clears the coefficients and sparsity watermarks of MCUs
// [first, first+n) in raster order and records them as damaged: blocks
// the decoder never reached hold whatever the slab held, the failing MCU
// may be partially written, and a resync can land on MCUs decoded from
// misinterpreted bits. NZ drops to 1 (DC-only, DC = 0) so the flat fast
// path renders damaged blocks as mid-gray.
func (d *EntropyDecoder) zeroMCUs(first, n int) {
	d.report.addDamage(first, n)
	if d.discard {
		return
	}
	f := d.f
	for u := first; u < first+n; u++ {
		m := u / f.MCUsPerRow
		mx := u % f.MCUsPerRow
		for ci, comp := range f.Img.Components {
			for v := 0; v < comp.V; v++ {
				for h := 0; h < comp.H; h++ {
					blk := f.Block(ci, mx*comp.H+h, m*comp.V+v)
					for j := range blk {
						blk[j] = 0
					}
					if f.NZ[ci] != nil {
						bi := (m*comp.V+v)*f.Planes[ci].BlocksPerRow + mx*comp.H + h
						f.NZ[ci][bi] = 1
					}
				}
			}
		}
	}
}

// EntropyBitsTotal returns the total entropy bits consumed so far.
func (d *EntropyDecoder) EntropyBitsTotal() int64 {
	var s int64
	for _, b := range d.BitsPerRow {
		s += b
	}
	return s
}
