package jpegcodec

import (
	"errors"
	"fmt"

	"hetjpeg/internal/bitstream"
	"hetjpeg/internal/huffman"
	"hetjpeg/internal/jfif"
)

// The entropy stage is one walk over three decoders. The baseline
// decoder (this file), the progressive scans (progressive.go) and a
// restart segment decoded in parallel (entropy_parallel.go) each hold a
// scanState: the reader, the DC predictors, the restart and salvage
// bookkeeping. Rows of units go through walkRow, the one restart check
// and exhaustion guard; the blocks of a unit are listed once, by
// scanState.begin, and decodeMCU is the one per-MCU block walk; each
// block goes through the shared probes and, for whatever they leave,
// the one resumable general path (dcGeneral, acGeneral); a salvage-mode
// error resyncs through scanState.resync, which finds restart markers
// with the same scanner (nextMarker) that splits restart segments.

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
	scanState

	prog *progDecoder // non-nil for progressive frames

	discard bool
	// dcOnly (baseline 1/8-scale frames) keeps only DC coefficients:
	// AC symbols are still Huffman-decoded to advance the bitstream, but
	// land in scratch, without NZ bookkeeping — the whole-image
	// coefficient buffer collapses to one int32 per block and entropy
	// decoding sheds its store traffic to memory.
	dcOnly  bool
	scratch [64]int32 // the block of a discard decode; the unread ACs of a dcOnly one

	// BitsPerRow[i] is the number of entropy bits MCU row i consumed.
	BitsPerRow []int64
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
	d := &EntropyDecoder{
		scanState:  scanState{f: f, unit: "MCU"},
		BitsPerRow: make([]int64, 0, f.MCURows),
		discard:    discard,
		dcOnly:     f.DCOnly(),
	}
	if f.Img.Progressive {
		d.prog = newProgDecoder(f, discard)
	} else {
		d.begin(f.Img.EntropyData, f.Img.RestartInterval, baselineComps(f.Img), true)
	}
	return d
}

// baselineComps lists a baseline frame's components as the components
// of its one interleaved scan, with the Huffman tables they select (nil
// for an undefined table, which fails the first block that needs it).
func baselineComps(im *jfif.Image) []jfif.ScanComponent {
	comps := make([]jfif.ScanComponent, len(im.Components))
	for ci, c := range im.Components {
		comps[ci] = jfif.ScanComponent{CompIdx: ci, DC: im.DCTables[c.DCSel], AC: im.ACTables[c.ACSel]}
	}
	return comps
}

// EnableSalvage switches the decoder into salvage mode: entropy errors
// resynchronize at the next restart marker and accumulate into rep
// instead of aborting. Must be called before the first DecodeRows. On a
// clean stream the decode path is bit-for-bit the strict one and rep
// stays unimpaired.
func (d *EntropyDecoder) EnableSalvage(rep *SalvageReport) {
	d.salvage, d.report = true, rep
	if d.prog != nil {
		d.prog.salvage, d.prog.report = true, rep
	}
}

// SalvageReport returns the report EnableSalvage installed (nil in
// strict mode).
func (d *EntropyDecoder) SalvageReport() *SalvageReport { return d.report }

// Row returns how many leading MCU rows hold final coefficients: the
// next row to decode of a baseline stream; none of a progressive stream
// until its last scan ended, then all.
func (d *EntropyDecoder) Row() int {
	if d.prog != nil {
		if d.prog.Done() {
			return d.f.MCURows
		}
		return 0
	}
	return d.row
}

// Done reports whether the whole image has been entropy decoded.
func (d *EntropyDecoder) Done() bool {
	if d.prog != nil {
		return d.prog.Done()
	}
	return d.row >= d.rows
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
	for ; n > 0 && d.row < d.rows; n-- {
		start := d.bitPos()
		if err := d.walkRow(d.decodeMCU); err != nil {
			err = fmt.Errorf("jpegcodec: entropy decode of MCU row %d: %w", d.row, err)
			if !d.salvage {
				return decoded, err
			}
			d.report.record(0, err)
			d.salvageResync(start)
			decoded++
			continue
		}
		d.BitsPerRow = append(d.BitsPerRow, d.bitPos()-start)
		d.row++
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

// scanState is the entropy walk's position in one scan: the reader over
// the scan's bytes, the DC predictors, the pending EOB run (progressive
// first AC scans), the row and resume cursor in units (MCUs of an
// interleaved scan, blocks of a single-component one), and the restart
// and salvage bookkeeping. The baseline decoder holds one for the whole
// image, the progressive decoder one per scan, a restart segment one of
// its own.
type scanState struct {
	f      *Frame
	r      *bitstream.Reader
	data   []byte      // the scan's entropy-coded bytes, RSTn markers inline
	blocks []unitBlock // the blocks of one unit, in decode order
	dc     []int32     // DC predictor per scan component
	eobrun int         // remaining blocks of the pending EOB run

	row, col          int // next unit row; next unit within it (salvage resume cursor)
	rows, unitsPerRow int
	ri                int // restart interval in units (0: none)

	// Salvage mode: entropy errors resynchronize at the next restart
	// marker instead of aborting, accumulating into report. restartsSeen
	// counts consumed restart markers so a found marker's modulo-8 number
	// resolves to an absolute position; byteBase is the offset of r's
	// window within data after a resync re-anchors the reader.
	salvage          bool
	report           *SalvageReport
	restartsSeen     int
	mcusSinceRestart int
	byteBase         int
	unit             string // what the exhaustion guard calls a unit

	// generalOnly keeps every symbol on the general path; the
	// differential tests decode each stream both ways.
	generalOnly bool
}

// unitBlock is one block of a unit: component c (scan component si, its
// DC predictor), at block offset (h, v) in a unit w×hgt blocks large, on
// a plane stride blocks wide, decoded with Huffman tables dc and ac.
type unitBlock struct {
	c, si, h, v, w, hgt, stride int
	dc, ac                      *huffman.Table
}

// index returns the block's raster index within its plane for the unit
// at (ux, uy).
func (b *unitBlock) index(ux, uy int) int {
	return (uy*b.hgt+b.v)*b.stride + ux*b.w + b.h
}

// begin positions the state at the start of a scan over data. An
// interleaved scan walks the frame's MCU grid, each unit every
// component's H×V blocks in raster order (T.81 A.2.3); a
// single-component scan walks the component's own block grid, one
// block per unit (T.81 A.2.2). The reader, the block list and the DC
// predictors of an earlier scan are reused, so re-aiming a state at the
// next scan or restart segment allocates nothing.
func (s *scanState) begin(data []byte, ri int, comps []jfif.ScanComponent, interleaved bool) {
	f := s.f
	s.blocks = s.blocks[:0]
	s.unitsPerRow, s.rows = f.MCUsPerRow, f.MCURows
	for si, sc := range comps {
		c := f.Img.Components[sc.CompIdx]
		p := &f.Planes[sc.CompIdx]
		w, hgt := c.H, c.V
		if !interleaved {
			w, hgt = 1, 1
			s.unitsPerRow, s.rows = (p.CompW+7)/8, (p.CompH+7)/8
		}
		for v := 0; v < hgt; v++ {
			for h := 0; h < w; h++ {
				s.blocks = append(s.blocks, unitBlock{sc.CompIdx, si, h, v, w, hgt, p.BlocksPerRow, sc.DC, sc.AC})
			}
		}
	}
	if s.r == nil {
		s.r = bitstream.NewReader(data)
	} else {
		s.r.Reset(data)
	}
	s.data, s.ri = data, ri
	if cap(s.dc) < len(comps) {
		s.dc = make([]int32, len(comps))
	}
	s.dc = s.dc[:len(comps)]
	clear(s.dc)
	s.eobrun, s.row, s.col = 0, 0, 0
	s.restartsSeen, s.mcusSinceRestart, s.byteBase = 0, 0, 0
}

// bitPos returns the reader's position in bits within the scan, net of
// buffered bits (byteBase re-anchors after a salvage resync so positions
// stay monotone across Reader resets).
func (s *scanState) bitPos() int64 {
	return int64(s.byteBase+s.r.BytePos())*8 - int64(s.r.BitsBuffered())
}

// walkRow decodes the units of row s.row from the resume cursor s.col
// (0 on the strict path, the failing unit after a salvage resync lands
// mid-row) through unit, consuming an RSTn marker when the restart
// interval expires.
func (s *scanState) walkRow(unit func(ux, uy int) error) error {
	for ; s.col < s.unitsPerRow; s.col++ {
		if s.ri > 0 && s.mcusSinceRestart == s.ri {
			mk, err := s.r.SkipRestartMarker()
			if err != nil {
				return err
			}
			if s.salvage && int(mk-0xD0) != s.restartsSeen%8 {
				// Salvage-only check: an out-of-sequence restart number
				// means markers were dropped or duplicated; resync rather
				// than decode a misaligned interval. Strict mode keeps
				// its historical behavior (any RSTn accepted).
				return fmt.Errorf("restart marker %#02x out of sequence (want RST%d)", mk, s.restartsSeen%8)
			}
			s.restartsSeen++
			s.resetPredictors()
		}
		if s.salvage && s.eobrun == 0 && s.r.Marker() != 0 && s.r.BitsBuffered() == 0 {
			// Salvage-only check: real bits ran out at a pending marker
			// with units still owed before the next restart — everything
			// further would decode synthetic zero padding. A pending EOB
			// run exempts it: the blocks it covers consume no bits.
			return fmt.Errorf("entropy data exhausted at marker %#02x (%s %d of restart interval)", s.r.Marker(), s.unit, s.mcusSinceRestart)
		}
		if err := unit(s.col, s.row); err != nil {
			return err
		}
		s.mcusSinceRestart++
	}
	s.col = 0
	return nil
}

// resetPredictors is a restart per T.81: DC predictors and any pending
// EOB run start over.
func (s *scanState) resetPredictors() {
	clear(s.dc)
	s.eobrun = 0
	s.mcusSinceRestart = 0
}

// resync absorbs an error at unit errUnit of a scan of total units: it
// scans the raw bytes ahead for a restart marker whose modulo-8 number
// resolves (against restartsSeen) to a unit past the error, re-anchors
// the reader after it with predictors reset, and returns that unit. It
// returns total, the reader left where it stopped, when no usable marker
// lies ahead: a non-restart marker, or one that claims a unit past the
// scan, ends the search.
func (s *scanState) resync(errUnit, total int) int {
	if s.ri <= 0 {
		return total
	}
	for i := s.byteBase + s.r.BytePos(); ; i += 2 {
		var mk byte
		if i, mk = nextMarker(s.data, i); i < 0 || !isRST(mk) {
			return total
		}
		// dskip = how many whole restart intervals the marker number
		// says were lost (0 = the very next expected marker).
		dskip := (int(mk-0xD0) - s.restartsSeen%8 + 8) % 8
		cand := (s.restartsSeen + dskip + 1) * s.ri
		if dskip > maxResyncSkip || cand <= errUnit {
			continue // stale, duplicated, or behind the error
		}
		if cand >= total {
			return total
		}
		s.r.Reset(s.data[i+2:])
		s.byteBase = i + 2
		s.restartsSeen += dskip + 1
		s.resetPredictors()
		s.report.Resyncs++
		return cand
	}
}

// nextMarker returns the offset and code of the first marker at or
// after offset i of entropy-coded data, or -1. Inside entropy data 0xFF
// is followed by 0x00 (byte stuffing), by another 0xFF (fill; the
// marker may start there) or by a marker code, so the scan is
// unambiguous.
func nextMarker(data []byte, i int) (int, byte) {
	for ; i+1 < len(data); i++ {
		if data[i] != 0xFF {
			continue
		}
		switch mk := data[i+1]; mk {
		case 0x00:
			i++ // stuffed byte
		case 0xFF:
		default:
			return i, mk
		}
	}
	return -1, 0
}

// isRST reports whether mk is a restart marker code (RST0-RST7).
func isRST(mk byte) bool { return mk >= 0xD0 && mk <= 0xD7 }

// decodeMCU decodes the blocks of baseline MCU (mx, my), recording each
// block's sparsity watermark.
func (d *EntropyDecoder) decodeMCU(mx, my int) error {
	f := d.f
	for i := range d.blocks {
		b := &d.blocks[i]
		if b.dc == nil || b.ac == nil {
			return errors.New("missing Huffman table")
		}
		bi := b.index(mx, my)
		blk := d.scratch[:]
		if !d.discard {
			blk = f.blockAt(b.c, bi)
		}
		maxK, err := d.decodeBlock(blk, b.c, b.dc, b.ac)
		if err != nil {
			return err
		}
		if nz := f.NZ[b.c]; !d.discard && nz != nil {
			nz[bi] = uint8(maxK + 1)
		}
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
// general path (dcGeneral and acGeneral: Table.Decode and
// Reader.ReadBits, resumable at any zigzag position) is therefore the
// only place symbol errors are made, and
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
	diff, ok := int32(0), false
	if !d.generalOnly {
		diff, ok = probeDC(d.r, dcTab)
	}
	if !ok {
		var err error
		if diff, err = d.dcGeneral(dcTab); err != nil {
			return 0, err
		}
	}
	d.dc[comp] += diff
	blk[0] = d.dc[comp]
	k, maxK, general := 1, 0, true
	if !d.generalOnly {
		k, maxK, _, general = probeACs(d.r, acTab, b, 1, 63, 0, 0, false)
	}
	if general {
		return d.acGeneral(acTab, b, k, 63, 0, maxK, false)
	}
	return maxK, nil
}

// dcGeneral reads one DC difference through Table.Decode and
// Reader.ReadBits: the general path behind probeDC.
func (s *scanState) dcGeneral(tab *huffman.Table) (int32, error) {
	t, err := tab.Decode(s.r)
	if err != nil {
		return 0, err
	}
	if t > 15 {
		return 0, fmt.Errorf("bad DC category %d", t)
	}
	if t == 0 {
		return 0, nil
	}
	bits, err := s.r.ReadBits(uint(t))
	if err != nil {
		return 0, err
	}
	return huffman.Extend(bits, uint(t)), nil
}

// acGeneral finishes the AC band [k, se] of block b through Table.Decode
// and Reader.ReadBits, storing values shifted left by al: the general
// path behind probeACs, resumable at any zigzag position. maxK is the
// last position written so far; it returns the last position written,
// also alongside an error, so the caller's watermark covers what a
// failing block kept. With eobRuns (progressive first scans) a
// zero-size symbol with run < 15 starts an EOB run of 2^run plus run
// appended bits, this block the first of it; without (baseline) it is a
// plain EOB.
func (s *scanState) acGeneral(tab *huffman.Table, b *[64]int32, k, se int, al uint, maxK int, eobRuns bool) (int, error) {
	for k <= se {
		rs, err := tab.Decode(s.r)
		if err != nil {
			return maxK, err
		}
		r := int(rs >> 4)
		n := uint(rs & 0xF)
		if n == 0 {
			if r == 15 { // ZRL: sixteen zeros
				k += 16
				continue
			}
			if eobRuns {
				s.eobrun = 1 << uint(r)
				if r > 0 {
					bits, err := s.r.ReadBits(uint(r))
					if err != nil {
						return maxK, err
					}
					s.eobrun += int(bits)
				}
				s.eobrun-- // this block is the first of the run
			}
			return maxK, nil
		}
		k += r
		if k > se {
			if eobRuns {
				return maxK, fmt.Errorf("AC run overflows band (k=%d, Se=%d)", k, se)
			}
			return maxK, fmt.Errorf("AC run overflows block (k=%d)", k)
		}
		bits, err := s.r.ReadBits(n)
		if err != nil {
			return maxK, err
		}
		b[jfif.ZigZag[k]] = huffman.Extend(bits, n) << al
		maxK = k
		k++
	}
	return maxK, nil
}

// salvageResync absorbs a baseline entropy error (the caller has
// recorded it): resync at the next usable restart marker, zeroing the
// MCUs in between, or zero every remaining MCU as a tail loss. rowStart
// is the bit position where the failed row began: a landing past the
// row keeps len(BitsPerRow) == row, the failed row absorbing the bits
// consumed and skipped and the fully-lost rows in between costing zero;
// a landing within the row appends nothing (its entry lands when the row
// completes).
func (d *EntropyDecoder) salvageResync(rowStart int64) {
	errMCU := d.row*d.unitsPerRow + d.col
	land := d.resync(errMCU, d.rows*d.unitsPerRow)
	d.zeroMCUs(errMCU, land-errMCU)
	if newRow := land / d.unitsPerRow; newRow > d.row {
		d.BitsPerRow = append(d.BitsPerRow, d.bitPos()-rowStart)
		d.BitsPerRow = append(d.BitsPerRow, make([]int64, newRow-d.row-1)...)
		d.row = newRow
	}
	d.col = land % d.unitsPerRow
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
		for i := range d.blocks {
			b := &d.blocks[i]
			bi := b.index(u%d.unitsPerRow, u/d.unitsPerRow)
			clear(f.blockAt(b.c, bi))
			if nz := f.NZ[b.c]; nz != nil {
				nz[bi] = 1
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
