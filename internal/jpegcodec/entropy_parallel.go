package jpegcodec

import (
	"fmt"
	"sync"

	"hetjpeg/internal/bitstream"
	"hetjpeg/internal/huffman"
)

// Parallel entropy decoding across restart intervals. The paper treats
// Huffman decoding as strictly sequential because baseline JPEG gives no
// codeword boundaries — but when the encoder emitted restart markers
// (DRI), every restart segment starts byte-aligned with reset DC
// predictors and can be decoded independently (the direction of Klein &
// Wiseman [12], which the paper cites as inapplicable only because the
// JPEG standard does not *mandate* such markers). This is an extension
// beyond the paper: it lifts the Amdahl ceiling that its Figure 11
// measures against, at the cost of requiring cooperative encoders.

// restartSegment is one independently decodable run of MCUs.
type restartSegment struct {
	data     []byte // entropy bytes, marker excluded
	firstMCU int    // global index of its first MCU
	numMCU   int
}

// splitRestartSegments scans the entropy-coded data for RSTn markers.
// Inside entropy data, 0xFF is always followed by 0x00 (stuffing) or a
// marker byte, so the scan is unambiguous.
func splitRestartSegments(f *Frame) ([]restartSegment, error) {
	if f.Img.Progressive {
		return nil, fmt.Errorf("jpegcodec: parallel restart decoding applies to baseline scans only")
	}
	ri := f.Img.RestartInterval
	if ri <= 0 {
		return nil, fmt.Errorf("jpegcodec: stream has no restart interval")
	}
	data := f.Img.EntropyData
	totalMCU := f.MCUsPerRow * f.MCURows
	var segs []restartSegment
	start := 0
	firstMCU := 0
	for i := 0; i+1 < len(data); i++ {
		if data[i] != 0xFF {
			continue
		}
		nxt := data[i+1]
		if nxt == 0x00 {
			i++ // stuffed byte
			continue
		}
		if nxt >= 0xD0 && nxt <= 0xD7 {
			segs = append(segs, restartSegment{
				data:     data[start:i],
				firstMCU: firstMCU,
				numMCU:   ri,
			})
			firstMCU += ri
			start = i + 2
			i++
		}
	}
	if firstMCU >= totalMCU {
		return nil, fmt.Errorf("jpegcodec: restart markers cover %d MCUs, image has %d", firstMCU, totalMCU)
	}
	segs = append(segs, restartSegment{
		data:     data[start:],
		firstMCU: firstMCU,
		numMCU:   totalMCU - firstMCU,
	})
	return segs, nil
}

// DecodeAllParallelRestart entropy-decodes the whole frame using up to
// `workers` goroutines, one restart segment at a time. It fills the same
// whole-image coefficient buffer and the same per-MCU-row bit accounting
// as the sequential decoder (bits of rows spanning segment boundaries
// are summed across segments). The result is bit-identical to
// EntropyDecoder.DecodeAll.
func DecodeAllParallelRestart(f *Frame, workers int) ([]int64, error) {
	segs, err := splitRestartSegments(f)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(segs) {
		workers = len(segs)
	}

	bitsPerRow := make([]int64, f.MCURows)
	var mu sync.Mutex // guards bitsPerRow merging

	type job struct{ seg restartSegment }
	jobs := make(chan job)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			local := make([]int64, f.MCURows)
			for j := range jobs {
				if err := decodeSegment(f, j.seg, local); err != nil {
					errs <- err
					return
				}
			}
			mu.Lock()
			for i, b := range local {
				bitsPerRow[i] += b
			}
			mu.Unlock()
		}()
	}
	for _, s := range segs {
		jobs <- job{s}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	return bitsPerRow, nil
}

// decodeSegment decodes one restart segment's MCUs into the shared
// coefficient buffer (disjoint block ranges, so no synchronization is
// needed) and accumulates per-row bit counts into rowBits.
func decodeSegment(f *Frame, seg restartSegment, rowBits []int64) error {
	im := f.Img
	r := bitstream.NewReader(seg.data)
	dc := make([]int32, len(im.Components))
	tabs := make([]struct{ dc, ac *huffman.Table }, len(im.Components))
	for ci, comp := range im.Components {
		tabs[ci].dc = im.DCTables[comp.DCSel]
		tabs[ci].ac = im.ACTables[comp.ACSel]
		if tabs[ci].dc == nil || tabs[ci].ac == nil {
			return fmt.Errorf("jpegcodec: missing Huffman table for component %d", ci)
		}
	}
	d := &EntropyDecoder{f: f, r: r, dc: dc, dcOnly: f.DCOnly()}
	bitPos := func() int64 { return int64(r.BytePos())*8 - int64(r.BitsBuffered()) }

	for k := 0; k < seg.numMCU; k++ {
		mcu := seg.firstMCU + k
		my := mcu / f.MCUsPerRow
		mx := mcu % f.MCUsPerRow
		if my >= f.MCURows {
			return fmt.Errorf("jpegcodec: restart segment overruns image (MCU %d)", mcu)
		}
		start := bitPos()
		for ci, comp := range im.Components {
			for v := 0; v < comp.V; v++ {
				for h := 0; h < comp.H; h++ {
					blk := f.Block(ci, mx*comp.H+h, my*comp.V+v)
					maxK, err := d.decodeBlock(blk, ci, tabs[ci].dc, tabs[ci].ac)
					if err != nil {
						return fmt.Errorf("jpegcodec: segment MCU %d: %w", mcu, err)
					}
					if f.NZ[ci] != nil {
						// Disjoint block indices per segment: no races.
						bi := (my*comp.V+v)*f.Planes[ci].BlocksPerRow + mx*comp.H + h
						f.NZ[ci][bi] = uint8(maxK + 1)
					}
				}
			}
		}
		rowBits[my] += bitPos() - start
	}
	return nil
}
