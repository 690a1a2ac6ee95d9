package jpegcodec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hetjpeg/internal/jfif"
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
// Segments are cut with the marker scanner salvage resyncs with, and
// each is decoded by the baseline decoder's own per-MCU block walk
// (decodeMCU), one decoder per worker re-aimed at each segment; a
// corrupt segment fails the decode with the same error at any worker
// count.

// restartSegment is one independently decodable run of MCUs.
type restartSegment struct {
	data     []byte // entropy bytes, marker excluded
	firstMCU int    // global index of its first MCU
	numMCU   int
}

// splitRestartSegments cuts the entropy-coded data at its RSTn markers.
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
	// One segment per restart interval, and no more than the markers
	// the data can hold: the capacity never trusts the header alone.
	segs := make([]restartSegment, 0, min((totalMCU+ri-1)/ri, len(data)/2+1))
	start := 0
	firstMCU := 0
	for i := 0; ; i += 2 {
		var mk byte
		if i, mk = nextMarker(data, i); i < 0 {
			break
		}
		if isRST(mk) {
			segs = append(segs, restartSegment{data: data[start:i], firstMCU: firstMCU, numMCU: ri})
			firstMCU += ri
			start = i + 2
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
// EntropyDecoder.DecodeAll. Workers claim segments in index order and
// stop claiming after the first failure, so every segment below a
// failing one is decoded and the error returned is the lowest-index
// failing segment's, whatever the worker count.
func DecodeAllParallelRestart(f *Frame, workers int) ([]int64, error) {
	segs, err := splitRestartSegments(f)
	if err != nil {
		return nil, err
	}
	comps := baselineComps(f.Img)
	for ci, c := range comps {
		if c.DC == nil || c.AC == nil {
			return nil, fmt.Errorf("jpegcodec: missing Huffman table for component %d", ci)
		}
	}
	workers = min(max(workers, 1), len(segs))

	bitsPerRow := make([]int64, f.MCURows)
	errs := make([]error, len(segs))
	var (
		next   atomic.Int64 // the next segment to claim
		failed atomic.Bool
		mu     sync.Mutex // guards bitsPerRow merging
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			local := make([]int64, f.MCURows)
			d := &EntropyDecoder{scanState: scanState{f: f}, dcOnly: f.DCOnly()}
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(segs) {
					break
				}
				if errs[i] = d.decodeSegment(comps, segs[i], local); errs[i] != nil {
					failed.Store(true)
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
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bitsPerRow, nil
}

// decodeSegment decodes one restart segment's MCUs into the shared
// coefficient buffer (disjoint block ranges, so no synchronization is
// needed) and accumulates per-row bit counts into rowBits. Each worker
// keeps one decoder and re-aims it at every segment it claims.
func (d *EntropyDecoder) decodeSegment(comps []jfif.ScanComponent, seg restartSegment, rowBits []int64) error {
	f := d.f
	d.begin(seg.data, 0, comps, true)
	for mcu := seg.firstMCU; mcu < seg.firstMCU+seg.numMCU; mcu++ {
		my := mcu / f.MCUsPerRow
		start := d.bitPos()
		if err := d.decodeMCU(mcu%f.MCUsPerRow, my); err != nil {
			return fmt.Errorf("jpegcodec: segment MCU %d: %w", mcu, err)
		}
		rowBits[my] += d.bitPos() - start
	}
	return nil
}
