package jpegcodec

import (
	"errors"
	"fmt"
)

// Error-resilient decoding: the salvage layer. In strict mode (the
// default) any entropy error — a bad Huffman code, a coefficient run
// overflowing its block, an unexpected marker or end of input — aborts
// the decode. In salvage mode the entropy decoders instead resynchronize
// at the next restart marker (libjpeg's recovery discipline: the marker
// number, modulo 8, says how many restart intervals were lost), zero the
// MCUs the error swallowed, reset the DC predictors and EOB runs per
// T.81, and keep decoding — accumulating what happened in a
// SalvageReport so the caller gets a partial image *and* a precise
// account of what is missing, instead of nothing.
//
// Because every execution mode and the batch scheduler consume the
// coefficient state this one sequential decoder produces, salvage
// decisions made here yield byte-identical pixels everywhere; the
// fault-injection conformance harness asserts it.

// ErrPartialData marks a salvaged decode: pixels were produced, but
// part of the stream was lost to corruption or truncation. It is
// returned *alongside* a usable image (Decode gives both a Result and
// an error wrapping this sentinel). Check it with errors.Is to
// distinguish "degraded but displayable" from a total failure.
var ErrPartialData = errors.New("jpegcodec: partial image data")

// maxResyncSkip bounds how many restart intervals a resync may assume
// were lost when interpreting a found marker's number: the modulo-8
// numbering cannot distinguish a marker d intervals ahead from one 8-d
// intervals behind, so skips beyond this are treated as stale or
// duplicated markers and scanned past (losing at most one extra
// interval) rather than trusted.
const maxResyncSkip = 4

// DamagedRegion is one contiguous run of MCUs (raster order) whose
// coefficients were lost and zeroed — rendered as flat mid-gray.
type DamagedRegion struct {
	FirstMCU int
	NumMCU   int
}

// ScanError records one absorbed error. Scan is the entropy scan it
// occurred in: 0 for a baseline stream, the scan index for progressive
// streams, and -1 for a container-level (parse) error such as a
// truncated marker segment after the first decodable scan.
type ScanError struct {
	Scan int
	Err  error
}

// SalvageReport accounts for a salvage-mode decode. A report with no
// recorded errors means the stream decoded cleanly (Impaired reports
// false and the decode output is byte-identical to strict mode).
type SalvageReport struct {
	// TotalMCUs is the image's MCU count; RecoveredMCUs is how many
	// carry decoded (rather than zeroed or DC-missing) coefficients.
	TotalMCUs     int
	RecoveredMCUs int
	// Resyncs counts successful restart-marker resynchronizations.
	Resyncs int
	// Damaged lists the lost MCU runs, ascending and non-overlapping.
	// Progressive refinement losses do not appear here (prior-scan
	// coefficients are kept); only lost first-DC coverage counts.
	Damaged []DamagedRegion
	// Errors lists every absorbed error in the order encountered.
	Errors []ScanError

	firstErr error
}

// newSalvageReport returns a clean report for an image of totalMCUs.
func newSalvageReport(totalMCUs int) *SalvageReport {
	return &SalvageReport{TotalMCUs: totalMCUs, RecoveredMCUs: totalMCUs}
}

// Impaired reports whether any error was absorbed. When false, the
// decode took exactly the strict path and the output is identical.
func (r *SalvageReport) Impaired() bool { return r != nil && r.firstErr != nil }

// Err returns the ErrPartialData error summarizing the report, wrapping
// the first underlying error so errors.Is sees both sentinels; nil when
// the decode was clean.
func (r *SalvageReport) Err() error {
	if !r.Impaired() {
		return nil
	}
	return fmt.Errorf("%w: recovered %d of %d MCUs (%d resyncs): %w",
		ErrPartialData, r.RecoveredMCUs, r.TotalMCUs, r.Resyncs, r.firstErr)
}

// record absorbs one error into the report.
func (r *SalvageReport) record(scan int, err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.Errors = append(r.Errors, ScanError{Scan: scan, Err: err})
}

// addDamage marks MCUs [first, first+n) lost, keeping Damaged sorted,
// disjoint and merged (progressive scans can damage an earlier region
// after a later one, so insertion order is arbitrary) and RecoveredMCUs
// consistent with the merged coverage.
func (r *SalvageReport) addDamage(first, n int) {
	if n <= 0 {
		return
	}
	merged := make([]DamagedRegion, 0, len(r.Damaged)+1)
	appendRegion := func(a, b int) {
		if k := len(merged); k > 0 {
			prev := &merged[k-1]
			if a <= prev.FirstMCU+prev.NumMCU {
				if b > prev.FirstMCU+prev.NumMCU {
					prev.NumMCU = b - prev.FirstMCU
				}
				return
			}
		}
		merged = append(merged, DamagedRegion{FirstMCU: a, NumMCU: b - a})
	}
	placed := false
	for _, dr := range r.Damaged {
		if !placed && first < dr.FirstMCU {
			appendRegion(first, first+n)
			placed = true
		}
		appendRegion(dr.FirstMCU, dr.FirstMCU+dr.NumMCU)
	}
	if !placed {
		appendRegion(first, first+n)
	}
	r.Damaged = merged
	covered := 0
	for _, dr := range merged {
		covered += dr.NumMCU
	}
	r.RecoveredMCUs = r.TotalMCUs - covered
}

// DamagedMCUs returns the total MCU count across damaged regions.
func (r *SalvageReport) DamagedMCUs() int {
	s := 0
	for _, d := range r.Damaged {
		s += d.NumMCU
	}
	return s
}
