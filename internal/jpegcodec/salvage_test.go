package jpegcodec

import (
	"bytes"
	"errors"
	"testing"

	"hetjpeg/internal/jfif"
)

// Unit tests for the salvage layer: report bookkeeping, clean-stream
// equivalence with strict mode, and recovery behavior under truncation
// and restart-marker damage. The cross-mode/scheduler identity of
// salvaged output is asserted by the fault-injection conformance
// harness (internal/conformance).

func checkReportInvariants(t *testing.T, rep *SalvageReport) {
	t.Helper()
	if rep == nil {
		return
	}
	if rep.RecoveredMCUs+rep.DamagedMCUs() != rep.TotalMCUs {
		t.Fatalf("recovered %d + damaged %d != total %d",
			rep.RecoveredMCUs, rep.DamagedMCUs(), rep.TotalMCUs)
	}
	prevEnd := -1
	for _, dr := range rep.Damaged {
		if dr.NumMCU <= 0 {
			t.Fatalf("empty damaged region %+v", dr)
		}
		if dr.FirstMCU <= prevEnd {
			t.Fatalf("damaged regions not sorted/disjoint: %+v", rep.Damaged)
		}
		if dr.FirstMCU+dr.NumMCU > rep.TotalMCUs {
			t.Fatalf("damaged region %+v exceeds total %d", dr, rep.TotalMCUs)
		}
		prevEnd = dr.FirstMCU + dr.NumMCU
	}
	if rep.Impaired() {
		if len(rep.Errors) == 0 {
			t.Fatal("impaired report with no recorded errors")
		}
		if !errors.Is(rep.Err(), ErrPartialData) {
			t.Fatalf("errors.Is(rep.Err(), ErrPartialData) = false: %v", rep.Err())
		}
	} else if rep.Err() != nil {
		t.Fatalf("clean report returned error %v", rep.Err())
	}
}

func TestAddDamageMerge(t *testing.T) {
	rep := newSalvageReport(100)
	rep.addDamage(50, 10) // [50,60)
	rep.addDamage(10, 5)  // out-of-order earlier region
	rep.addDamage(58, 7)  // overlaps [50,60) -> [50,65)
	rep.addDamage(15, 3)  // touches [10,15) -> [10,18)
	rep.addDamage(52, 3)  // fully inside
	want := []DamagedRegion{{10, 8}, {50, 15}}
	if len(rep.Damaged) != len(want) {
		t.Fatalf("Damaged = %+v, want %+v", rep.Damaged, want)
	}
	for i := range want {
		if rep.Damaged[i] != want[i] {
			t.Fatalf("Damaged = %+v, want %+v", rep.Damaged, want)
		}
	}
	if rep.RecoveredMCUs != 100-23 {
		t.Fatalf("RecoveredMCUs = %d, want %d", rep.RecoveredMCUs, 100-23)
	}
}

// TestSalvageCleanStreamIdentical: on an undamaged stream, salvage mode
// must take exactly the strict path — byte-identical pixels, nil report.
func TestSalvageCleanStreamIdentical(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, ri := range []int{0, 4} {
			for _, prog := range []bool{false, true} {
				img := testImage(121, 87, 11)
				data, err := Encode(img, EncodeOptions{Quality: 80, Subsampling: sub, RestartInterval: ri, Progressive: prog})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := DecodeScalar(data)
				if err != nil {
					t.Fatal(err)
				}
				got, rep, serr := decodeSalvage(data)
				if serr != nil || rep != nil {
					t.Fatalf("%v/ri%d/prog=%v: clean stream salvage: rep=%v err=%v", sub, ri, prog, rep, serr)
				}
				if !bytes.Equal(ref.Pix, got.Pix) {
					t.Fatalf("%v/ri%d/prog=%v: salvage pixels differ from strict on clean stream", sub, ri, prog)
				}
			}
		}
	}
}

// TestSalvageTruncatedBaselineMonotonic truncates a restart-interval
// baseline stream at every 7th byte: salvage must always yield an image
// plus ErrPartialData, strict must fail, and the recovered-MCU count
// must be non-decreasing in the cut point.
func TestSalvageTruncatedBaselineMonotonic(t *testing.T) {
	img := testImage(160, 128, 3)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, RestartInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	im, err := jfif.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	entStart := bytes.Index(data, im.EntropyData)
	if entStart < 0 {
		t.Fatal("entropy data not found in stream")
	}
	prevRecovered := -1
	for cut := entStart + 1; cut < len(data)-2; cut += 7 {
		trunc := data[:cut]
		if _, err := DecodeScalar(trunc); err == nil {
			t.Fatalf("cut %d: strict decode of truncated stream succeeded", cut)
		}
		got, rep, serr := decodeSalvage(trunc)
		if got == nil {
			t.Fatalf("cut %d: salvage returned no image: %v", cut, serr)
		}
		if rep == nil || !errors.Is(serr, ErrPartialData) {
			t.Fatalf("cut %d: salvage of truncated stream not impaired (rep=%v err=%v)", cut, rep, serr)
		}
		checkReportInvariants(t, rep)
		if rep.RecoveredMCUs < prevRecovered {
			t.Fatalf("cut %d: recovered %d < %d at earlier cut — not monotonic", cut, rep.RecoveredMCUs, prevRecovered)
		}
		prevRecovered = rep.RecoveredMCUs
	}
	if prevRecovered <= 0 {
		t.Fatal("no MCUs ever recovered from truncated streams")
	}
}

// TestSalvageTruncatedNoRestart: without restart markers nothing after
// the error is recoverable — tail loss, but still image + report.
func TestSalvageTruncatedNoRestart(t *testing.T) {
	img := testImage(97, 75, 5)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	trunc := data[:len(data)/2]
	got, rep, serr := decodeSalvage(trunc)
	if got == nil || rep == nil || !errors.Is(serr, ErrPartialData) {
		t.Fatalf("salvage of half stream: img=%v rep=%v err=%v", got != nil, rep, serr)
	}
	checkReportInvariants(t, rep)
	if rep.Resyncs != 0 {
		t.Fatalf("Resyncs = %d without restart markers", rep.Resyncs)
	}
	if rep.RecoveredMCUs == 0 || rep.RecoveredMCUs == rep.TotalMCUs {
		t.Fatalf("RecoveredMCUs = %d of %d, want a proper partial recovery", rep.RecoveredMCUs, rep.TotalMCUs)
	}
	// The damage must be one suffix region.
	if len(rep.Damaged) != 1 || rep.Damaged[0].FirstMCU+rep.Damaged[0].NumMCU != rep.TotalMCUs {
		t.Fatalf("Damaged = %+v, want one suffix region", rep.Damaged)
	}
}

// mutateRestartMarker finds the n'th RSTn marker in the entropy segment
// and applies f to the stream copy at its offset.
func mutateRestartMarker(t *testing.T, data []byte, skip int, f func(data []byte, i int) []byte) []byte {
	t.Helper()
	im, err := jfif.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	entStart := bytes.Index(data, im.EntropyData)
	seen := 0
	for i := entStart; i+1 < entStart+len(im.EntropyData); i++ {
		if data[i] != 0xFF {
			continue
		}
		b := data[i+1]
		if b == 0x00 {
			i++
			continue
		}
		if b >= 0xD0 && b <= 0xD7 {
			if seen == skip {
				out := append([]byte(nil), data...)
				return f(out, i)
			}
			seen++
			i++
		}
	}
	t.Fatalf("restart marker %d not found", skip)
	return nil
}

// TestSalvageDroppedRestartMarker removes one RSTn: the decoder loses at
// most the two adjacent intervals and resyncs via marker numbering.
func TestSalvageDroppedRestartMarker(t *testing.T) {
	img := testImage(160, 128, 9)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, RestartInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	mut := mutateRestartMarker(t, data, 3, func(d []byte, i int) []byte {
		return append(d[:i:i], d[i+2:]...)
	})
	got, rep, serr := decodeSalvage(mut)
	if got == nil || rep == nil || !errors.Is(serr, ErrPartialData) {
		t.Fatalf("dropped-RST salvage: img=%v rep=%v err=%v", got != nil, rep, serr)
	}
	checkReportInvariants(t, rep)
	if lost := rep.TotalMCUs - rep.RecoveredMCUs; lost > 3*4 {
		t.Fatalf("dropped restart marker lost %d MCUs, want <= 3 intervals", lost)
	}
	if rep.Resyncs == 0 {
		t.Fatal("dropped restart marker recovered without a resync")
	}
}

// TestSalvageDuplicatedRestartMarker duplicates one RSTn: the repeated
// marker number is out of sequence, detected, and resynced past.
func TestSalvageDuplicatedRestartMarker(t *testing.T) {
	img := testImage(160, 128, 9)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, RestartInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	mut := mutateRestartMarker(t, data, 3, func(d []byte, i int) []byte {
		dup := []byte{d[i], d[i+1]}
		return append(d[:i+2:i+2], append(dup, d[i+2:]...)...)
	})
	got, rep, serr := decodeSalvage(mut)
	if got == nil {
		t.Fatalf("duplicated-RST salvage returned no image: %v", serr)
	}
	if rep == nil || !errors.Is(serr, ErrPartialData) {
		t.Fatalf("duplicated RST went undetected (rep=%v err=%v)", rep, serr)
	}
	checkReportInvariants(t, rep)
	if lost := rep.TotalMCUs - rep.RecoveredMCUs; lost > 3*4 {
		t.Fatalf("duplicated restart marker lost %d MCUs, want <= 3 intervals", lost)
	}
}

// TestSalvageProgressiveTruncation cuts a progressive stream mid-scan:
// completed scans survive, the partial scan salvages or abandons, and
// the result is image + report, never a bare failure.
func TestSalvageProgressiveTruncation(t *testing.T) {
	img := testImage(121, 87, 13)
	for _, ri := range []int{0, 4} {
		data, err := Encode(img, EncodeOptions{Quality: 80, Subsampling: jfif.Sub420, Progressive: true, RestartInterval: ri})
		if err != nil {
			t.Fatal(err)
		}
		im, err := jfif.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		// Cut inside the middle scan's data.
		mid := im.Scans[len(im.Scans)/2]
		off := bytes.Index(data, mid.Data)
		if off < 0 || len(mid.Data) < 4 {
			t.Fatalf("ri%d: cannot locate middle scan", ri)
		}
		trunc := data[:off+len(mid.Data)/2]
		got, rep, serr := decodeSalvage(trunc)
		if got == nil || rep == nil || !errors.Is(serr, ErrPartialData) {
			t.Fatalf("ri%d: progressive salvage: img=%v rep=%v err=%v", ri, got != nil, rep, serr)
		}
		checkReportInvariants(t, rep)
		// The DC scan completed before the cut, so most coverage remains.
		if rep.RecoveredMCUs == 0 {
			t.Fatalf("ri%d: progressive salvage recovered nothing", ri)
		}
		// The container-level truncation error is recorded at scan -1.
		foundParse := false
		for _, se := range rep.Errors {
			if se.Scan == -1 {
				foundParse = true
			}
		}
		if !foundParse {
			t.Fatalf("ri%d: no container-level error recorded: %+v", ri, rep.Errors)
		}
	}
}

// TestSalvageUnsupportedStillFatal: ErrUnsupported is out of scope, not
// corruption; salvage must not mask it.
func TestSalvageUnsupportedStillFatal(t *testing.T) {
	img := testImage(64, 48, 1)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub444})
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte{0xFF, 0xC0})
	if i < 0 {
		t.Fatal("no SOF0")
	}
	data[i+4] = 12 // 12-bit precision
	_, rep, serr := decodeSalvage(data)
	if rep != nil || !errors.Is(serr, jfif.ErrUnsupported) {
		t.Fatalf("salvage of unsupported stream: rep=%v err=%v, want fatal ErrUnsupported", rep, serr)
	}
}
