package jpegcodec

import (
	"errors"
	"testing"

	"hetjpeg/internal/faultgen"
	"hetjpeg/internal/jfif"
)

// FuzzSalvageDecode fuzzes the salvage path: any input must decode,
// partially decode with a structurally sound report, or fail with an
// error — never panic. Seeds are the fault-injection families
// (truncations, entropy bit flips, restart-marker mutations, corrupted
// segment lengths) over baseline and progressive fixtures, so mutation
// starts from the corruption shapes the resync machinery actually
// handles rather than from random bytes.
func FuzzSalvageDecode(f *testing.F) {
	img := testImage(40, 24, 7)
	for _, progressive := range []bool{false, true} {
		for _, ri := range []int{0, 3} {
			data, err := Encode(img, EncodeOptions{
				Quality: 80, Subsampling: jfif.Sub420,
				Progressive: progressive, RestartInterval: ri,
			})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			for _, ft := range faultgen.Truncations(data, len(data)/3, len(data)/7+1) {
				f.Add(ft.Data)
			}
			for _, span := range faultgen.EntropySpans(data) {
				for _, ft := range faultgen.BitFlips(data, span, 4, 99) {
					f.Add(ft.Data)
				}
				for _, ft := range faultgen.RSTMutations(data, span) {
					f.Add(ft.Data)
				}
			}
			for _, ft := range faultgen.LengthCorruptions(data) {
				f.Add(ft.Data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := jfif.ParseSalvage(data)
		if err != nil && im == nil {
			return
		}
		if im.Width*im.Height > 1<<20 {
			// Mutated dimension fields can demand GB-sized coefficient
			// buffers; decoding correctness is covered below that size.
			return
		}
		checkPathsAgree(t, "fuzz", data)
		out, rep, err := decodeSalvage(data)
		if out == nil {
			return
		}
		defer out.Release()
		if rep == nil {
			return // clean decode
		}
		// The report must stay structurally sound under arbitrary
		// corruption: coverage accounting exact, regions sorted and
		// disjoint, and the error chain anchored at ErrPartialData.
		covered, prevEnd := 0, -1
		for _, d := range rep.Damaged {
			if d.NumMCU <= 0 || d.FirstMCU < 0 || d.FirstMCU+d.NumMCU > rep.TotalMCUs {
				t.Fatalf("bad damaged region %+v (total %d)", d, rep.TotalMCUs)
			}
			if d.FirstMCU <= prevEnd {
				t.Fatalf("damaged regions unsorted/overlapping at %+v", d)
			}
			prevEnd = d.FirstMCU + d.NumMCU - 1
			covered += d.NumMCU
		}
		if rep.RecoveredMCUs+covered != rep.TotalMCUs {
			t.Fatalf("recovered %d + damaged %d != total %d", rep.RecoveredMCUs, covered, rep.TotalMCUs)
		}
		if !rep.Impaired() {
			t.Fatal("non-nil report from decodeSalvage must be impaired")
		}
		if !errors.Is(err, ErrPartialData) {
			t.Fatalf("impaired decode error %v does not wrap ErrPartialData", err)
		}
	})
}
