package jpegcodec

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"hetjpeg/internal/faultgen"
	"hetjpeg/internal/jfif"
)

// The entropy stage has two paths through every block: the probe loops
// and the general path behind them (Table.Decode + Reader.ReadBits).
// The tests in this file decode one stream both ways and require the
// same coefficients, sparsity watermarks, per-row bit counts, error text
// and salvage report. The streams mirror the conformance corpus (every
// subsampling, with and without restart intervals, partial and aligned
// MCU grids, Annex-K and optimised tables, every progressive script) and
// the fault-injection families over them; the corpus itself lives in a
// package that imports this one.

// entropyOutcome is everything the entropy stage hands to later stages.
type entropyOutcome struct {
	coeff      [][]int32
	nz         [][]uint8
	bitsPerRow []int64
	err        string
	report     string
}

func describeReport(rep *SalvageReport) string {
	if rep == nil {
		return "<nil>"
	}
	s := fmt.Sprintf("total %d recovered %d resyncs %d damaged %v", rep.TotalMCUs, rep.RecoveredMCUs, rep.Resyncs, rep.Damaged)
	for _, e := range rep.Errors {
		s += fmt.Sprintf(" | scan %d: %v", e.Scan, e.Err)
	}
	return s
}

// entropyDecode runs the entropy stage alone. ok is false when the
// stream fails before it (parse errors do not depend on the path).
func entropyDecode(data []byte, scale Scale, salvage, generalOnly bool) (out entropyOutcome, ok bool) {
	d, err := Open(data, Options{Scale: scale, Salvage: salvage})
	if err != nil {
		return entropyOutcome{}, false
	}
	f, ed := d.f, d.ed
	defer f.Release()
	if !f.Img.Progressive {
		// The stage owns its zeroing: hand it dirty buffers, whatever the
		// pool did. (Progressive slabs are cleared by newFrame.)
		for c := range f.Coeff {
			for i := range f.Coeff[c] {
				f.Coeff[c][i] = 0x5A5A5A5A
			}
			for i := range f.NZ[c] {
				f.NZ[c][i] = 0x5A
			}
		}
	}
	ed.generalOnly = generalOnly
	if ed.prog != nil {
		ed.prog.generalOnly = generalOnly
	}
	if err := ed.DecodeAll(); err != nil {
		out.err = err.Error()
	}
	for c := range f.Coeff {
		out.coeff = append(out.coeff, append([]int32(nil), f.Coeff[c]...))
		out.nz = append(out.nz, append([]uint8(nil), f.NZ[c]...))
	}
	out.bitsPerRow = append([]int64(nil), ed.BitsPerRow...)
	out.report = describeReport(d.SalvageReport())
	return out, true
}

// checkPathsAgree decodes data through the probe loops and through the
// general path alone, strict and salvage, at scales 1 and 1/8.
func checkPathsAgree(t *testing.T, name string, data []byte) {
	t.Helper()
	for _, scale := range []Scale{Scale1, Scale8} {
		for _, salvage := range []bool{false, true} {
			probe, ok := entropyDecode(data, scale, salvage, false)
			general, okG := entropyDecode(data, scale, salvage, true)
			if ok != okG {
				t.Fatalf("%s scale 1/%d salvage %v: prepared %v with probes, %v without", name, scale.Denominator(), salvage, ok, okG)
			}
			if !ok {
				continue
			}
			where := fmt.Sprintf("%s scale 1/%d salvage %v", name, scale.Denominator(), salvage)
			if probe.err != general.err {
				t.Fatalf("%s: error %q, general path %q", where, probe.err, general.err)
			}
			if probe.report != general.report {
				t.Fatalf("%s: report\n%s\ngeneral path\n%s", where, probe.report, general.report)
			}
			if !reflect.DeepEqual(probe.bitsPerRow, general.bitsPerRow) {
				t.Fatalf("%s: BitsPerRow %v, general path %v", where, probe.bitsPerRow, general.bitsPerRow)
			}
			if !reflect.DeepEqual(probe.nz, general.nz) {
				t.Fatalf("%s: NZ differs from the general path", where)
			}
			if probe.err != "" && !salvage {
				// A strict decode that failed leaves the blocks past the
				// error unowned; what was decoded is covered by the salvage
				// pass, which zeroes the rest.
				continue
			}
			for c := range probe.coeff {
				if slices.Equal(probe.coeff[c], general.coeff[c]) {
					continue
				}
				for i, v := range probe.coeff[c] {
					if v != general.coeff[c][i] {
						t.Fatalf("%s: component %d coefficient %d: %d, general path %d", where, c, i, v, general.coeff[c][i])
					}
				}
			}
		}
	}
}

type diffStream struct {
	name string
	data []byte
}

// diffStreams builds the clean streams of the differential corpus.
func diffStreams(t testing.TB) []diffStream {
	t.Helper()
	var out []diffStream
	add := func(name string, img *RGBImage, o EncodeOptions) {
		data, err := Encode(img, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, diffStream{name, data})
	}
	sizes := [][2]int{{97, 75}, {160, 128}}
	for si, wh := range sizes {
		imgs := []*RGBImage{makeTestImage(wh[0], wh[1], int64(3+si)), makeNoisyImage(wh[0], wh[1], int64(11+si))}
		for di, img := range imgs {
			for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
				for _, ri := range []int{0, 5} {
					for _, opt := range []bool{false, true} {
						// Quality 97 on noise gives 9..11-bit magnitudes and
						// codes past the LUT index; 85 is the corpus default.
						q := 85 + 12*di
						add(fmt.Sprintf("base-%v-rst%d-opt%v-img%d-%dx%d", sub, ri, opt, di, wh[0], wh[1]), img,
							EncodeOptions{Quality: q, Subsampling: sub, RestartInterval: ri, OptimizeHuffman: opt})
					}
				}
			}
			for _, ns := range Scripts() {
				for _, ri := range []int{0, 4} {
					add(fmt.Sprintf("prog-%s-rst%d-img%d-%dx%d", ns.Name, ri, di, wh[0], wh[1]), img,
						EncodeOptions{Quality: 85 + 10*di, Subsampling: jfif.Sub420, Progressive: true, Script: ns.Build(), RestartInterval: ri})
				}
			}
			img.Release()
		}
	}
	return out
}

// wideRefineStreams builds q100 noise under the deep successive
// approximation script: dense blocks whose refinement scans owe more
// than 32 correction bits, which the mask walk reads in several
// window reads. They stay out of diffStreams, so the entropy golden
// pins the corpus it always has.
func wideRefineStreams(t testing.TB) []diffStream {
	t.Helper()
	var out []diffStream
	img := makeNoisyImage(48, 40, 17)
	defer img.Release()
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub420} {
		for _, ri := range []int{0, 3} {
			data, err := Encode(img, EncodeOptions{Quality: 100, Subsampling: sub, Progressive: true, Script: ScriptDeepSA(), RestartInterval: ri})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, diffStream{fmt.Sprintf("deepsa-q100-%v-rst%d", sub, ri), data})
		}
	}
	return out
}

func TestEntropyPathsAgreeClean(t *testing.T) {
	for _, s := range append(diffStreams(t), wideRefineStreams(t)...) {
		checkPathsAgree(t, s.name, s.data)
	}
}

// TestEntropyPathsAgreeFaults applies the fault-injection families of
// the conformance gate to the restart and no-restart fixtures, baseline
// and progressive.
func TestEntropyPathsAgreeFaults(t *testing.T) {
	// Every byte is TestEntropyTruncationSweep's job; this family
	// samples the second half of the stream. -short thins every family,
	// keeping at least one fault of each per fixture and entropy span;
	// the full corpus runs without it.
	stride, sample := 7, 1
	if testing.Short() {
		stride, sample = 29, 4
	}
	for _, s := range faultStreams(t, stride, sample) {
		checkPathsAgree(t, s.name, s.data)
	}
}

// faultStreams builds the fault-injection families over the restart and
// no-restart fixtures, baseline and progressive, cutting the second half
// of each stream at every stride'th byte. The bit-flip, restart-marker
// and length families keep every sample'th fault of each fixture and
// entropy span, starting with the first; sample 4 walks the three
// restart-marker variants and the two length variants in turn.
func faultStreams(t testing.TB, stride, sample int) []diffStream {
	t.Helper()
	img := makeNoisyImage(96, 80, 5)
	defer img.Release()
	var out []diffStream
	for _, c := range []struct {
		name        string
		sub         jfif.Subsampling
		ri          int
		progressive bool
	}{
		{"base-rst4", jfif.Sub420, 4, false},
		{"base-norst", jfif.Sub444, 0, false},
		{"prog-rst4", jfif.Sub420, 4, true},
		{"prog-norst", jfif.Sub422, 0, true},
	} {
		data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: c.sub, RestartInterval: c.ri, Progressive: c.progressive})
		if err != nil {
			t.Fatal(err)
		}
		keep := func(fs []faultgen.Fault) []faultgen.Fault {
			var out []faultgen.Fault
			for i := 0; i < len(fs); i += sample {
				out = append(out, fs[i])
			}
			return out
		}
		faults := faultgen.Truncations(data, len(data)/2, stride)
		for _, span := range faultgen.EntropySpans(data) {
			faults = append(faults, keep(faultgen.BitFlips(data, span, 24, 4242))...)
			faults = append(faults, keep(faultgen.RSTMutations(data, span))...)
		}
		faults = append(faults, keep(faultgen.LengthCorruptions(data))...)
		faults = append(faults, badDCCategories(data)...)
		for _, ft := range faults {
			out = append(out, diffStream{c.name + "/" + ft.Name, ft.Data})
		}
	}
	return out
}

// badDCCategories rewrites, one at a time, each symbol of the stream's
// first DC table into a category above 15: a symbol only the general
// path may turn into its error.
func badDCCategories(data []byte) []faultgen.Fault {
	var out []faultgen.Fault
	for i := 2; i+4 < len(data) && data[i] == 0xFF && data[i+1] != 0xDA; i += 2 + int(data[i+2])<<8 + int(data[i+3]) {
		if data[i+1] != 0xC4 || data[i+4]>>4 != 0 {
			continue
		}
		n := 0
		for _, c := range data[i+5 : i+21] {
			n += int(c)
		}
		for v := 0; v < n; v++ {
			d := append([]byte(nil), data...)
			d[i+21+v] |= 0x10
			out = append(out, faultgen.Fault{Name: fmt.Sprintf("dc-category-%d", v), Data: d})
		}
		break
	}
	return out
}

// TestEntropyTruncationSweep cuts one dense stream at every length over
// its last 64 bytes and across a restart marker, so the 32-bit refill
// meets the end of data, a pending marker and marker padding at every
// alignment.
func TestEntropyTruncationSweep(t *testing.T) {
	for _, s := range truncationStreams(t) {
		checkPathsAgree(t, s.name, s.data)
	}
}

// truncationStreams builds TestEntropyTruncationSweep's cuts, in
// ascending order, each also with the stream's own EOI appended: the
// entropy data then ends at a marker instead of at the end of input.
func truncationStreams(t testing.TB) []diffStream {
	t.Helper()
	img := makeNoisyImage(64, 48, 21)
	defer img.Release()
	data, err := Encode(img, EncodeOptions{Quality: 95, Subsampling: jfif.Sub444, RestartInterval: 3})
	if err != nil {
		t.Fatal(err)
	}
	span := faultgen.EntropySpans(data)[0]
	rst := -1
	for i := (span.Start + span.End) / 2; i+1 < span.End; i++ {
		if data[i] == 0xFF && data[i+1] >= 0xD0 && data[i+1] <= 0xD7 {
			rst = i
			break
		}
	}
	if rst < 0 {
		t.Fatal("no restart marker in the second half of the scan")
	}
	cuts := map[int]bool{}
	for n := len(data) - 64; n <= len(data); n++ {
		cuts[n] = true
	}
	for n := rst - 24; n <= rst+24; n++ {
		cuts[n] = true
	}
	var out []diffStream
	for _, n := range slices.Sorted(maps.Keys(cuts)) {
		out = append(out,
			diffStream{fmt.Sprintf("cut-%d", n), data[:n]},
			diffStream{fmt.Sprintf("cut-%d+EOI", n), append(append([]byte(nil), data[:n]...), 0xFF, 0xD9)})
	}
	return out
}
