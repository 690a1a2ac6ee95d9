package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hetjpeg/internal/batch"
	"hetjpeg/internal/core"
	"hetjpeg/internal/faultgen"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
)

// The fault-injection gate: systematically corrupted streams must never
// panic, strict-mode behavior must be unchanged (an error, exactly as
// before), and salvage mode must recover what the committed per-fixture
// floors promise — with every execution mode and the batch scheduler
// producing byte-identical salvaged pixels.
//
// The invariant linking the two modes is deliberately one-directional:
// a strict error implies an impaired (or failed) salvage, and a clean
// salvage implies a clean strict decode with identical pixels. The
// converse does not hold — salvage's resynchronization cross-checks
// restart-marker numbering that strict decoding trusts, so salvage can
// flag corruption strict mode silently mangles through.

// faultFixture is one stream the fault families are applied to.
type faultFixture struct {
	name string
	data []byte
	// truncFloor is the committed minimum recovered-MCU fraction for
	// truncations in the last quarter of the stream.
	truncFloor float64
}

var (
	faultOnce     sync.Once
	faultFixtures []faultFixture
	faultErr      error
)

// fixtures builds the fault corpus: baseline with and without restart
// markers plus progressive with both, small enough that the every-byte
// truncation sweep stays fast.
func fixtures(t *testing.T) []faultFixture {
	t.Helper()
	faultOnce.Do(func() {
		type cfg struct {
			name        string
			sub         jfif.Subsampling
			ri          int
			progressive bool
			truncFloor  float64
		}
		// The floors are measured minima minus slack: regressions that
		// lose recovery show up as a floor breach, improvements don't.
		// Measured minima on the deterministic fixtures: 0.633, 0.658,
		// 1.000, 1.000 (the progressive DC scan sits early in the
		// stream, so late cuts cost refinement only).
		for _, c := range []cfg{
			{"base-rst4", jfif.Sub420, 4, false, 0.55},
			{"base-norst", jfif.Sub444, 0, false, 0.55},
			{"prog-rst4", jfif.Sub420, 4, true, 0.95},
			{"prog-norst", jfif.Sub422, 0, true, 0.95},
		} {
			img := imagegen.Generate(imagegen.Scene{Seed: 8200 + int64(c.ri), Detail: 0.6}, 96, 80)
			data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{
				Quality:         85,
				Subsampling:     c.sub,
				RestartInterval: c.ri,
				Progressive:     c.progressive,
			})
			img.Release()
			if err != nil {
				faultErr = err
				return
			}
			faultFixtures = append(faultFixtures, faultFixture{
				name: c.name, data: data, truncFloor: c.truncFloor,
			})
		}
	})
	if faultErr != nil {
		t.Fatalf("building fault fixtures: %v", faultErr)
	}
	return faultFixtures
}

// checkReport asserts the structural invariants of a salvage report.
func checkReport(t *testing.T, name string, rep *jpegcodec.SalvageReport) {
	t.Helper()
	if rep == nil {
		return
	}
	covered := 0
	prevEnd := -1
	for _, d := range rep.Damaged {
		if d.NumMCU <= 0 || d.FirstMCU < 0 || d.FirstMCU+d.NumMCU > rep.TotalMCUs {
			t.Fatalf("%s: bad damaged region %+v (total %d)", name, d, rep.TotalMCUs)
		}
		if d.FirstMCU <= prevEnd {
			t.Fatalf("%s: damaged regions unsorted or overlapping at %+v", name, d)
		}
		prevEnd = d.FirstMCU + d.NumMCU - 1
		covered += d.NumMCU
	}
	if rep.RecoveredMCUs+covered != rep.TotalMCUs {
		t.Fatalf("%s: recovered %d + damaged %d != total %d",
			name, rep.RecoveredMCUs, covered, rep.TotalMCUs)
	}
	if rep.Impaired() {
		if len(rep.Errors) == 0 {
			t.Fatalf("%s: impaired report with no recorded errors", name)
		}
		if !errors.Is(rep.Err(), jpegcodec.ErrPartialData) {
			t.Fatalf("%s: report error does not wrap ErrPartialData: %v", name, rep.Err())
		}
	}
}

// salvageRef is the scalar salvage reference, Open with Salvage and
// Run(1): the image (nil if nothing was salvageable), the report when
// the stream was impaired (nil for a clean one) and the error.
func salvageRef(data []byte) (*jpegcodec.RGBImage, *jpegcodec.SalvageReport, error) {
	d, err := jpegcodec.Open(data, jpegcodec.Options{Salvage: true})
	if err != nil {
		return nil, nil, err
	}
	img, err := d.Run(1)
	if rep := d.SalvageReport(); img != nil && rep.Impaired() {
		return img, rep, err
	}
	return img, nil, err
}

// salvageOutcome decodes one corrupted variant in both modes and
// asserts the cross-mode invariant. It returns the salvage image (nil
// if nothing was salvageable) and report; the caller releases the
// image.
func salvageOutcome(t *testing.T, name string, data []byte) (*jpegcodec.RGBImage, *jpegcodec.SalvageReport) {
	t.Helper()
	strictImg, strictErr := jpegcodec.DecodeScalar(data)
	img, rep, err := salvageRef(data)
	checkReport(t, name, rep)
	if img != nil && rep == nil {
		// Salvage saw a clean stream: strict must agree, byte for byte.
		if strictErr != nil {
			t.Fatalf("%s: salvage clean but strict failed: %v", name, strictErr)
		}
		if !bytes.Equal(img.Pix, strictImg.Pix) {
			t.Fatalf("%s: clean salvage pixels differ from strict", name)
		}
	}
	if strictErr != nil && img != nil && !rep.Impaired() {
		t.Fatalf("%s: strict failed (%v) but salvage reports an unimpaired decode", name, strictErr)
	}
	if err != nil && img != nil && !errors.Is(err, jpegcodec.ErrPartialData) {
		t.Fatalf("%s: salvage returned image with non-partial error: %v", name, err)
	}
	if strictImg != nil {
		strictImg.Release()
	}
	return img, rep
}

// TestFaultTruncationSweep truncates each fixture at every byte (a
// stride in -short mode) and asserts: no panic, the salvage invariants,
// recovery monotonic in the cut point, and the committed floor for cuts
// in the last quarter of the stream.
func TestFaultTruncationSweep(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 17
	}
	for _, fx := range fixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			spans := faultgen.EntropySpans(fx.data)
			lastSpanEnd := spans[len(spans)-1].End
			prevRecovered := 0
			minLate := 1.0
			for _, f := range faultgen.Truncations(fx.data, 2, stride) {
				img, rep := salvageOutcome(t, f.Name, f.Data)
				if img != nil && rep == nil {
					// A cut past the last entropy byte only loses trailer
					// markers; the decode is legitimately clean (recovery
					// 1.0, trivially monotonic — truncation cuts only grow).
					if len(f.Data) < lastSpanEnd {
						t.Fatalf("%s: mid-entropy truncation salvaged as clean", f.Name)
					}
					img.Release()
					continue
				}
				recovered, total := 0, 0
				if img != nil {
					recovered, total = rep.RecoveredMCUs, rep.TotalMCUs
					img.Release()
				}
				if recovered < prevRecovered {
					t.Fatalf("%s: recovery not monotonic: %d MCUs after %d at the previous cut",
						f.Name, recovered, prevRecovered)
				}
				prevRecovered = recovered
				if total > 0 && len(f.Data) >= len(fx.data)*3/4 {
					if frac := float64(recovered) / float64(total); frac < minLate {
						minLate = frac
					}
				}
			}
			t.Logf("%s: min late-cut recovery %.3f (floor %.2f)", fx.name, minLate, fx.truncFloor)
			if minLate < fx.truncFloor {
				t.Errorf("%s: late-cut recovery %.3f below committed floor %.2f",
					fx.name, minLate, fx.truncFloor)
			}
		})
	}
}

// TestFaultBitFlips flips bits at deterministic positions inside every
// entropy span and asserts the no-panic and cross-mode invariants.
func TestFaultBitFlips(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 12
	}
	for _, fx := range fixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			spans := faultgen.EntropySpans(fx.data)
			if len(spans) == 0 {
				t.Fatalf("no entropy spans found")
			}
			for si, span := range spans {
				for _, f := range faultgen.BitFlips(fx.data, span, n/len(spans)+1, uint64(si)*977+13) {
					name := fmt.Sprintf("span%d-%s", si, f.Name)
					img, _ := salvageOutcome(t, name, f.Data)
					if img != nil {
						img.Release()
					}
				}
			}
		})
	}
}

// TestFaultRSTMutations drops, duplicates and renumbers every restart
// marker. These are structural faults salvage must always produce an
// image for: the entropy bytes themselves are intact.
func TestFaultRSTMutations(t *testing.T) {
	for _, fx := range fixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			var faults []faultgen.Fault
			for _, span := range faultgen.EntropySpans(fx.data) {
				faults = append(faults, faultgen.RSTMutations(fx.data, span)...)
			}
			if len(faults) == 0 {
				t.Skipf("fixture has no restart markers")
			}
			for _, f := range faults {
				img, rep := salvageOutcome(t, f.Name, f.Data)
				if img == nil {
					t.Fatalf("%s: salvage produced no image for a marker-structure fault", f.Name)
				}
				if rep != nil && rep.TotalMCUs > 0 && rep.RecoveredMCUs*2 < rep.TotalMCUs {
					t.Errorf("%s: a single marker fault lost %d of %d MCUs",
						f.Name, rep.TotalMCUs-rep.RecoveredMCUs, rep.TotalMCUs)
				}
				img.Release()
			}
		})
	}
}

// TestFaultLengthCorruptions corrupts the container's marker segment
// lengths. These may be beyond salvage (no decodable frame); the gate
// is no panic plus the cross-mode invariants.
func TestFaultLengthCorruptions(t *testing.T) {
	for _, fx := range fixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			for _, f := range faultgen.LengthCorruptions(fx.data) {
				img, _ := salvageOutcome(t, f.Name, f.Data)
				if img != nil {
					img.Release()
				}
			}
		})
	}
}

// modeIdentityFaults picks one representative of each fault family per
// fixture for the expensive all-modes sweep.
func modeIdentityFaults(fx faultFixture) []faultgen.Fault {
	spans := faultgen.EntropySpans(fx.data)
	if len(spans) == 0 {
		return nil
	}
	span := spans[0]
	cut := span.Start + (span.End-span.Start)*2/3
	faults := []faultgen.Fault{
		{Name: "trunc-twothirds", Data: fx.data[:cut]},
	}
	faults = append(faults, faultgen.BitFlips(fx.data, span, 2, 4242)...)
	if rst := faultgen.RSTMutations(fx.data, span); len(rst) > 0 {
		faults = append(faults, rst[0], rst[1])
	}
	return faults
}

// TestFaultModeIdentity decodes corrupted variants through every
// execution mode and the batch scheduler and asserts pixels and
// salvage reports are identical to the scalar salvage reference —
// salvage decisions live in the sequential entropy stage, so no mode
// may diverge.
func TestFaultModeIdentity(t *testing.T) {
	m := trainedModel(t)
	for _, fx := range fixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			for _, f := range modeIdentityFaults(fx) {
				ref, refRep, refErr := salvageRef(f.Data)
				if ref == nil {
					continue // nothing salvageable: nothing to compare
				}
				for _, mode := range core.AllModes() {
					res, err := core.Decode(f.Data, core.Options{
						Mode: mode, Spec: conformSpec, Model: m, Salvage: true,
					})
					if res == nil {
						t.Fatalf("%s mode %v: salvage decode failed entirely: %v", f.Name, mode, err)
					}
					if (err != nil) != (refErr != nil) {
						t.Fatalf("%s mode %v: error presence %v, reference %v", f.Name, mode, err, refErr)
					}
					if err != nil && !errors.Is(err, jpegcodec.ErrPartialData) {
						t.Fatalf("%s mode %v: error does not wrap ErrPartialData: %v", f.Name, mode, err)
					}
					if !bytes.Equal(res.Image.Pix, ref.Pix) {
						t.Errorf("%s mode %v: salvaged pixels differ from scalar reference%s",
							f.Name, mode, firstPixelDiff(res.Image, ref))
					}
					compareReports(t, fmt.Sprintf("%s mode %v", f.Name, mode), res.Salvage, refRep)
					res.Release()
				}
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%s w%d", f.Name, workers)
					bres, err := batch.Decode([][]byte{f.Data, fx.data, f.Data}, batch.Options{
						Spec: conformSpec, Workers: workers, Salvage: true,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, ir := range bres.Images {
						if ir.Res == nil {
							t.Fatalf("%s image %d: no result: %v", name, i, ir.Err)
						}
						want := ref
						if i == 1 {
							if ir.Err != nil {
								t.Fatalf("%s: clean sibling image reported error: %v", name, ir.Err)
							}
							ir.Res.Release()
							continue
						}
						if (ir.Err != nil) != (refErr != nil) {
							t.Fatalf("%s image %d: error presence %v, reference %v", name, i, ir.Err, refErr)
						}
						if !bytes.Equal(ir.Res.Image.Pix, want.Pix) {
							t.Errorf("%s image %d: salvaged pixels differ from scalar reference%s",
								name, i, firstPixelDiff(ir.Res.Image, want))
						}
						compareReports(t, fmt.Sprintf("%s image %d", name, i), ir.Res.Salvage, refRep)
						ir.Res.Release()
					}
					if refErr != nil && bres.Salvaged != 2 {
						t.Errorf("%s: Salvaged = %d, want 2", name, bres.Salvaged)
					}
				}
				ref.Release()
			}
		})
	}
}

// compareReports asserts two salvage reports describe the same damage.
func compareReports(t *testing.T, name string, got, want *jpegcodec.SalvageReport) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: salvage report presence %v, reference %v", name, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if got.TotalMCUs != want.TotalMCUs || got.RecoveredMCUs != want.RecoveredMCUs ||
		got.Resyncs != want.Resyncs || !reflect.DeepEqual(got.Damaged, want.Damaged) {
		t.Errorf("%s: salvage report differs: got {total %d recovered %d resyncs %d damaged %v}, want {total %d recovered %d resyncs %d damaged %v}",
			name, got.TotalMCUs, got.RecoveredMCUs, got.Resyncs, got.Damaged,
			want.TotalMCUs, want.RecoveredMCUs, want.Resyncs, want.Damaged)
	}
}
