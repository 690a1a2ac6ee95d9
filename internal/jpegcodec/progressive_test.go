package jpegcodec

import (
	"bytes"
	"testing"

	"hetjpeg/internal/jfif"
)

// testImage renders a deterministic photographic-ish texture without
// importing imagegen (which would cycle).
func testImage(w, h int, seed uint32) *RGBImage {
	img := NewRGBImage(w, h)
	s := seed
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s = s*1664525 + 1013904223
			base := byte(128 + 90*((x/16+y/16)%2) - 45)
			img.Set(x, y, base+byte(s>>24)%32, base+byte(s>>16)%32, base+byte(s>>8)%32)
		}
	}
	return img
}

var progScripts = map[string][]ScanSpec{
	"spectral":  ScriptSpectralOnly(),
	"default":   ScriptDefault(),
	"multiband": ScriptMultiBand(),
	"deepsa":    ScriptDeepSA(),
}

// TestProgressiveMatchesBaselinePixels is the strongest progressive
// correctness property available without an external decoder: a
// complete scan script transmits every bit of every quantized
// coefficient, so decoding the progressive stream must yield exactly
// the coefficients of the baseline stream of the same image — and
// therefore byte-identical RGB output.
func TestProgressiveMatchesBaselinePixels(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for name, script := range progScripts {
			for _, ri := range []int{0, 3} {
				img := testImage(121, 87, 7)
				base, err := Encode(img, EncodeOptions{Quality: 80, Subsampling: sub, RestartInterval: ri})
				if err != nil {
					t.Fatalf("%v/%s: baseline encode: %v", sub, name, err)
				}
				prog, err := Encode(img, EncodeOptions{
					Quality: 80, Subsampling: sub, RestartInterval: ri,
					Progressive: true, Script: script,
				})
				if err != nil {
					t.Fatalf("%v/%s: progressive encode: %v", sub, name, err)
				}
				refImg, err := DecodeScalar(base)
				if err != nil {
					t.Fatalf("%v/%s: baseline decode: %v", sub, name, err)
				}
				gotImg, err := DecodeScalar(prog)
				if err != nil {
					t.Fatalf("%v/%s/ri%d: progressive decode: %v", sub, name, ri, err)
				}
				if !bytes.Equal(refImg.Pix, gotImg.Pix) {
					t.Errorf("%v/%s/ri%d: progressive pixels differ from baseline of the same image", sub, name, ri)
				}
			}
		}
	}
}

// TestProgressiveCoefficientsMatchBaseline checks the same property one
// level down: the accumulated coefficient buffers are identical, and the
// NZ sparsity watermark never under-reports a nonzero coefficient (an
// under-report would make the sparse IDCT drop energy).
func TestProgressiveCoefficientsMatchBaseline(t *testing.T) {
	img := testImage(97, 75, 21)
	base, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub420})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	fb, edb, err := PrepareDecode(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := edb.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	fp, edp, err := PrepareDecode(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !fp.Img.Progressive {
		t.Fatal("progressive stream parsed as baseline")
	}
	if err := edp.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	for c := range fb.Coeff {
		p := fp.Planes[c]
		// Single-component progressive scans cover the component's own
		// ceil(size/8) block grid (T.81 A.2.2); blocks that exist only as
		// MCU padding receive AC coefficients in a baseline stream but
		// not in a progressive one, and never reach visible pixels.
		// Compare where both streams carry data; padding blocks must
		// stay DC-only in the progressive frame.
		wb := (p.CompW + 7) / 8
		hb := (p.CompH + 7) / 8
		for by := 0; by < p.BlockRows; by++ {
			for bx := 0; bx < p.BlocksPerRow; bx++ {
				bi := by*p.BlocksPerRow + bx
				got := fp.Coeff[c][bi*64 : bi*64+64]
				if bx < wb && by < hb {
					want := fb.Coeff[c][bi*64 : bi*64+64]
					if !equalInt32(want, got) {
						t.Errorf("component %d block (%d,%d): coefficients differ", c, bx, by)
					}
				} else {
					for z := 1; z < 64; z++ {
						if got[jfif.ZigZag[z]] != 0 {
							t.Errorf("component %d padding block (%d,%d): AC coefficient at zigzag %d", c, bx, by, z)
						}
					}
				}
			}
		}
		// NZ must cover the true last nonzero coefficient of every block
		// (an under-report would make the sparse IDCT drop energy).
		for b := 0; b < p.Blocks(); b++ {
			last := 0
			blk := fp.Coeff[c][b*64 : b*64+64]
			for z := 1; z < 64; z++ {
				if blk[jfif.ZigZag[z]] != 0 {
					last = z
				}
			}
			if nz := int(fp.NZ[c][b]); nz < last+1 {
				t.Fatalf("component %d block %d: NZ=%d under-reports last nonzero zigzag index %d", c, b, nz, last)
			}
		}
	}
	// Per-MCU-row bit accounting must cover all scans' bits exactly.
	var fromRows int64
	for _, b := range edp.BitsPerRow {
		fromRows += b
	}
	var scanBits int64
	for _, sc := range fp.Img.Scans {
		scanBits += int64(len(sc.Data)) * 8
	}
	if len(edp.BitsPerRow) != fp.MCURows {
		t.Fatalf("BitsPerRow has %d entries, want %d", len(edp.BitsPerRow), fp.MCURows)
	}
	if fromRows <= 0 || fromRows > scanBits {
		t.Fatalf("aggregated row bits %d outside (0, %d]", fromRows, scanBits)
	}
}

// TestProgressiveTruncatedInputsError truncates a progressive stream at
// every byte boundary: every prefix must fail cleanly (parse or decode
// error), never panic, and never be mistaken for a complete image.
func TestProgressiveTruncatedInputsError(t *testing.T) {
	img := testImage(64, 48, 3)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		f, ed, err := PrepareDecode(data[:cut])
		if err != nil {
			continue // parse already failed: fine
		}
		err = ed.DecodeAll()
		f.Release()
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(data))
		}
	}
}

// TestProgressiveDiscardDecode exercises the profiling path: a
// geometry-only frame entropy-decodes a progressive stream, discarding
// coefficients but reporting per-row bits.
func TestProgressiveDiscardDecode(t *testing.T) {
	img := testImage(80, 64, 11)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub422, Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	im, err := parseFor(t, data)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFrameGeometry(im)
	if err != nil {
		t.Fatal(err)
	}
	ed := NewEntropyDecoderDiscard(f)
	if err := ed.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	if len(ed.BitsPerRow) != f.MCURows {
		t.Fatalf("BitsPerRow has %d entries, want %d", len(ed.BitsPerRow), f.MCURows)
	}
	if ed.EntropyBitsTotal() <= 0 {
		t.Fatal("no bits recorded")
	}
}

func parseFor(t *testing.T, data []byte) (*jfif.Image, error) {
	t.Helper()
	return jfif.Parse(data)
}

// TestProgressiveScriptValidation rejects malformed scan scripts at
// encode time.
func TestProgressiveScriptValidation(t *testing.T) {
	img := testImage(32, 32, 1)
	bad := [][]ScanSpec{
		{},                                              // empty
		{{Comps: []int{0, 1}, Ss: 1, Se: 5}},            // interleaved AC
		{{Comps: []int{0}, Ss: 0, Se: 5}},               // DC scan with Se != 0
		{{Comps: []int{0}, Ss: 10, Se: 5}},              // inverted band
		{{Comps: []int{0}, Ss: 1, Se: 64}},              // band out of range
		{{Comps: []int{3}, Ss: 0, Se: 0}},               // unknown component
		{{Comps: []int{0, 0, 1}, Ss: 0, Se: 0}},         // repeated component
		{{Comps: []int{0}, Ss: 1, Se: 5, Ah: 3, Al: 1}}, // Ah != Al+1
	}
	for i, script := range bad {
		if _, err := Encode(img, EncodeOptions{Progressive: true, Script: script}); err == nil {
			t.Errorf("bad script %d accepted", i)
		}
	}
}

// BenchmarkEntropyProgressive entropy-decodes a 1024x1024 4:2:0
// progressive stream (default script): the refinement scans' mask walk
// and the first scans' probes.
func BenchmarkEntropyProgressive(b *testing.B) {
	img := makeTestImage(1024, 1024, 19)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, Progressive: true})
	img.Release()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, ed, err := PrepareDecode(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := ed.DecodeAll(); err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}
