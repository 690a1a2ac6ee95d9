package jpegcodec

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"hetjpeg/internal/faultgen"
	"hetjpeg/internal/jfif"
)

// AC refinement scans have two walks: the nonzero-mask walk
// (refineProbe) and the per-bit walk behind it (refineGeneral). The
// tests in this file put the cases where the two could part on the wire
// exactly, by encoding hand-set quantised coefficients, and require the
// walks to agree on them (checkPathsAgree) and the clean streams to
// decode to the coefficients they were built from.

// coeffStream encodes the quantised coefficients fill sets, natural
// order, as a w×h 4:4:4 progressive stream under script with restart
// interval ri. It returns the stream and the coefficients.
func coeffStream(t *testing.T, w, h, ri int, script []ScanSpec, fill func(ci, bi int, blk *[64]int32)) ([]byte, [3][]int32) {
	t.Helper()
	comps := []jfif.Component{
		{ID: 1, H: 1, V: 1, QuantSel: 0, DCSel: 0, ACSel: 0},
		{ID: 2, H: 1, V: 1, QuantSel: 1, DCSel: 1, ACSel: 1},
		{ID: 3, H: 1, V: 1, QuantSel: 1, DCSel: 1, ACSel: 1},
	}
	bw, bh := (w+7)/8, (h+7)/8
	var infos [3]PlaneInfo
	var coeffs [3][]int32
	var masks [3][]uint64
	for ci := range comps {
		infos[ci] = PlaneInfo{CompW: w, CompH: h, BlocksPerRow: bw, BlockRows: bh, H: 1, V: 1}
		coeffs[ci] = make([]int32, bw*bh*64)
		masks[ci] = make([]uint64, bw*bh)
		for bi := range masks[ci] {
			blk := (*[64]int32)(coeffs[ci][bi*64:])
			fill(ci, bi, blk)
			for k := 0; k < 64; k++ {
				if blk[jfif.ZigZag[k]] != 0 {
					masks[ci][bi] |= 1 << k
				}
			}
		}
	}
	q := jfif.ScaleQuantTable(&jfif.StdLuminanceQuant, 85)
	data, err := encodeProgressive(&RGBImage{W: w, H: h}, EncodeOptions{Progressive: true, Script: script, RestartInterval: ri},
		comps, coeffs, masks, infos, &q, &q, bw, bh)
	if err != nil {
		t.Fatal(err)
	}
	return data, coeffs
}

// refineScript sends every bit of every coefficient: the DC whole, the
// luma AC bands given at Al=1 then refined to Al=0, the chroma AC whole.
func refineScript(bands ...[2]int) []ScanSpec {
	s := []ScanSpec{{Comps: []int{0, 1, 2}, Ss: 0, Se: 0}}
	for _, b := range bands {
		s = append(s, ScanSpec{Comps: []int{0}, Ss: b[0], Se: b[1], Al: 1})
	}
	s = append(s, ScanSpec{Comps: []int{1}, Ss: 1, Se: 63}, ScanSpec{Comps: []int{2}, Ss: 1, Se: 63})
	for _, b := range bands {
		s = append(s, ScanSpec{Comps: []int{0}, Ss: b[0], Se: b[1], Ah: 1})
	}
	return s
}

// maxRefineHistory returns the most nonzero-history positions any block
// brings into an AC refinement scan of data, which is the number of
// correction bits the block owes that scan.
func maxRefineHistory(t testing.TB, data []byte) int {
	t.Helper()
	f, ed, err := PrepareDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	p := ed.prog
	best := 0
	for !p.Done() {
		if sc := &f.Img.Scans[p.scanIdx]; p.sc == nil && sc.Ss > 0 && sc.Ah > 0 {
			band := bandBits(sc.Ss, sc.Se)
			for _, m := range p.masks[sc.Comps[0].CompIdx] {
				best = max(best, bits.OnesCount64(m&band))
			}
		}
		if _, err := p.DecodeRows(1); err != nil {
			t.Fatal(err)
		}
	}
	return best
}

// checkDecodesTo decodes a clean stream and requires the coefficients
// it was built from.
func checkDecodesTo(t *testing.T, name string, data []byte, want [3][]int32) {
	t.Helper()
	f, ed, err := PrepareDecode(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer f.Release()
	if err := ed.DecodeAll(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for c := range want {
		if !slices.Equal(f.Coeff[c], want[c]) {
			for j := range want[c] {
				if f.Coeff[c][j] != want[c][j] {
					t.Fatalf("%s: component %d block %d coefficient %d: %d, want %d", name, c, j/64, j%64, f.Coeff[c][j], want[c][j])
				}
			}
		}
	}
}

// setZZ sets zigzag position k of blk.
func setZZ(blk *[64]int32, k int, v int32) { blk[jfif.ZigZag[k]] = v }

func TestRefineMaskWalkEdges(t *testing.T) {
	for _, c := range []struct {
		name       string
		w, h, ri   int
		bands      [][2]int
		fill       func(ci, bi int, blk *[64]int32)
		minHistory int // the widest history a refined block must bring
	}{
		{
			// Block 0's run to position 50 passes 40 nonzeros, block 1's
			// EOB owes 63 correction bits, all set, and block 2's run
			// lands at Se past 62 corrections, all zero.
			name: "corrections-over-32", w: 24, h: 8,
			bands: [][2]int{{1, 63}},
			fill: func(ci, bi int, blk *[64]int32) {
				if ci != 0 {
					return
				}
				switch bi {
				case 0:
					for k := 1; k <= 40; k++ {
						v := int32(2 + k&1)
						if k%3 == 0 {
							v = -v
						}
						setZZ(blk, k, v)
					}
					setZZ(blk, 50, 1)
				case 1:
					for k := 1; k < 64; k++ {
						setZZ(blk, k, -3)
					}
				case 2:
					for k := 1; k < 63; k++ {
						setZZ(blk, k, 2)
					}
					setZZ(blk, 63, -1)
				}
			},
			minHistory: 63,
		},
		{
			// Two ZRLs, each passing history on every other position,
			// then a run to 60.
			name: "zrl-across-history", w: 8, h: 8,
			bands: [][2]int{{1, 63}},
			fill: func(ci, bi int, blk *[64]int32) {
				if ci != 0 {
					return
				}
				for k := 2; k <= 40; k += 2 {
					setZZ(blk, k, 2+int32(k>>1&1))
				}
				setZZ(blk, 60, -1)
			},
			minHistory: 20,
		},
		{
			// Runs landing on the Se of a split band, 20 and 63.
			name: "run-lands-at-se", w: 16, h: 8,
			bands: [][2]int{{1, 20}, {21, 63}},
			fill: func(ci, bi int, blk *[64]int32) {
				if ci != 0 {
					return
				}
				for k := 1; k < 20; k += 3 {
					setZZ(blk, k, 3)
				}
				setZZ(blk, 20, 1)
				setZZ(blk, 30, -2)
				setZZ(blk, 63, 1)
				if bi == 1 {
					setZZ(blk, 20, -3)
				}
			},
			minHistory: 8,
		},
		{
			// No new coefficients: the refinement is EOB runs over blocks
			// with and without history, cut at every restart marker.
			name: "eob-runs-across-restarts", w: 64, h: 16, ri: 3,
			bands: [][2]int{{1, 63}},
			fill: func(ci, bi int, blk *[64]int32) {
				if ci == 0 && bi%3 == 1 {
					setZZ(blk, 5, 3)
					setZZ(blk, 9, -2)
					setZZ(blk, 17, -3)
				}
			},
			minHistory: 3,
		},
		{
			name: "eob-runs-no-restart", w: 64, h: 16,
			bands: [][2]int{{1, 63}},
			fill: func(ci, bi int, blk *[64]int32) {
				if ci == 0 && bi%4 != 0 {
					for k := bi % 7; k < 64; k += 5 + bi%3 {
						if k > 0 {
							setZZ(blk, k, 2+int32(bi&1))
						}
					}
				}
			},
			minHistory: 12,
		},
	} {
		data, want := coeffStream(t, c.w, c.h, c.ri, refineScript(c.bands...), c.fill)
		if got := maxRefineHistory(t, data); got < c.minHistory {
			t.Fatalf("%s: widest refinement history %d, the case needs %d", c.name, got, c.minHistory)
		}
		checkDecodesTo(t, c.name, data, want)
		checkPathsAgree(t, c.name, data)
	}
}

// TestRefineTruncatedInCorrections ends the data of blocks that owe
// more than 32 correction bits inside a correction read, so the per-bit
// walk finishes what the window could not: the refinement scan is cut
// at every byte (the reader then fails), and in a restart-coded copy
// each restart interval of it loses its last 1 to 8 bytes (the reader
// then pads up to the marker and the walk goes on).
func TestRefineTruncatedInCorrections(t *testing.T) {
	for _, ri := range []int{0, 1} {
		data, _ := coeffStream(t, 24, 8, ri, refineScript([2]int{1, 63}), func(ci, bi int, blk *[64]int32) {
			if ci != 0 {
				return
			}
			for k := 1; k < 64; k++ {
				setZZ(blk, k, 2+int32(k*bi&1))
			}
			if bi != 2 { // block 2 owes its 63 bits under an EOB
				setZZ(blk, 45, -1)
			}
		})
		spans := faultgen.EntropySpans(data)
		last := spans[len(spans)-1]
		for n := last.Start; n <= last.End; n++ {
			checkPathsAgree(t, fmt.Sprintf("rst%d-cut-%d", ri, n), data[:n])
			checkPathsAgree(t, fmt.Sprintf("rst%d-cut-%d+EOI", ri, n), append(append([]byte(nil), data[:n]...), 0xFF, 0xD9))
		}
		for i := last.Start; ri > 0 && i+1 < last.End; i++ {
			if data[i] != 0xFF || data[i+1] < 0xD0 || data[i+1] > 0xD7 {
				continue
			}
			for cut := 1; cut <= 8 && i-cut > last.Start; cut++ {
				d := append(append([]byte(nil), data[:i-cut]...), data[i:]...)
				checkPathsAgree(t, fmt.Sprintf("rst%d-short-%d-%d", ri, i, cut), d)
			}
		}
	}
}

// TestRefineBadMagnitude rewrites, one at a time, each magnitude-1
// symbol of the refinement scan's AC table to magnitude 3: a symbol the
// mask walk must leave to the per-bit walk, which makes the error.
func TestRefineBadMagnitude(t *testing.T) {
	data, _ := coeffStream(t, 24, 8, 0, refineScript([2]int{1, 63}), func(ci, bi int, blk *[64]int32) {
		if ci == 0 {
			for k := 1 + bi; k < 64; k += 3 {
				setZZ(blk, k, int32(1+k%3))
			}
		}
	})
	// The last DHT before the last SOS holds the refinement scan's
	// table; the walk over the segments steps over each scan's data.
	spans := faultgen.EntropySpans(data)
	dht := -1
	for i, si := 2, 0; i+4 < spans[len(spans)-1].Start && data[i] == 0xFF; {
		switch data[i+1] {
		case 0xC4:
			dht = i
		case 0xDA:
			i = spans[si].End
			si++
			continue
		}
		i += 2 + int(data[i+2])<<8 + int(data[i+3])
	}
	if dht < 0 || data[dht+4]>>4 != 1 {
		t.Fatal("no AC table before the refinement scan")
	}
	n := 0
	for _, c := range data[dht+5 : dht+21] {
		n += int(c)
	}
	bad := 0
	for v := 0; v < n; v++ {
		if data[dht+21+v]&15 != 1 {
			continue
		}
		d := append([]byte(nil), data...)
		d[dht+21+v] |= 2
		checkPathsAgree(t, fmt.Sprintf("symbol-%d", v), d)
		if out, ok := entropyDecode(d, Scale1, false, false); ok && strings.Contains(out.err, "bad refinement magnitude") {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("no rewritten symbol reached the refinement decode")
	}
}

// TestRefineAfterSalvagedFirstScan flips, one at a time, every bit of
// the luma AC first scan of a restart-coded stream: a flip that fails
// that scan mid-block leaves the block partly written, and salvage
// resyncs at the next marker; the refinement scan then refines that
// block from the coefficients the failed scan kept.
func TestRefineAfterSalvagedFirstScan(t *testing.T) {
	data, _ := coeffStream(t, 32, 16, 1, refineScript([2]int{1, 63}), func(ci, bi int, blk *[64]int32) {
		if ci != 0 {
			return
		}
		for k := 1 + bi%3; k < 64; k += 2 + bi%4 {
			setZZ(blk, k, int32(1+k%4)*(1-2*int32(k&1)))
		}
	})
	span := faultgen.EntropySpans(data)[1] // the luma AC first scan
	failed := 0
	for i := span.Start; i < span.End; i++ {
		for b := 0; b < 8; b++ {
			d := append([]byte(nil), data...)
			d[i] ^= 1 << b
			name := fmt.Sprintf("flip-%d.%d", i, b)
			checkPathsAgree(t, name, d)
			if out, ok := entropyDecode(d, Scale1, true, false); ok && strings.Contains(out.report, "| scan 1:") {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Fatal("no flip failed the AC first scan: the salvaged-block case is not covered")
	}
}

// TestRefineCorpusHasWideCorrections checks that the differential
// corpus reaches the multi-read correction path: some refinement block
// of its q100 noise streams owes more than 32 correction bits.
func TestRefineCorpusHasWideCorrections(t *testing.T) {
	best := 0
	for _, s := range wideRefineStreams(t) {
		best = max(best, maxRefineHistory(t, s.data))
	}
	if best <= 32 {
		t.Fatalf("widest refinement history in the corpus is %d correction bits, want more than 32", best)
	}
}

// TestProgressiveMaskReleased checks that the nonzero masks go back to
// their pool on every way the scans end: the last scan, a strict error,
// a salvage decode that abandons scans, a discard-mode decode, and a
// 1/8-scale decode, which skips the AC scans and takes none.
func TestProgressiveMaskReleased(t *testing.T) {
	img := makeTestImage(64, 48, 5)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, Progressive: true})
	img.Release()
	if err != nil {
		t.Fatal(err)
	}
	// The first bit flip in the last scan, a refinement, that fails a
	// strict decode.
	var bad []byte
	spans := faultgen.EntropySpans(data)
	last := spans[len(spans)-1]
	for i := last.Start; bad == nil && i < last.End; i++ {
		for b := 0; b < 8; b++ {
			d := append([]byte(nil), data...)
			d[i] ^= 1 << b
			if out, ok := entropyDecode(d, Scale1, false, false); ok && out.err != "" {
				bad = d
				break
			}
		}
	}
	if bad == nil {
		t.Fatal("no bit flip in the last scan fails the decode")
	}
	for _, c := range []struct {
		name            string
		data            []byte
		scale           Scale
		salvage         bool
		discard, failed bool
	}{
		{name: "complete", data: data, scale: Scale1},
		{name: "strict error", data: bad, scale: Scale1, failed: true},
		{name: "salvage", data: bad, scale: Scale1, salvage: true},
		{name: "discard", data: data, scale: Scale1, discard: true},
		{name: "1/8", data: data, scale: Scale8},
	} {
		f, ed, err := prepareDecode(c.data, c.scale, c.salvage)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.discard {
			ed = NewEntropyDecoderDiscard(f)
		}
		if took := ed.prog.maskSlab != nil; took != (c.scale == Scale1) {
			t.Errorf("%s: decoder holds masks %v before decoding", c.name, took)
		}
		if err := ed.DecodeAll(); (err != nil) != c.failed {
			t.Fatalf("%s: DecodeAll error %v", c.name, err)
		}
		if ed.prog.maskSlab != nil {
			t.Errorf("%s: masks not returned when the scans ended", c.name)
		}
		f.Release()
	}
}
