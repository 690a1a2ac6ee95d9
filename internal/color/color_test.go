package color

import (
	stdcolor "image/color"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestYCbCrToRGBMatchesMatrix(t *testing.T) {
	// Spot values from Algorithm 2 computed by hand.
	cases := []struct {
		y, cb, cr int32
		r, g, b   byte
	}{
		{128, 128, 128, 128, 128, 128}, // neutral gray
		{255, 128, 128, 255, 255, 255}, // white
		{0, 128, 128, 0, 0, 0},         // black
		{76, 85, 255, 254, 0, 0},       // near-red
	}
	for _, c := range cases {
		r, g, b := YCbCrToRGB(c.y, c.cb, c.cr)
		if absDiff(r, c.r) > 2 || absDiff(g, c.g) > 2 || absDiff(b, c.b) > 2 {
			t.Errorf("YCbCr(%d,%d,%d) = (%d,%d,%d), want ≈(%d,%d,%d)",
				c.y, c.cb, c.cr, r, g, b, c.r, c.g, c.b)
		}
	}
}

func absDiff(a, b byte) int {
	d := int(a) - int(b)
	if d < 0 {
		return -d
	}
	return d
}

func TestAgainstStdlibYCbCr(t *testing.T) {
	// The stdlib uses the same JFIF matrix; allow ±1 for rounding
	// differences.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		y := byte(rng.Intn(256))
		cb := byte(rng.Intn(256))
		cr := byte(rng.Intn(256))
		r0, g0, b0 := stdcolor.YCbCrToRGB(y, cb, cr)
		r1, g1, b1 := YCbCrToRGB(int32(y), int32(cb), int32(cr))
		if absDiff(r0, r1) > 1 || absDiff(g0, g1) > 1 || absDiff(b0, b1) > 1 {
			t.Fatalf("YCbCr(%d,%d,%d): std (%d,%d,%d) vs ours (%d,%d,%d)",
				y, cb, cr, r0, g0, b0, r1, g1, b1)
		}
	}
}

func TestRGBYCbCrRoundTrip(t *testing.T) {
	f := func(r, g, b byte) bool {
		y, cb, cr := RGBToYCbCr(r, g, b)
		r2, g2, b2 := YCbCrToRGB(int32(y), int32(cb), int32(cr))
		// Chroma rounding permits small drift.
		return absDiff(r, r2) <= 3 && absDiff(g, g2) <= 3 && absDiff(b, b2) <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestUpsampleH2V1FancyMatchesAlgorithm1(t *testing.T) {
	// The paper's Algorithm 1 written literally for one 8-sample row.
	in := []byte{10, 20, 30, 40, 50, 60, 70, 80}
	want := make([]byte, 16)
	want[0] = in[0]
	want[1] = byte((int(in[0])*3 + int(in[1]) + 2) / 4)
	want[2] = byte((int(in[1])*3 + int(in[0]) + 1) / 4)
	want[3] = byte((int(in[1])*3 + int(in[2]) + 2) / 4)
	want[4] = byte((int(in[2])*3 + int(in[1]) + 1) / 4)
	want[5] = byte((int(in[2])*3 + int(in[3]) + 2) / 4)
	want[6] = byte((int(in[3])*3 + int(in[2]) + 1) / 4)
	want[7] = byte((int(in[3])*3 + int(in[4]) + 2) / 4)
	want[8] = byte((int(in[4])*3 + int(in[3]) + 1) / 4)
	want[9] = byte((int(in[4])*3 + int(in[5]) + 2) / 4)
	want[10] = byte((int(in[5])*3 + int(in[4]) + 1) / 4)
	want[11] = byte((int(in[5])*3 + int(in[6]) + 2) / 4)
	want[12] = byte((int(in[6])*3 + int(in[5]) + 1) / 4)
	want[13] = byte((int(in[6])*3 + int(in[7]) + 2) / 4)
	want[14] = byte((int(in[7])*3 + int(in[6]) + 1) / 4)
	want[15] = in[7]

	got := make([]byte, 16)
	UpsampleRowH2V1Fancy(in, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestUpsampleConstantRowStaysConstant(t *testing.T) {
	f := func(v byte, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		in := make([]byte, n)
		for i := range in {
			in[i] = v
		}
		out := make([]byte, 2*n)
		UpsampleRowH2V1Fancy(in, out)
		for _, o := range out {
			if o != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUpsampleBoundsPreserved(t *testing.T) {
	// Interpolated values never exceed the range of the inputs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(64)
		in := make([]byte, n)
		lo, hi := byte(255), byte(0)
		for i := range in {
			in[i] = byte(rng.Intn(256))
			if in[i] < lo {
				lo = in[i]
			}
			if in[i] > hi {
				hi = in[i]
			}
		}
		out := make([]byte, 2*n)
		UpsampleRowH2V1Fancy(in, out)
		for _, o := range out {
			if o < lo || o > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDownsampleH2V1(t *testing.T) {
	in := []byte{10, 20, 30, 31}
	out := make([]byte, 2)
	DownsampleRowsH2V1(in, out)
	if out[0] != 15 || out[1] != 31 {
		t.Fatalf("got %v want [15 31]", out)
	}
}

func TestDownsampleH2V2(t *testing.T) {
	in := []byte{
		10, 20, 100, 100,
		30, 40, 100, 104,
	}
	out := make([]byte, 2)
	DownsampleH2V2(in, 4, 2, out)
	if out[0] != 25 {
		t.Fatalf("quad0: got %d want 25", out[0])
	}
	if out[1] != 101 {
		t.Fatalf("quad1: got %d want 101", out[1])
	}
}

func TestUpsampleH2V2FancyConstant(t *testing.T) {
	w, h := 5, 3
	in := make([]byte, w*h)
	for i := range in {
		in[i] = 77
	}
	out := make([]byte, 4*w*h)
	UpsampleH2V2Fancy(in, w, h, out)
	for i, o := range out {
		if o != 77 {
			t.Fatalf("sample %d: %d want 77", i, o)
		}
	}
}

func TestUpsampleH2V2FancyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		w := 2 + rng.Intn(16)
		h := 2 + rng.Intn(16)
		in := make([]byte, w*h)
		lo, hi := byte(255), byte(0)
		for i := range in {
			in[i] = byte(rng.Intn(256))
			if in[i] < lo {
				lo = in[i]
			}
			if in[i] > hi {
				hi = in[i]
			}
		}
		out := make([]byte, 4*w*h)
		UpsampleH2V2Fancy(in, w, h, out)
		for i, o := range out {
			if o < lo || o > hi {
				t.Fatalf("trial %d sample %d: %d outside [%d,%d]", trial, i, o, lo, hi)
			}
		}
	}
}

func BenchmarkYCbCrToRGBRow(b *testing.B) {
	const n = 4096
	y := make([]byte, n)
	cb := make([]byte, n)
	cr := make([]byte, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		y[i], cb[i], cr[i] = byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
	}
	out := make([]byte, 3*n)
	b.SetBytes(n * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			r, g, bb := YCbCrToRGB(int32(y[j]), int32(cb[j]), int32(cr[j]))
			out[j*3], out[j*3+1], out[j*3+2] = r, g, bb
		}
	}
}

// TestRGBToYCbCrRowExhaustive holds the table conversion to
// RGBToYCbCr, the per-pixel oracle, over all 2^24 RGB triples.
func TestRGBToYCbCrRowExhaustive(t *testing.T) {
	pix := make([]byte, 3*256)
	y, cb, cr := make([]byte, 256), make([]byte, 256), make([]byte, 256)
	for r := 0; r < 256; r++ {
		for g := 0; g < 256; g++ {
			for b := 0; b < 256; b++ {
				pix[3*b], pix[3*b+1], pix[3*b+2] = byte(r), byte(g), byte(b)
			}
			RGBToYCbCrRow(pix, y, cb, cr)
			for b := 0; b < 256; b++ {
				wy, wcb, wcr := RGBToYCbCr(byte(r), byte(g), byte(b))
				if y[b] != wy || cb[b] != wcb || cr[b] != wcr {
					t.Fatalf("RGB(%d,%d,%d): row gives %d,%d,%d, RGBToYCbCr %d,%d,%d",
						r, g, b, y[b], cb[b], cr[b], wy, wcb, wcr)
				}
			}
		}
	}
}
