package jpegcodec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetjpeg/internal/jfif"
)

// TestQuickEncodeDecodeArbitrary encodes random smooth-ish images of
// random dimensions and subsamplings and checks that (a) our decoder
// round-trips them within lossy-compression tolerance and (b) the
// chunked entropy decode agrees with the one-shot decode.
func TestQuickEncodeDecodeArbitrary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(120)
		h := 1 + rng.Intn(120)
		sub := []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420}[rng.Intn(3)]
		quality := 60 + rng.Intn(40)

		// Smooth random field (random DC per 16x16 cell, interpolated
		// nearest): compressible but non-trivial.
		img := NewRGBImage(w, h)
		cw, chh := (w+15)/16+1, (h+15)/16+1
		cells := make([][3]byte, cw*chh)
		for i := range cells {
			cells[i] = [3]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				c := cells[(y/16)*cw+x/16]
				img.Set(x, y, c[0], c[1], c[2])
			}
		}

		data, err := Encode(img, EncodeOptions{Quality: quality, Subsampling: sub})
		if err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		out, err := DecodeScalar(data)
		if err != nil {
			t.Logf("seed %d (%dx%d %v q%d): decode: %v", seed, w, h, sub, quality, err)
			return false
		}
		if out.W != w || out.H != h {
			return false
		}
		// Interior of constant cells must reconstruct closely; check
		// overall mean error stays lossy-bounded.
		var sum float64
		for i := range img.Pix {
			sum += math.Abs(float64(img.Pix[i]) - float64(out.Pix[i]))
		}
		if mae := sum / float64(len(img.Pix)); mae > 20 {
			t.Logf("seed %d (%dx%d %v q%d): MAE %.1f", seed, w, h, sub, quality, mae)
			return false
		}

		// Chunked decode agreement.
		f1, ed1, err := PrepareDecode(data)
		if err != nil {
			return false
		}
		if err := ed1.DecodeAll(); err != nil {
			return false
		}
		f2, ed2, err := PrepareDecode(data)
		if err != nil {
			return false
		}
		step := 1 + rng.Intn(4)
		for !ed2.Done() {
			if _, err := ed2.DecodeRows(step); err != nil {
				return false
			}
		}
		for c := range f1.Coeff {
			if !equalInt32(f1.Coeff[c], f2.Coeff[c]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTruncatedStreamsDoNotPanic feeds progressively truncated valid
// streams to the decoder; every prefix must either decode or fail
// cleanly.
func TestTruncatedStreamsDoNotPanic(t *testing.T) {
	img := makeTestImage(64, 48, 4)
	data, err := Encode(img, EncodeOptions{Quality: 80, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d: %v", cut, r)
				}
			}()
			_, _ = DecodeScalar(data[:cut])
		}()
	}
}

// TestBitFlippedStreamsDoNotPanic mutates single bytes of the entropy
// segment; decoding may fail or produce garbage pixels but must not
// panic or write out of bounds.
func TestBitFlippedStreamsDoNotPanic(t *testing.T) {
	img := makeTestImage(96, 64, 6)
	orig, err := Encode(img, EncodeOptions{Quality: 80, Subsampling: jfif.Sub444})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), orig...)
		// Mutate within the tail (likely entropy data).
		pos := len(data)/2 + rng.Intn(len(data)/2)
		data[pos] ^= byte(1 + rng.Intn(255))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic with mutation at %d: %v", pos, r)
				}
			}()
			_, _ = DecodeScalar(data)
		}()
	}
}

// TestLargeDimensionLimits rejects dimensions beyond JPEG's 16-bit
// fields.
func TestLargeDimensionLimits(t *testing.T) {
	img := NewRGBImage(1, 1)
	img.W = 70000 // lie about the size
	img.Pix = make([]byte, 70000*3)
	img.H = 1
	if _, err := Encode(img, EncodeOptions{}); err == nil {
		t.Fatal("oversized width accepted")
	}
}

// TestEncodeDeterministic ensures the encoder is a pure function.
func TestEncodeDeterministic(t *testing.T) {
	img := makeTestImage(80, 60, 10)
	a, err := Encode(img, EncodeOptions{Quality: 77, Subsampling: jfif.Sub420})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(img, EncodeOptions{Quality: 77, Subsampling: jfif.Sub420})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoder output varies across calls")
	}
}

// TestIDCTBlockRowsPartialEqualsFull verifies region IDCT composability:
// transforming [0,k) then [k,n) equals transforming [0,n) at once.
func TestIDCTBlockRowsPartialEqualsFull(t *testing.T) {
	img := makeTestImage(128, 96, 12)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	fA, edA, _ := PrepareDecode(data)
	if err := edA.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	fB, edB, _ := PrepareDecode(data)
	if err := edB.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	for c := range fA.Planes {
		IDCTRange(fA, c, 0, fA.MCURows)
		n := fB.Planes[c].BlockRows
		idctBlockRows(fB, c, 0, n/2)
		idctBlockRows(fB, c, n/2, n)
	}
	for c := range fA.Samples {
		if !bytes.Equal(fA.Samples[c], fB.Samples[c]) {
			t.Fatalf("component %d: split IDCT differs", c)
		}
	}
}
