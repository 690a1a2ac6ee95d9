package dct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBlock(rng *rand.Rand) [BlockSize]int32 {
	var b [BlockSize]int32
	for i := range b {
		b[i] = int32(rng.Intn(256)) - 128
	}
	return b
}

func TestForwardIntMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		in := randBlock(rng)
		var fin [BlockSize]float64
		for i, v := range in {
			fin[i] = float64(v)
		}
		var want [BlockSize]float64
		ForwardRef(&fin, &want)

		got := in
		ForwardInt(&got)
		for i := range got {
			// ForwardInt output is scaled by 8.
			g := float64(got[i]) / 8
			if math.Abs(g-want[i]) > 1.0 {
				t.Fatalf("trial %d coef %d: int=%v ref=%v", trial, i, g, want[i])
			}
		}
	}
}

func TestInverseIntMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Generate coefficients from a real sample block so ranges are
		// representative.
		samples := randBlock(rng)
		var fin [BlockSize]float64
		for i, v := range samples {
			fin[i] = float64(v)
		}
		var coefF [BlockSize]float64
		ForwardRef(&fin, &coefF)
		var coef [BlockSize]int32
		for i, v := range coefF {
			coef[i] = int32(math.Round(v))
		}

		var want [BlockSize]float64
		var coefF2 [BlockSize]float64
		for i, v := range coef {
			coefF2[i] = float64(v)
		}
		InverseRef(&coefF2, &want)

		var got [BlockSize]int32
		InverseInt(&coef, &got)
		for i := range got {
			w := want[i]
			if w < 0 {
				w = 0
			}
			if w > 255 {
				w = 255
			}
			if math.Abs(float64(got[i])-w) > 1.5 {
				t.Fatalf("trial %d sample %d: int=%d ref=%v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRoundTripIntDCT(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		in := randBlock(rng)
		coef := in
		ForwardInt(&coef)
		// Undo the x8 scaling with rounding.
		for i := range coef {
			if coef[i] >= 0 {
				coef[i] = (coef[i] + 4) >> 3
			} else {
				coef[i] = -((-coef[i] + 4) >> 3)
			}
		}
		var out [BlockSize]int32
		InverseInt(&coef, &out)
		for i := range out {
			orig := in[i] + 128
			if d := out[i] - orig; d < -2 || d > 2 {
				t.Fatalf("trial %d sample %d: round trip %d -> %d", trial, i, orig, out[i])
			}
		}
	}
}

func TestInverseIntDCOnly(t *testing.T) {
	// A pure DC block must reconstruct to a flat field (the column-pass
	// shortcut path).
	var coef [BlockSize]int32
	coef[0] = 80 // DC
	var out [BlockSize]int32
	InverseInt(&coef, &out)
	want := out[0]
	for i, v := range out {
		if v != want {
			t.Fatalf("sample %d: %d != %d (not flat)", i, v, want)
		}
	}
	// Expected value: DC/8 + 128 = 10 + 128.
	if want != 138 {
		t.Fatalf("flat value %d want 138", want)
	}
}

func TestInverseIntClamps(t *testing.T) {
	var coef [BlockSize]int32
	coef[0] = 3000 // far beyond sample range
	var out [BlockSize]int32
	InverseInt(&coef, &out)
	for i, v := range out {
		if v != 255 {
			t.Fatalf("sample %d: %d want 255 (clamp)", i, v)
		}
	}
	coef[0] = -3000
	InverseInt(&coef, &out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("sample %d: %d want 0 (clamp)", i, v)
		}
	}
}

func TestLinearityQuick(t *testing.T) {
	// IDCT(a) + IDCT(b) ≈ IDCT(a+b) - 128 within rounding noise for
	// small coefficients (clamping avoided).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b, sum [BlockSize]int32
		for i := range a {
			a[i] = int32(rng.Intn(17)) - 8
			b[i] = int32(rng.Intn(17)) - 8
			sum[i] = a[i] + b[i]
		}
		a[0] += 256 // keep outputs near mid-range
		sum[0] += 256
		var oa, ob, os [BlockSize]int32
		InverseInt(&a, &oa)
		InverseInt(&b, &ob)
		InverseInt(&sum, &os)
		for i := range os {
			approx := oa[i] + ob[i] - 128
			if d := os[i] - approx; d < -3 || d > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReferenceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randBlock(rng)
	var fin, coef, back [BlockSize]float64
	for i, v := range in {
		fin[i] = float64(v)
	}
	ForwardRef(&fin, &coef)
	InverseRef(&coef, &back)
	for i := range back {
		if math.Abs(back[i]-(fin[i]+128)) > 1e-9 {
			t.Fatalf("sample %d: %v -> %v", i, fin[i]+128, back[i])
		}
	}
}

func BenchmarkInverseInt(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randBlock(rng)
	ForwardInt(&in)
	for i := range in {
		in[i] /= 8
	}
	var out [BlockSize]int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InverseInt(&in, &out)
	}
}

func BenchmarkForwardInt(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := randBlock(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := base
		ForwardInt(&blk)
	}
}
