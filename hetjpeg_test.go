package hetjpeg_test

import (
	"bytes"
	"image"
	stdjpeg "image/jpeg"
	"testing"

	"hetjpeg"
)

func testJPEG(t testing.TB, w, h int) []byte {
	t.Helper()
	img := hetjpeg.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.Set(x, y, byte(x), byte(y), byte(x+y))
		}
	}
	data, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{Quality: 85, Subsampling: hetjpeg.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPublicAPIRoundTrip(t *testing.T) {
	data := testJPEG(t, 200, 150)
	img, err := hetjpeg.DecodeRGB(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 200 || img.H != 150 {
		t.Fatalf("decoded %dx%d", img.W, img.H)
	}
	// Stdlib agrees the stream is valid.
	if _, err := stdjpeg.Decode(bytes.NewReader(data)); err != nil {
		t.Fatalf("stdlib rejects our stream: %v", err)
	}
}

func TestPublicDecodeAllModes(t *testing.T) {
	data := testJPEG(t, 256, 192)
	spec := hetjpeg.PlatformByName("GTX 680")
	model, err := hetjpeg.DefaultModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := hetjpeg.DecodeRGB(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range hetjpeg.AllModes() {
		res, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: mode, Spec: spec, Model: model})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !bytes.Equal(res.Image.Pix, ref.Pix) {
			t.Errorf("%v: pixels differ from DecodeRGB", mode)
		}
		if res.TotalNs <= 0 {
			t.Errorf("%v: empty schedule", mode)
		}
	}
}

func TestPlatformsComplete(t *testing.T) {
	if len(hetjpeg.Platforms()) != 3 {
		t.Fatal("expected the paper's three machines")
	}
	if hetjpeg.PlatformByName("GT 430") == nil {
		t.Fatal("GT 430 missing")
	}
	if hetjpeg.PlatformByName("RTX 4090") != nil {
		t.Fatal("anachronistic hardware resolved")
	}
}

func TestStdImageConversions(t *testing.T) {
	img := hetjpeg.NewImage(10, 7)
	img.Set(3, 2, 10, 20, 30)
	std := hetjpeg.ToStdImage(img)
	if std.Bounds().Dx() != 10 || std.Bounds().Dy() != 7 {
		t.Fatal("bounds wrong")
	}
	r, g, b, a := std.At(3, 2).RGBA()
	if r>>8 != 10 || g>>8 != 20 || b>>8 != 30 || a>>8 != 255 {
		t.Fatalf("pixel (%d,%d,%d,%d)", r>>8, g>>8, b>>8, a>>8)
	}
	back := hetjpeg.FromStdImage(std)
	if !bytes.Equal(back.Pix, img.Pix) {
		t.Fatal("conversion round trip broken")
	}
	// From a non-RGBA source too.
	gray := image.NewGray(image.Rect(0, 0, 4, 4))
	gray.Pix[5] = 200
	g2 := hetjpeg.FromStdImage(gray)
	if r, _, _ := g2.At(1, 1); r != 200 {
		t.Fatalf("gray conversion got %d", r)
	}
}
