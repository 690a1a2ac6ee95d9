package transcode

import (
	"bytes"
	"errors"
	"testing"

	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
)

// testJPEG encodes a synthetic detail image so decode inputs carry real
// AC energy (flat inputs would make every path look DC-only).
func testJPEG(t testing.TB, w, h int, opts jpegcodec.EncodeOptions) []byte {
	t.Helper()
	img := jpegcodec.NewRGBImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := byte((x*2654435761 + y*40503) >> 3)
			img.Set(x, y, v, v^0x5A, byte(x*y))
		}
	}
	defer img.Release()
	data, err := jpegcodec.Encode(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"full knobs", Options{Scale: jpegcodec.Scale8, Quality: 90, Progressive: true, Script: "deepsa", Workers: 4}, true},
		{"empty script non-progressive", Options{Quality: 75}, true},
		{"quality too high", Options{Quality: 101}, false},
		{"quality negative", Options{Quality: -1}, false},
		{"unknown script", Options{Progressive: true, Script: "nope"}, false},
		{"script without progressive", Options{Script: "spectral"}, false},
		{"bad scale", Options{Scale: jpegcodec.Scale(3)}, false},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: validated; want error", c.name)
			} else if !errors.Is(err, ErrBadOptions) {
				t.Errorf("%s: error %v does not wrap ErrBadOptions", c.name, err)
			}
		}
	}
}

func TestTranscodeRoundTrip(t *testing.T) {
	src := testJPEG(t, 97, 75, jpegcodec.EncodeOptions{Quality: 90, Subsampling: jfif.Sub422})
	for _, c := range []struct {
		name  string
		opts  Options
		wantW int
		wantH int
	}{
		{"full size", Options{Quality: 85}, 97, 75},
		{"half", Options{Scale: jpegcodec.Scale2, Quality: 85}, 49, 38},
		{"eighth", Options{Scale: jpegcodec.Scale8, Quality: 85}, 13, 10},
		{"progressive", Options{Progressive: true, Script: "multiband"}, 97, 75},
	} {
		res, err := Transcode(src, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.W != c.wantW || res.H != c.wantH {
			t.Errorf("%s: output %dx%d, want %dx%d", c.name, res.W, res.H, c.wantW, c.wantH)
		}
		out, err := jpegcodec.DecodeScalar(res.Data)
		if err != nil {
			t.Fatalf("%s: output does not re-decode: %v", c.name, err)
		}
		if out.W != c.wantW || out.H != c.wantH {
			t.Errorf("%s: re-decoded %dx%d, want %dx%d", c.name, out.W, out.H, c.wantW, c.wantH)
		}
		out.Release()
		if res.MCUs <= 0 || res.EncodeNs < 0 {
			t.Errorf("%s: bad accounting MCUs=%d EncodeNs=%d", c.name, res.MCUs, res.EncodeNs)
		}
		if want := c.opts.Class(); res.Class != want {
			t.Errorf("%s: class %v, want %v", c.name, res.Class, want)
		}
	}
}

// TestFastPathFlag pins when the coefficient-domain path runs: baseline
// input at 1/8 yes, progressive input at 1/8 no (progressive refinement
// needs full coefficient storage), baseline at other scales no.
func TestFastPathFlag(t *testing.T) {
	base := testJPEG(t, 160, 128, jpegcodec.EncodeOptions{Quality: 90})
	prog := testJPEG(t, 160, 128, jpegcodec.EncodeOptions{Quality: 90, Progressive: true})

	cases := []struct {
		name string
		src  []byte
		opts Options
		want bool
	}{
		{"baseline 1/8", base, Options{Scale: jpegcodec.Scale8}, true},
		{"baseline 1/4", base, Options{Scale: jpegcodec.Scale4}, false},
		{"baseline full", base, Options{}, false},
		{"progressive 1/8", prog, Options{Scale: jpegcodec.Scale8}, false},
	}
	for _, c := range cases {
		res, err := Transcode(c.src, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.FastPath != c.want {
			t.Errorf("%s: FastPath=%v, want %v", c.name, res.FastPath, c.want)
		}
	}
}

// TestWorkerCountByteIdentity pins the encoder-and-decoder banding
// guarantee at the transcode level: every worker count emits the same
// bytes.
func TestWorkerCountByteIdentity(t *testing.T) {
	src := testJPEG(t, 97, 75, jpegcodec.EncodeOptions{Quality: 90, Subsampling: jfif.Sub420})
	opts := Options{Scale: jpegcodec.Scale2, Quality: 80, Subsampling: jfif.Sub420}
	ref, err := Transcode(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 8; workers++ {
		o := opts
		o.Workers = workers
		res, err := Transcode(src, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(res.Data, ref.Data) {
			t.Errorf("workers=%d: output differs from sequential reference", workers)
		}
	}
}

func TestTranscodeErrors(t *testing.T) {
	if _, err := Transcode([]byte("not a jpeg"), Options{}); err == nil {
		t.Error("garbage input transcoded; want error")
	}
	if _, err := Transcode(nil, Options{Quality: 9000}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("bad quality: error %v does not wrap ErrBadOptions", err)
	}
}

func TestNaiveThumbnailMatchesGeometry(t *testing.T) {
	src := testJPEG(t, 97, 75, jpegcodec.EncodeOptions{Quality: 90})
	opts := Options{Scale: jpegcodec.Scale8, Quality: 85}
	naive, err := NaiveThumbnail(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Transcode(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if naive.W != fast.W || naive.H != fast.H {
		t.Errorf("naive %dx%d, fast path %dx%d; want identical geometry", naive.W, naive.H, fast.W, fast.H)
	}
	if naive.FastPath {
		t.Error("naive path reported FastPath")
	}
	// Full-size "thumbnail": the box filter degenerates to identity and
	// must not release the decoded image twice.
	full, err := NaiveThumbnail(src, Options{Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	if full.W != 97 || full.H != 75 {
		t.Errorf("scale-1 naive output %dx%d, want 97x75", full.W, full.H)
	}
}

func TestRates(t *testing.T) {
	var r Rates
	if r.Max() != 0 {
		t.Errorf("zero-value Max = %v, want 0", r.Max())
	}
	r.ObserveResult(&Result{EncodeNs: 1000, MCUs: 10, Class: perfmodel.EncodeOptimized})
	if v := r.Value(perfmodel.EncodeOptimized); v != 100 {
		t.Errorf("observed rate = %v, want 100", v)
	}
	// Degenerate observations are dropped, not folded in as zeros.
	r.ObserveResult(nil)
	r.ObserveResult(&Result{EncodeNs: 0, MCUs: 10})
	r.ObserveResult(&Result{EncodeNs: 10, MCUs: 0})
	if v := r.Value(perfmodel.EncodeOptimized); v != 100 {
		t.Errorf("rate after degenerate observations = %v, want 100", v)
	}

	var seeded Rates
	seeded.Calibrate()
	if seeded.Value(perfmodel.EncodeOptimized) <= 0 || seeded.Value(perfmodel.EncodeProgressive) <= 0 {
		t.Error("Calibrate left encode classes unseeded")
	}
}
