package hetjpeg_test

// The typed-sentinel contract errwrapcheck enforces, verified end to
// end: ErrUnsupported, ErrUnsupportedScale and ErrPartialData must
// survive errors.Is through every layer wrap (jpegcodec → core →
// batch), because cmd/imaged maps them to HTTP statuses and batch
// callers use them to distinguish "out of scope" and "degraded but
// displayable" from "corrupt".

import (
	"bytes"
	"errors"
	"testing"

	"hetjpeg"
)

// unsupportedJPEG flips the SOF0 sample-precision byte to 12 bits: a
// structurally valid stream using a feature outside the decoder's
// scope, the exact class ErrUnsupported marks.
func unsupportedJPEG(t testing.TB) []byte {
	t.Helper()
	data := testJPEG(t, 64, 48)
	i := bytes.Index(data, []byte{0xFF, 0xC0})
	if i < 0 {
		t.Fatal("no SOF0 marker in encoded stream")
	}
	data[i+4] = 12
	return data
}

func TestErrUnsupportedSurvivesDecode(t *testing.T) {
	spec := hetjpeg.PlatformByName("GTX 560")
	_, err := hetjpeg.Decode(unsupportedJPEG(t), hetjpeg.Options{Mode: hetjpeg.ModeSequential, Spec: spec})
	if err == nil {
		t.Fatal("12-bit stream decoded without error")
	}
	if !errors.Is(err, hetjpeg.ErrUnsupported) {
		t.Fatalf("errors.Is(err, ErrUnsupported) = false; err = %v", err)
	}
}

func TestErrUnsupportedSurvivesBatch(t *testing.T) {
	spec := hetjpeg.PlatformByName("GTX 560")
	res, err := hetjpeg.DecodeBatch([][]byte{testJPEG(t, 64, 48), unsupportedJPEG(t)},
		hetjpeg.BatchOptions{Spec: spec, Mode: hetjpeg.ModeSequential, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", res.Failed)
	}
	for _, ir := range res.Images {
		switch ir.Index {
		case 0:
			if ir.Err != nil {
				t.Fatalf("good image failed: %v", ir.Err)
			}
			ir.Res.Release()
		case 1:
			if ir.Err == nil {
				t.Fatal("12-bit stream decoded without error in batch")
			}
			if !errors.Is(ir.Err, hetjpeg.ErrUnsupported) {
				t.Fatalf("errors.Is(ir.Err, ErrUnsupported) = false through the batch layer; err = %v", ir.Err)
			}
		}
	}
}

// salvageableJPEG encodes with restart markers and truncates inside the
// entropy data: corrupt enough that strict decoding fails, recoverable
// enough that salvage produces a partial image.
func salvageableJPEG(t testing.TB) []byte {
	t.Helper()
	img := hetjpeg.NewImage(160, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 160; x++ {
			img.Set(x, y, byte(x*2), byte(y*2), byte(x+y))
		}
	}
	data, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{
		Quality: 85, Subsampling: hetjpeg.Sub420, RestartInterval: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data[:len(data)*3/4]
}

func TestErrPartialDataSurvivesDecode(t *testing.T) {
	spec := hetjpeg.PlatformByName("GTX 560")
	data := salvageableJPEG(t)

	// Strict: a corrupt stream fails outright, no partial sentinel.
	if _, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: hetjpeg.ModeSequential, Spec: spec}); err == nil {
		t.Fatal("strict decode of a truncated stream succeeded")
	} else if errors.Is(err, hetjpeg.ErrPartialData) {
		t.Fatalf("strict decode reported ErrPartialData: %v", err)
	}

	res, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: hetjpeg.ModeSequential, Spec: spec, Salvage: true})
	if err == nil {
		t.Fatal("salvage decode of a truncated stream reported no error")
	}
	if !errors.Is(err, hetjpeg.ErrPartialData) {
		t.Fatalf("errors.Is(err, ErrPartialData) = false; err = %v", err)
	}
	if res == nil || res.Image == nil {
		t.Fatal("salvage decode returned no usable result alongside ErrPartialData")
	}
	if res.Salvage == nil || !res.Salvage.Impaired() {
		t.Fatalf("Result.Salvage = %+v, want an impaired report", res.Salvage)
	}
	if res.Salvage.RecoveredMCUs <= 0 || res.Salvage.RecoveredMCUs >= res.Salvage.TotalMCUs {
		t.Fatalf("recovered %d of %d MCUs, want a strict partial recovery",
			res.Salvage.RecoveredMCUs, res.Salvage.TotalMCUs)
	}
	res.Release()
}

func TestErrPartialDataSurvivesBatch(t *testing.T) {
	spec := hetjpeg.PlatformByName("GTX 560")
	res, err := hetjpeg.DecodeBatch([][]byte{testJPEG(t, 64, 48), salvageableJPEG(t)},
		hetjpeg.BatchOptions{Spec: spec, Mode: hetjpeg.ModeSequential, Workers: 2, Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Salvaged != 1 {
		t.Fatalf("Failed = %d, Salvaged = %d; want 0, 1", res.Failed, res.Salvaged)
	}
	for _, ir := range res.Images {
		switch ir.Index {
		case 0:
			if ir.Err != nil {
				t.Fatalf("good image failed: %v", ir.Err)
			}
			ir.Res.Release()
		case 1:
			if ir.Res == nil {
				t.Fatalf("salvaged image delivered no result: %v", ir.Err)
			}
			if !errors.Is(ir.Err, hetjpeg.ErrPartialData) {
				t.Fatalf("errors.Is(ir.Err, ErrPartialData) = false through the batch layer; err = %v", ir.Err)
			}
			ir.Res.Release()
		}
	}
}

func TestErrUnsupportedScaleSurvivesDecode(t *testing.T) {
	spec := hetjpeg.PlatformByName("GTX 560")
	_, err := hetjpeg.Decode(testJPEG(t, 64, 48),
		hetjpeg.Options{Mode: hetjpeg.ModeSequential, Spec: spec, Scale: hetjpeg.Scale(3)})
	if err == nil {
		t.Fatal("scale 1/3 decoded without error")
	}
	if !errors.Is(err, hetjpeg.ErrUnsupportedScale) {
		t.Fatalf("errors.Is(err, ErrUnsupportedScale) = false; err = %v", err)
	}
}

func TestErrUnsupportedScaleSurvivesBatch(t *testing.T) {
	spec := hetjpeg.PlatformByName("GTX 560")
	_, err := hetjpeg.DecodeBatch([][]byte{testJPEG(t, 64, 48)},
		hetjpeg.BatchOptions{Spec: spec, Mode: hetjpeg.ModeSequential, Scale: hetjpeg.Scale(3)})
	if err == nil {
		t.Fatal("scale 1/3 batch started without error")
	}
	if !errors.Is(err, hetjpeg.ErrUnsupportedScale) {
		t.Fatalf("errors.Is(err, ErrUnsupportedScale) = false through the batch layer; err = %v", err)
	}
}
