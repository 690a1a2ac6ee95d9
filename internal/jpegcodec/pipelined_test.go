package jpegcodec

import (
	"bytes"
	"fmt"
	"image"
	stdjpeg "image/jpeg"
	"runtime"
	"testing"
	"time"

	"hetjpeg/internal/faultgen"
	"hetjpeg/internal/jfif"
)

// TestPipelinedDecodeIdentity: a baseline decode at workers >= 2 runs each
// band as soon as the entropy stage has decoded its rows, and must give
// the sequential decode's pixels byte for byte at every subsampling,
// scale and worker count, down to one- and two-MCU-row images, odd sizes
// and restart intervals. Under -race the pool poisons every slab it hands out, so a
// row the back phase read before the entropy stage wrote it shows here.
func TestPipelinedDecodeIdentity(t *testing.T) {
	sizes := [][2]int{{8, 8}, {17, 9}, {16, 32}, {33, 31}, {113, 97}, {200, 152}}
	var streams []struct {
		name string
		data []byte
	}
	add := func(name string, data []byte) {
		streams = append(streams, struct {
			name string
			data []byte
		}{name, data})
	}
	for _, d := range sizes {
		for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
			for _, ri := range []int{0, 7} {
				add(fmt.Sprintf("%dx%d-%v-dri%d", d[0], d[1], sub, ri),
					encodeFixture(t, d[0], d[1], sub, int64(d[0]+ri), func(eo *EncodeOptions) { eo.RestartInterval = ri }))
			}
		}
		add(fmt.Sprintf("%dx%d-gray", d[0], d[1]), grayFixture(t, d[0], d[1]))
	}
	for _, st := range streams {
		for _, s := range allScales {
			ref, err := DecodeScalarScaled(st.data, s)
			if err != nil {
				t.Fatalf("%s scale %v: %v", st.name, s, err)
			}
			for workers := 2; workers <= 4; workers++ {
				got, _, err := DecodeScalarWorkers(st.data, s, workers)
				if err != nil {
					t.Fatalf("%s scale %v workers %d: %v", st.name, s, workers, err)
				}
				if got.W != ref.W || got.H != ref.H || !bytes.Equal(got.Pix, ref.Pix) {
					t.Fatalf("%s scale %v workers %d: pixels differ from the sequential decode", st.name, s, workers)
				}
				got.Release()
			}
			ref.Release()
		}
	}
}

// TestPipelinedDecodeStrictErrors: a truncated or corrupt stream fails the
// pipelined decode with the sequential decode's error, and its crew is
// gone when the call returns; a fault the sequential decode survives
// gives its pixels.
func TestPipelinedDecodeStrictErrors(t *testing.T) {
	data := encodeFixture(t, 96, 80, jfif.Sub420, 5)
	spans := faultgen.EntropySpans(data)
	faults := map[string][]faultgen.Fault{
		"truncated": faultgen.Truncations(data, len(data)/3, 97),
		"corrupt":   faultgen.BitFlips(data, spans[0], 24, 31),
	}
	before := runtime.NumGoroutine()
	for kind, fs := range faults {
		failed := 0
		for _, ft := range fs {
			ref, refErr := DecodeScalar(ft.Data)
			for workers := 2; workers <= 4; workers++ {
				got, _, err := DecodeScalarWorkers(ft.Data, Scale1, workers)
				if refErr != nil {
					if err == nil || err.Error() != refErr.Error() {
						t.Fatalf("%s workers %d: error %v, want %v", ft.Name, workers, err, refErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s workers %d: %v; the sequential decode succeeds", ft.Name, workers, err)
				}
				if !bytes.Equal(got.Pix, ref.Pix) {
					t.Fatalf("%s workers %d: pixels differ from the sequential decode", ft.Name, workers)
				}
				got.Release()
			}
			if refErr != nil {
				failed++
			} else {
				ref.Release()
			}
		}
		if failed == 0 {
			t.Errorf("no %s stream failed the strict decode", kind)
		}
	}
	// A helper signals done as it returns; give it that instant to exit.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed decodes, %d before", n, before)
	}
}

// grayFixture encodes a single-component stream (the encoder writes
// colour only).
func grayFixture(t *testing.T, w, h int) []byte {
	t.Helper()
	g := image.NewGray(image.Rect(0, 0, w, h))
	for i := range g.Pix {
		g.Pix[i] = byte(i * 7 % 251)
	}
	var buf bytes.Buffer
	if err := stdjpeg.Encode(&buf, g, &stdjpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
