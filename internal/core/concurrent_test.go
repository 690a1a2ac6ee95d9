package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
)

// The batch executor runs Decode from many goroutines at once. Under
// -race this test proves the decoder, the slab pools and the perfmodel
// cache are safe for that: every mode, several goroutines per mode,
// shared spec and model, bit-identical pixels throughout.
func TestDecodeConcurrentAllModes(t *testing.T) {
	spec := platform.GTX560()
	model, err := perfmodel.Default(spec)
	if err != nil {
		t.Fatal(err)
	}
	items, err := imagegen.SizeSweep(jfif.Sub420, 0.5, [][2]int{{320, 240}}, 41)
	if err != nil {
		t.Fatal(err)
	}
	data := items[0].Data
	ref, err := Decode(data, Options{Mode: ModeSequential, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	const perMode = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(AllModes())*perMode)
	for _, mode := range AllModes() {
		for g := 0; g < perMode; g++ {
			wg.Add(1)
			go func(mode Mode) {
				defer wg.Done()
				res, err := Decode(data, Options{Mode: mode, Spec: spec, Model: model})
				if err != nil {
					errs <- fmt.Errorf("%v: %w", mode, err)
					return
				}
				if !bytes.Equal(res.Image.Pix, ref.Image.Pix) {
					errs <- fmt.Errorf("%v: pixels differ under concurrency", mode)
					return
				}
				// Recycle buffers so pooled-slab reuse is itself exercised
				// concurrently.
				res.Release()
			}(mode)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Released buffers must come back from the pool zeroed and usable: a
// decode after Release produces the same pixels as a fresh one, and a
// VirtualOnly decode (which promises a zeroed image) stays zeroed even
// when its buffers are recycled from a real decode's dirty slabs.
func TestReleaseRecyclesSafely(t *testing.T) {
	spec := platform.GTX680()
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.7, [][2]int{{256, 192}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	data := items[0].Data
	ref, err := Decode(data, Options{Mode: ModeSequential, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	refPix := bytes.Clone(ref.Image.Pix)
	ref.Release()
	if ref.Image.Pix != nil || ref.Frame.Coeff[0] != nil {
		t.Fatal("Release left buffers attached")
	}

	again, err := Decode(data, Options{Mode: ModeGPU, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Image.Pix, refPix) {
		t.Fatal("decode into recycled slabs differs")
	}
	again.Release()

	virt, err := Decode(data, Options{Mode: ModeSIMD, Spec: spec, VirtualOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range virt.Image.Pix {
		if p != 0 {
			t.Fatalf("VirtualOnly image dirty at byte %d (recycled slab not zeroed)", i)
		}
	}
}
