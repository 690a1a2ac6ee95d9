package batch

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"hetjpeg/internal/core"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
)

// The entropy→band handoff, observed through testHook. Every test runs
// one image on two workers: the owner decodes its entropy stream and
// the other worker steals the bands it pushes. A hook that blocks in
// evStep holds the entropy stage at a chosen point, so what runs while
// it waits is fixed by the code, not by timing.

// handoffRun decodes data on a fresh two-worker executor with hook
// installed as testHook and returns the result; the executor's
// goroutines are gone when it returns.
func handoffRun(t *testing.T, ctx context.Context, data []byte, hook func(s *bandScheduler, ev hookEvent, img *flightImage, pushed int)) ImageResult {
	t.Helper()
	before := runtime.NumGoroutine()
	var ex *Executor
	testHook = func(ev hookEvent, img *flightImage, pushed int) { hook(ex.bands, ev, img, pushed) }
	ex, err := NewExecutor(Options{Spec: platform.GTX560(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ir, err := ex.Decode(ctx, data, jpegcodec.Scale1)
	if err != nil {
		t.Fatal(err)
	}
	ex.Close()
	for range ex.Results() {
	}
	testHook = nil
	// Results closes as the executor's last goroutine returns, so that
	// goroutine may still be exiting: wait for it, as a leaked one never
	// exits.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the decode, %d before", n, before)
	}
	return ir
}

// awaitBand blocks until ch closes: a band of the image has started.
func awaitBand(t *testing.T, ch <-chan struct{}) {
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Error("no band started while the entropy stage waited")
	}
}

func handoffFixture(t *testing.T, progressive bool) []byte {
	t.Helper()
	img := imagegen.Generate(imagegen.Scene{Seed: 11, Detail: 0.6}, 320, 240)
	defer img.Release()
	data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, Progressive: progressive})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A baseline image's first ready band runs while its entropy stage is
// still decoding: the stage waits after publishing it until it starts.
func TestHandoffBandBeforeEntropyEnds(t *testing.T) {
	data := handoffFixture(t, false)
	started := make(chan struct{})
	var once sync.Once
	var held, overlapped bool
	ir := handoffRun(t, context.Background(), data, func(_ *bandScheduler, ev hookEvent, img *flightImage, pushed int) {
		switch ev {
		case evStep:
			if pushed > 0 && !held {
				held = true
				awaitBand(t, started)
			}
		case evBand:
			overlapped = overlapped || img.decoding
			once.Do(func() { close(started) })
		}
	})
	if ir.Err != nil {
		t.Fatal(ir.Err)
	}
	defer ir.Res.Release()
	if !held || !overlapped {
		t.Errorf("no band ran during the entropy stage (held %v, overlapped %v)", held, overlapped)
	}
	want, err := jpegcodec.DecodeScalar(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ir.Res.Image.Pix, want.Pix) {
		t.Error("pixels differ from the sequential decode")
	}
	want.Release()
}

// A progressive image's coefficients are final only after its last
// scan: every entropy step before it publishes nothing, and no band
// starts while the stage runs.
func TestHandoffProgressiveWaitsForLastScan(t *testing.T) {
	data := handoffFixture(t, true)
	steps := 0
	ir := handoffRun(t, context.Background(), data, func(_ *bandScheduler, ev hookEvent, img *flightImage, pushed int) {
		switch ev {
		case evStep:
			steps++
			if pushed != 0 {
				t.Errorf("step %d: %d bands published before the last scan", steps-1, pushed)
			}
		case evBand:
			if img.decoding {
				t.Error("a band started before the last scan")
			}
		}
	})
	if ir.Err != nil {
		t.Fatal(ir.Err)
	}
	defer ir.Res.Release()
	if steps < 2 {
		t.Errorf("%d entropy steps: the fixture does not exercise the scans", steps)
	}
	want, err := jpegcodec.DecodeScalar(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ir.Res.Image.Pix, want.Pix) {
		t.Error("pixels differ from the sequential decode")
	}
	want.Release()
}

// failureHook holds the entropy stage after its first published band
// until that band started, then lets fire end the decode (nil: the
// stream's own error does), and checks that no band starts once the
// failure was seen and that the buffers go back exactly once.
type failureHook struct {
	t        *testing.T
	fire     func(s *bandScheduler)
	started  chan struct{}
	once     sync.Once
	held     bool
	bands    int
	failed   bool
	released int
}

func (h *failureHook) observe(s *bandScheduler, ev hookEvent, img *flightImage, pushed int) {
	switch ev {
	case evStep:
		if pushed > 0 && !h.held {
			h.held = true
			awaitBand(h.t, h.started)
			if h.fire != nil {
				h.fire(s)
			}
		}
	case evBand:
		if h.failed {
			h.t.Error("a band started after the failure was seen")
		}
		h.bands++
		h.once.Do(func() { close(h.started) })
	case evFail:
		h.failed = true
	case evRelease:
		h.released++
	}
}

func (h *failureHook) check(ir ImageResult) {
	h.t.Helper()
	if ir.Res != nil {
		h.t.Fatal("a failed decode delivered a result")
	}
	if !h.held || h.bands == 0 {
		h.t.Errorf("the failure came before any band was in flight (held %v, bands %d)", h.held, h.bands)
	}
	if !h.failed || h.released != 1 {
		h.t.Errorf("failure seen %v, buffers released %d times; want once", h.failed, h.released)
	}
}

// A strict entropy error in the middle of the stream, with bands of the
// image already run, fails the image with core.Decode's error.
func TestHandoffStrictErrorMidStream(t *testing.T) {
	data := handoffFixture(t, false)
	cut := data[:len(data)*2/3]
	_, want := core.Decode(cut, core.Options{Spec: platform.GTX560()})
	if want == nil {
		t.Fatal("the truncated fixture decodes")
	}
	h := &failureHook{t: t, started: make(chan struct{})}
	ir := handoffRun(t, context.Background(), cut, h.observe)
	h.check(ir)
	if ir.Err == nil || ir.Err.Error() != "batch: image 0: "+want.Error() {
		t.Errorf("error %v, want core.Decode's %v", ir.Err, want)
	}
}

// A request cancelled mid-entropy, with bands of the image already run,
// fails with context.Canceled: neither the entropy stage nor any queued
// band goes on.
func TestHandoffCancelMidEntropy(t *testing.T) {
	data := handoffFixture(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := &failureHook{t: t, started: make(chan struct{})}
	h.fire = func(s *bandScheduler) {
		// Cancel under the scheduling lock: a band either started
		// before the cancel or sees it.
		s.mu.Lock()
		cancel()
		h.failed = true
		s.mu.Unlock()
	}
	ir := handoffRun(t, ctx, data, h.observe)
	h.check(ir)
	if !errors.Is(ir.Err, context.Canceled) {
		t.Errorf("error %v, want context.Canceled", ir.Err)
	}
}
