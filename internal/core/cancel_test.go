package core

// Regression coverage for cancellation latency: EntropyDecode steps the
// jpegcodec handle, which polls its context every pollRows (32) MCU
// rows (jpegcodec's TestStepCancelsWithinPollBound pins the bound), so
// a cancelled request must abandon a large image long before it could
// have decoded it. The imaged service's deadline propagation (503 on
// timeout without burning the rest of the decode) depends on this.

import (
	"context"
	"testing"
	"time"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/platform"
)

func largeFixture(t *testing.T, w, h int) []byte {
	t.Helper()
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.9, [][2]int{{w, h}}, 977)
	if err != nil {
		t.Fatal(err)
	}
	return items[0].Data
}

// TestEntropyDecodeCancelLatency measures the wall-clock bound: cancel
// a large in-progress decode and require EntropyDecode to return well
// before it could have finished the image. The fixture is sized so the
// full decode takes many polling intervals; the latency budget is
// generous (it only has to beat "decoded the whole rest of the image").
func TestEntropyDecodeCancelLatency(t *testing.T) {
	data := largeFixture(t, 2048, 2048)

	// Baseline: how long the full entropy stage takes uncancelled.
	warm, err := Prepare(data, Options{Spec: platform.GTX560(), Mode: ModePipelinedGPU})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := warm.EntropyDecode(context.Background()); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)
	warm.Release()
	if full < 2*time.Millisecond {
		t.Skipf("full entropy decode only %v on this machine: no room to observe a mid-decode cancel", full)
	}

	p, err := Prepare(data, Options{Spec: platform.GTX560(), Mode: ModePipelinedGPU})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.EntropyDecode(ctx) }()
	// Let the decode get well into the stream, then pull the plug.
	time.Sleep(full / 4)
	cancelled := time.Now()
	cancel()
	err = <-done
	latency := time.Since(cancelled)

	if err == nil {
		// The decode beat the cancel on this run (fast machine): the
		// bounded-rows test in jpegcodec still pins the contract.
		t.Skipf("decode finished in under %v, cancel landed too late", full/4)
	}
	if err != context.Canceled {
		t.Fatalf("EntropyDecode = %v, want context.Canceled", err)
	}
	// The abort must cost at most a few polling intervals, far under
	// finishing the remaining ~3/4 of the image. half the full decode is
	// a loose, machine-independent ceiling.
	if latency > full/2+10*time.Millisecond {
		t.Errorf("cancellation latency %v on a %v decode: poll cadence no longer bounds the abort", latency, full)
	}
}
