package core

// Regression coverage for cancellation latency: EntropyDecode promises
// to poll its context every pollRows (32) MCU rows, so a cancelled
// request must abandon a large image within that bound — not decode to
// completion first. The imaged service's deadline propagation (503 on
// timeout without burning the rest of the decode) depends on this.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/platform"
)

// entropyPollRows mirrors the pollRows constant in EntropyDecode; if
// the pipeline changes its polling cadence this test's bound moves with
// the failure message, not silently.
const entropyPollRows = 32

// pollCountCtx implements context.Context with an Err that flips to
// Canceled on its Nth call — a deterministic way to cancel "mid-decode"
// at an exact poll, independent of machine speed.
type pollCountCtx struct {
	context.Context
	polls     atomic.Int64
	cancelAt  int64
	cancelled atomic.Bool
}

func (c *pollCountCtx) Err() error {
	if c.polls.Add(1) >= c.cancelAt {
		c.cancelled.Store(true)
		return context.Canceled
	}
	return nil
}

func largeFixture(t *testing.T, w, h int) []byte {
	t.Helper()
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.9, [][2]int{{w, h}}, 977)
	if err != nil {
		t.Fatal(err)
	}
	return items[0].Data
}

func TestEntropyDecodeCancelsWithinPollBound(t *testing.T) {
	data := largeFixture(t, 1024, 2048)
	p, err := Prepare(data, Options{Spec: platform.GTX560(), Mode: ModePipelinedGPU})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	total := p.Frame().MCURows
	if total < 8*entropyPollRows {
		t.Fatalf("fixture too small for the bound: %d MCU rows", total)
	}

	const cancelAtPoll = 3
	ctx := &pollCountCtx{Context: context.Background(), cancelAt: cancelAtPoll}
	if err := p.EntropyDecode(ctx); err != context.Canceled {
		t.Fatalf("EntropyDecode = %v, want context.Canceled", err)
	}
	// Cancellation surfaced on poll N: at most N-1 batches of pollRows
	// rows were decoded before it, and none after.
	rows := p.st.ed.Row()
	if maxRows := (cancelAtPoll - 1) * entropyPollRows; rows > maxRows {
		t.Errorf("decoded %d MCU rows after cancelling at poll %d, want <= %d: the poll cadence regressed past %d rows",
			rows, cancelAtPoll, maxRows, entropyPollRows)
	}
	if rows >= total {
		t.Errorf("cancelled decode ran to completion (%d/%d rows)", rows, total)
	}
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
		// bounded-rows test above still pins the contract.
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
