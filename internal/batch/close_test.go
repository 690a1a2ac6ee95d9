package batch

// Lifecycle-contract coverage for the Executor: Submit racing Close
// must never panic (no send on a closed channel — ErrClosed instead),
// a caller that abandons Results must have a no-leak escape hatch
// (Stop), and Decode's reply must reach its caller alone, never the
// shared Results stream. CI runs these under -race explicitly.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetjpeg/internal/core"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
)

func executorOpts(workers, maxInflight int) Options {
	return Options{
		Spec:        platform.GTX560(),
		Mode:        core.ModePipelinedGPU,
		Workers:     workers,
		MaxInFlight: maxInflight,
	}
}

func TestSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	ex, err := NewExecutor(executorOpts(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	ex.Close()
	if err := ex.Submit(context.Background(), 0, corpus(t, 1)[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: got %v, want ErrClosed", err)
	}
	if _, err := ex.Decode(context.Background(), corpus(t, 1)[0], jpegcodec.Scale1); !errors.Is(err, ErrClosed) {
		t.Errorf("Decode after Close: got %v, want ErrClosed", err)
	}
	for range ex.Results() {
		t.Error("unexpected result from empty executor")
	}
}

// TestSubmitRacesClose hammers the Submit/Close race: every Submit must
// either be admitted (and its result delivered exactly once before
// Results closes) or return ErrClosed — never panic, never vanish.
func TestSubmitRacesClose(t *testing.T) {
	data := corpus(t, 1)[0]
	for round := 0; round < 8; round++ {
		ex, err := NewExecutor(executorOpts(2, 0))
		if err != nil {
			t.Fatal(err)
		}
		const submitters = 8
		var admitted, refused atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				err := ex.Submit(context.Background(), g, data)
				switch {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, ErrClosed):
					refused.Add(1)
				default:
					t.Errorf("unexpected Submit error: %v", err)
				}
			}(g)
		}
		delivered := make(chan int)
		go func() {
			n := 0
			for range ex.Results() {
				n++
			}
			delivered <- n
		}()
		close(start)
		// No sleep: Close lands while some submits are mid-flight.
		ex.Close()
		wg.Wait()
		got := <-delivered
		if int64(got) != admitted.Load() {
			t.Fatalf("%d submits admitted but %d results delivered", admitted.Load(), got)
		}
		if admitted.Load()+refused.Load() != submitters {
			t.Fatalf("%d admitted + %d refused != %d submitters", admitted.Load(), refused.Load(), submitters)
		}
	}
}

// TestStopReleasesAbandonedResults abandons Results entirely: without
// Stop the workers would park forever on the results send; with it they
// must all exit (no goroutine leak) and Results must still close.
func TestStopReleasesAbandonedResults(t *testing.T) {
	datas := corpus(t, 6)
	before := runtime.NumGoroutine()
	ex, err := NewExecutor(executorOpts(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Submit from a goroutine: with nobody reading Results the
	// pipeline clogs, so later Submits block — exactly the state an
	// abandoning caller leaves behind. Stop must unblock them (they
	// return ErrClosed) and drain the rest.
	ctx := context.Background()
	submitsDone := make(chan struct{})
	go func() {
		defer close(submitsDone)
		for i, d := range datas {
			if err := ex.Submit(ctx, i, d); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("submit %d: %v", i, err)
			}
		}
	}()
	// Deliberately never read Results; give some decodes time to land
	// in the results buffer before abandoning.
	time.Sleep(100 * time.Millisecond)
	ex.Stop()
	select {
	case <-submitsDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Submit still blocked after Stop")
	}
	// Results must still close so a late reader cannot hang.
	select {
	case _, ok := <-waitClosed(ex.Results()):
		if ok {
			t.Fatal("waitClosed misbehaved")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Results did not close after Stop")
	}
	// All worker goroutines must exit. Allow the runtime a moment to
	// retire them before declaring a leak.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before, %d after Stop (leak)", before, n)
	}
}

// waitClosed adapts "channel closed" into a selectable event: the
// returned channel closes once every pending result has been discarded
// and the executor closed its Results channel.
func waitClosed(results <-chan ImageResult) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		for range results {
			// Discard: Stop may still deliver a few racing results.
		}
		close(done)
	}()
	return done
}

// TestDecodeRepliesBesideStream mixes Decode calls with a Submit
// stream on one executor: each Decode gets its own image back, the
// stream gets exactly the submitted indices, and neither sees the
// other's results. A bad scale fails the call, not an image.
func TestDecodeRepliesBesideStream(t *testing.T) {
	datas := corpus(t, 4)
	ex, err := NewExecutor(executorOpts(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref := make([][]byte, len(datas))
	for i, d := range datas {
		res, err := core.Decode(d, core.Options{Spec: platform.GTX560(), Mode: core.ModePipelinedGPU})
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = bytes.Clone(res.Image.Pix)
		res.Release()
	}

	var wg sync.WaitGroup
	for i, d := range datas {
		wg.Add(1)
		go func(i int, d []byte) {
			defer wg.Done()
			ir, err := ex.Decode(ctx, d, jpegcodec.Scale1)
			if err != nil || ir.Err != nil || ir.Res == nil {
				t.Errorf("Decode %d: (%v, %v)", i, err, ir.Err)
				return
			}
			if !bytes.Equal(ir.Res.Image.Pix, ref[i]) {
				t.Errorf("Decode %d returned another image's pixels", i)
			}
			ir.Res.Release()
		}(i, d)
	}
	go func() {
		for i, d := range datas {
			if err := ex.Submit(ctx, 100+i, d); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
		wg.Wait()
		ex.Close()
	}()
	seen := map[int]bool{}
	for ir := range ex.Results() {
		if ir.Index < 100 || seen[ir.Index] {
			t.Errorf("stream delivered index %d", ir.Index)
		}
		seen[ir.Index] = true
		if ir.Res != nil {
			if !bytes.Equal(ir.Res.Image.Pix, ref[ir.Index-100]) {
				t.Errorf("stream image %d pixels differ", ir.Index)
			}
			ir.Res.Release()
		}
	}
	if len(seen) != len(datas) {
		t.Errorf("stream delivered %d of %d submitted images", len(seen), len(datas))
	}

	ex2, err := NewExecutor(executorOpts(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer ex2.Close()
	if _, err := ex2.Decode(ctx, datas[0], jpegcodec.Scale(3)); !errors.Is(err, jpegcodec.ErrUnsupportedScale) {
		t.Errorf("bad scale: got %v, want ErrUnsupportedScale", err)
	}
}

// TestQueueStatsCalibrates decodes a small batch and checks the
// introspection snapshot: rates seeded by real observations, occupancy
// back to zero once drained — the inputs a service needs for honest
// Retry-After arithmetic.
func TestQueueStatsCalibrates(t *testing.T) {
	datas := corpus(t, 4)
	ex, err := NewExecutor(executorOpts(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s := ex.QueueStats(); s.Target < minInflight {
		t.Errorf("cold target %d below minInflight", s.Target)
	}
	ctx := context.Background()
	go func() {
		for i, d := range datas {
			if err := ex.Submit(ctx, i, d); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
		ex.Close()
	}()
	for ir := range ex.Results() {
		if ir.Err != nil {
			t.Errorf("image %d: %v", ir.Index, ir.Err)
		}
		if ir.Res != nil {
			ir.Res.Release()
		}
	}
	s := ex.QueueStats()
	if s.InFlight != 0 || s.Queued != 0 {
		t.Errorf("drained executor reports occupancy %+v", s)
	}
	if s.EntropyNsPerMCU <= 0 || s.BackNsPerMCU <= 0 || s.BytesPerMCU <= 0 {
		t.Errorf("calibrated rates not observed: %+v", s)
	}
}
