package jpegcodec

import (
	"context"
	"sync/atomic"
	"testing"

	"hetjpeg/internal/faultgen"
	"hetjpeg/internal/jfif"
)

// decodeRun is Open at opts and Run on workers goroutines.
func decodeRun(data []byte, opts Options, workers int) (*RGBImage, error) {
	d, err := Open(data, opts)
	if err != nil {
		return nil, err
	}
	return d.Run(workers)
}

// decodeSalvage is the salvage-mode reference decode, Open with Salvage
// and Run(1): the image, the report when the stream was impaired (nil
// for a clean one) and the error, ErrPartialData for an impaired decode.
func decodeSalvage(data []byte) (*RGBImage, *SalvageReport, error) {
	d, err := Open(data, Options{Salvage: true})
	if err != nil {
		return nil, nil, err
	}
	out, err := d.Run(1)
	if rep := d.SalvageReport(); out != nil && rep.Impaired() {
		return out, rep, err
	}
	return out, nil, err
}

// Step hands over a baseline stream's bands one at a time, each as its
// last row lands, and a progressive stream's all at once after its
// last scan. The output is taken with the first ready band, and the
// entropy bits of every row outlive the decoder.
func TestBandPlanStep(t *testing.T) {
	for _, progressive := range []bool{false, true} {
		data, err := Encode(makeTestImage(96, 80, 3), EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, Progressive: progressive})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Open(data, Options{})
		if err != nil {
			t.Fatal(err)
		}
		f := d.Frame()
		bp := PlanBands(f, 0, f.MCURows, 2)
		ready, steps := 0, 0
		for !d.Done() {
			from, to, err := d.Step(nil, bp)
			if err != nil {
				t.Fatal(err)
			}
			steps++
			if from != ready {
				t.Fatalf("progressive %v step %d: from %d, want %d", progressive, steps, from, ready)
			}
			ready = to
			if (d.Output() != nil) != (to > 0) {
				t.Fatalf("progressive %v step %d: output taken %v with %d bands ready", progressive, steps, d.Output() != nil, to)
			}
			switch {
			case progressive && !d.Done() && to != 0:
				t.Fatalf("step %d: %d bands ready before the last scan", steps, to)
			case !progressive && (to != from+1 || !d.Done() && d.ed.Row() != 2*to):
				t.Fatalf("step %d: bands [%d, %d) ready at row %d", steps, from, to, d.ed.Row())
			}
		}
		if ready != bp.Bands() {
			t.Errorf("progressive %v: %d of %d bands ready at the end", progressive, ready, bp.Bands())
		}
		if n := len(f.BitsPerRow); n != f.MCURows {
			t.Errorf("progressive %v: BitsPerRow has %d rows, want %d", progressive, n, f.MCURows)
		}
		d.Release()
	}
}

// TestOpenFailureBeforeFirstBandTakesNoOutput: a stream whose first MCU
// fails never takes its RGB output, whether the caller steps the
// handle or Run drives it with one worker or a crew.
func TestOpenFailureBeforeFirstBandTakesNoOutput(t *testing.T) {
	data := encodeFixture(t, 96, 80, jfif.Sub420, 5)
	bad := append([]byte(nil), data...)
	// Stuffed 0xFF bytes: 32 one bits, which begin no Huffman code.
	start := faultgen.EntropySpans(data)[0].Start
	for i := 0; i < 8; i += 2 {
		bad[start+i], bad[start+i+1] = 0xFF, 0x00
	}
	d, err := Open(bad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bp := PlanBands(d.Frame(), 0, d.Frame().MCURows, 1)
	for err == nil && !d.Done() {
		_, _, err = d.Step(nil, bp)
	}
	if err == nil || d.Output() != nil {
		t.Fatalf("Step: err %v, output taken %v", err, d.Output() != nil)
	}
	d.Release()
	for _, workers := range []int{1, 2} {
		d, err := Open(bad, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(workers); err == nil || d.Output() != nil {
			t.Fatalf("Run(%d): err %v, output taken %v", workers, err, d.Output() != nil)
		}
	}
}

// pollCountCtx implements context.Context with an Err that flips to
// Canceled on its Nth call: a deterministic way to cancel mid-decode at
// an exact poll, independent of machine speed.
type pollCountCtx struct {
	context.Context
	polls    atomic.Int64
	cancelAt int64
}

func (c *pollCountCtx) Err() error {
	if c.polls.Add(1) >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestStepCancelsWithinPollBound: Step polls its context before every
// pollRows rows of work, so a cancelled request abandons a large image
// within that bound instead of decoding it to the end. The service's
// deadline propagation (503 on timeout without burning the rest of the
// decode) depends on this.
func TestStepCancelsWithinPollBound(t *testing.T) {
	data := encodeFixture(t, 1024, 2048, jfif.Sub422, 977)
	d, err := Open(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	f := d.Frame()
	if f.MCURows < 8*pollRows {
		t.Fatalf("fixture too small for the bound: %d MCU rows", f.MCURows)
	}
	const cancelAtPoll = 3
	ctx := &pollCountCtx{Context: context.Background(), cancelAt: cancelAtPoll}
	bp := PlanBands(f, 0, f.MCURows, f.MCURows)
	for err == nil && !d.Done() {
		_, _, err = d.Step(ctx, bp)
	}
	if err != context.Canceled {
		t.Fatalf("Step = %v, want context.Canceled", err)
	}
	// Cancellation surfaced on poll N: at most N-1 steps of pollRows
	// rows ran before it, and none after.
	if rows, maxRows := d.ed.Row(), (cancelAtPoll-1)*pollRows; rows > maxRows {
		t.Errorf("decoded %d MCU rows after cancelling at poll %d, want <= %d", rows, cancelAtPoll, maxRows)
	}
}
