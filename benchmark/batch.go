package main

import (
	"context"
	"fmt"
	"time"

	"hetjpeg"
)

// platformName is the simulated machine the executor and the service
// are configured with; the wall-clock path ignores everything about it
// but needs one.
const platformName = "GTX 560"

func newExecutor(workers int) (*hetjpeg.BatchExecutor, error) {
	return hetjpeg.NewBatchExecutor(hetjpeg.BatchOptions{
		Spec:    hetjpeg.PlatformByName(platformName),
		Mode:    hetjpeg.ModePipelinedGPU,
		Workers: workers,
	})
}

// stopExecutor closes the executor and waits until its pipeline has
// drained, releasing anything still undelivered.
func stopExecutor(ex *hetjpeg.BatchExecutor) {
	ex.Stop()
	for r := range ex.Results() {
		if r.Res != nil {
			r.Res.Release()
		}
	}
}

// batchRun is what one pass of a batch through an executor observed.
type batchRun struct {
	wallNs        int64
	submitBlockNs []int64
}

// runBatch submits the ops in order from the calling goroutine and
// collects their results on another. An op's latency runs from its
// Submit call to the arrival of its result; the result is checked and
// released after that clock has stopped.
func runBatch(ex *hetjpeg.BatchExecutor, c *corpus, order []int, s *samples, rec *recorder, seq int32) batchRun {
	ctx := context.Background()
	root := rec.begin("op."+c.Workload, -1, seq)
	// The executor echoes the position in order, not the op: a probe
	// batch may hold the same op several times.
	submitted := make([]time.Time, len(order))
	expected := make(chan int, 1)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		want, got := -1, 0
		for want < 0 || got < want {
			select {
			case want = <-expected:
			case r := <-ex.Results():
				now := time.Now()
				got++
				idx := order[r.Index]
				o := &c.Ops[idx]
				rec.add("batch.image", root, seq, submitted[r.Index], now)
				err := r.Err
				if r.Res != nil {
					if err == nil {
						err = c.check(o, imageOutput(r.Res.Image))
					}
					r.Res.Release()
				} else if err == nil {
					err = fmt.Errorf("%s: no result and no error", o.Name)
				}
				s.done(idx, now.Sub(submitted[r.Index]).Nanoseconds(), c.mpixOf(o), err)
				s.opWrapped = append(s.opWrapped, rec != nil)
			}
		}
	}()

	run := batchRun{submitBlockNs: make([]int64, 0, len(order))}
	start := time.Now()
	accepted := 0
	var refused []error
	for k, idx := range order {
		o := &c.Ops[idx]
		id := rec.begin("batch.submit_block", root, seq)
		submitted[k] = time.Now()
		var err error
		if o.Scale == 1 {
			err = ex.Submit(ctx, k, c.Items[o.Item].Data)
		} else {
			err = ex.SubmitScaled(ctx, k, c.Items[o.Item].Data, hetjpeg.Scale(o.Scale))
		}
		run.submitBlockNs = append(run.submitBlockNs, time.Since(submitted[k]).Nanoseconds())
		rec.end(id)
		if err != nil {
			refused = append(refused, fmt.Errorf("%s: submit: %w", o.Name, err))
			continue
		}
		accepted++
	}
	expected <- accepted
	<-collected
	run.wallNs = time.Since(start).Nanoseconds()
	rec.end(root)
	// The collector has finished, so the samples are this goroutine's
	// again.
	for _, err := range refused {
		s.done(0, 0, 0, err)
		s.opWrapped = append(s.opWrapped, rec != nil)
	}
	return run
}

// batchWorkload resubmits the gallery batch to one long-lived executor
// until the window ends.
type batchWorkload struct {
	c       *corpus
	workers int
	ex      *hetjpeg.BatchExecutor
	batches int32 // batches run so far: the span id of the next
}

func newBatchWorkload(c *corpus, workers int) (*batchWorkload, error) {
	ex, err := newExecutor(workers)
	if err != nil {
		return nil, err
	}
	return &batchWorkload{c: c, workers: workers, ex: ex}, nil
}

func (w *batchWorkload) close() { stopExecutor(w.ex) }

func (w *batchWorkload) warmup() error {
	s := newSamples(len(w.c.Ops))
	runBatch(w.ex, w.c, w.c.Cycle, s, nil, 0)
	if s.failed > 0 {
		return fmt.Errorf("warm-up: %s", s.failures[0])
	}
	return nil
}

func (w *batchWorkload) run(window time.Duration, _ int, s *samples, rec *recorder) {
	deadline := time.Now().Add(window)
	for n := 0; n == 0 || time.Now().Before(deadline); n, w.batches = n+1, w.batches+1 {
		r := rec
		if w.batches%2 == 1 {
			r = nil
		}
		runBatch(w.ex, w.c, w.c.Cycle, s, r, w.batches)
	}
}

// decompose decodes the batch's images one after another through the
// public pieces: the sequential cost the scheduler's wall time is set
// against.
func (w *batchWorkload) decompose(window time.Duration, s *samples, rec *recorder) {
	deadline := time.Now().Add(window)
	for n := 0; n%len(w.c.Cycle) != 0 || n == 0 || time.Now().Before(deadline); n++ {
		idx := w.c.Cycle[n%len(w.c.Cycle)]
		o := &w.c.Ops[idx]
		seq := int32(len(s.opNs))
		id := rec.begin("op.sequential", -1, seq)
		out, err := decomposedOp(w.c, o, rec, id, seq)
		ns := rec.end(id)
		if err == nil {
			err = w.c.check(o, out)
			out.release()
		}
		s.done(idx, ns, w.c.mpixOf(o), err)
	}
}
