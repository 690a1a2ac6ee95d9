package batch

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
)

// This file implements the wall-clock band scheduler: the paper's
// pipelined execution and dynamic partitioning ideas applied to real
// host time across a whole batch. Decoding splits at the pipeline
// boundary into two stages, handed over through a jpegcodec.BandPlan:
//
//   - Stage 1 (entropy): strictly sequential Huffman decoding, one
//     stream per image, several images in flight. Each band whose MCU
//     rows are decoded goes onto the owner's deque at once (a
//     progressive image's all after its last scan).
//   - Stage 2 (back phase): the fused dequant+IDCT / upsample / color
//     pipeline of one MCU-row band.
//
// One pool of workers runs both stages. Band tasks from *all* in-flight
// images share per-worker work-stealing deques (owner pops newest —
// cache-hot after its entropy pass — thieves steal oldest from the
// longest deque), so idle workers run an image's bands while its owner
// still decodes the stream, a multi-megapixel straggler's back phase
// is shredded across every idle worker, and a worker with no bands left
// pulls the next image's entropy stream. Pixels are byte-identical to
// every other execution path. Each image is a jpegcodec.Decode, opened
// and stepped here and nothing else: the scheduler prices no virtual
// time, and a delivered result carries no timeline (the package-level
// Decode prices its results for the reproduction).
//
// Two knobs adapt online instead of being tuned offline:
//
//   - Band size: bands aim at a fixed wall-clock cost (bandTargetNs),
//     derived from an EWMA of measured back-phase ns/MCU, so scheduling
//     overhead stays negligible while stragglers still split finely.
//   - Images in flight: enough concurrent entropy streams to keep the
//     band pool fed — derived from the EWMA ratio of entropy to
//     back-phase time, so between minInflight and workers+minInflight
//     (whole-image buffers are the memory cost of an in-flight image).
//     Submissions wait for this budget under the scheduling lock.
//
// Every EWMA learns from the host clock alone: the correcting half of
// partition.Repartition's feedback loop, against wall time instead of
// virtual time. The offline fit predicts the simulated platform, not
// this host, so it seeds nothing; until the first observation both
// knobs take their cold-start values.

const (
	// bandTargetNs is the wall-clock cost one band task aims for:
	// large enough that deque traffic is noise, small enough that a
	// straggler's tail spreads across the pool.
	bandTargetNs = 200e3
	// minInflight keeps at least one image's entropy overlapping
	// another's back phase — the cross-image pipeline of the package
	// doc, in wall-clock time.
	minInflight = 2
)

// calibrator is the online performance model: EWMA-measured ns/MCU of
// each stage.
//
// Entropy keeps one rate per image class: a progressive image traverses
// its coefficient grid once per scan, so its entropy cost per MCU is a
// multiple of the baseline rate, while a DC-only (baseline 1/8-scale)
// stream skips AC stores and runs cheaper than baseline. Folding the
// classes into one EWMA would make a burst of one class skew band
// sizing and in-flight depth for the others; separate rates keep the
// calibration honest under mixed traffic, and in-flight sizing takes
// the largest. The back phase learns one rate per decode scale: a
// DC-only band is orders of magnitude cheaper per MCU than a full-size
// band.
type calibrator struct {
	entPerMCU  perfmodel.RateSet // stage 1: entropy ns per MCU, by entropySlot
	backPerMCU perfmodel.RateSet // stage 2: back-phase ns per MCU, by scaleSlot
	// bytesPerMCU converts input bytes into estimated MCU counts — the
	// bridge a service needs to turn "this many bytes are pending" into
	// "this long until the queue drains" (Retry-After) using the ns/MCU
	// rates above. Observed per intact image at entropy completion.
	bytesPerMCU perfmodel.OnlineRate
}

// Entropy rate slots.
const (
	entBaseline = iota
	entProgressive
	entDCOnly
)

// entropySlot returns the entropy rate slot of a frame's class.
func entropySlot(f *jpegcodec.Frame) int {
	switch {
	case f.Img.Progressive:
		return entProgressive
	case f.DCOnly():
		return entDCOnly
	}
	return entBaseline
}

// scaleSlot returns the back-phase rate slot of a scale denominator:
// 1, 2, 4 and 8 take slots 0 to 3.
func scaleSlot(scale int) int { return bits.TrailingZeros(uint(scale)) }

// bandRows sizes one image's band tasks from the calibrated back-phase
// rate of its decode scale: aim for bandTargetNs per band, but never
// coarser than one band per worker (a lone straggler must still shred
// across the pool).
func (c *calibrator) bandRows(f *jpegcodec.Frame, workers int) int {
	rows := f.MCURows
	br := 1
	if per := c.backPerMCU.At(scaleSlot(f.Scale)).Value(); per > 0 {
		br = int(bandTargetNs/(per*float64(f.MCUsPerRow)) + 0.5)
	} else if workers > 0 {
		// Cold start: a few bands per worker.
		br = rows / (4 * workers)
	}
	if br < 1 {
		br = 1
	}
	if workers > 1 {
		if lim := (rows + workers - 1) / workers; br > lim {
			br = lim
		}
	}
	if br > rows {
		br = rows
	}
	return br
}

// inflightTarget chooses how many images may be in flight: the share of
// workers the entropy stage needs to keep the band pool fed (the
// entropy fraction of per-MCU work), plus minInflight of pipeline
// slack. The fraction is at most one, so the target lies in
// [minInflight, workers+minInflight].
func (c *calibrator) inflightTarget(workers int) int {
	e, b := c.entPerMCU.Max(), c.backPerMCU.Max()
	if e > 0 && b > 0 {
		return int(float64(workers)*e/(e+b)+0.5) + minInflight
	}
	return minInflight + workers/2 // cold start
}

// flightImage is one image from admission to result delivery.
type flightImage struct {
	ctx   context.Context
	index int
	data  []byte
	scale jpegcodec.Scale // already validated
	// reply, when set, receives this image's result instead of the
	// shared Results stream. It has room for every result sent to it,
	// so the delivery never blocks.
	reply chan ImageResult
	// Stage 1 sets dec and plan before it pushes a band.
	dec  *jpegcodec.Decode
	plan *jpegcodec.BandPlan
	// The rest is guarded by Executor.mu, but band i's runner alone
	// writes bandNs[i], its wall time. The image completes once stage 1
	// ended and every pushed band finished. No band starts after err is
	// set.
	decoding  bool
	remaining int
	err       error
	bandNs    []float64
}

// hookEvent names a point of the entropy→band handoff that testHook
// observes.
type hookEvent int

const (
	evStep    hookEvent = iota // stage 1 pushed the previous step's bands and decodes on; mu not held
	evBand                     // a band of img starts; mu held
	evFail                     // img.err was just set; mu held
	evRelease                  // the failed img's buffers went back; mu not held
)

// testHook, set only by tests, observes the handoff; pushed is the
// number of bands the previous entropy step pushed (evStep only).
var testHook func(ev hookEvent, img *flightImage, pushed int)

func hook(ev hookEvent, img *flightImage, pushed int) {
	if testHook != nil {
		testHook(ev, img, pushed)
	}
}

// bandTask is one schedulable unit of stage 2.
type bandTask struct {
	img  *flightImage
	band int
}

// worker is one pool goroutine. Band tasks come first (own deque, then
// stealing); with no bands runnable it starts the next image's entropy
// stream; with nothing at all it sleeps until the state changes.
// It exits once the executor is closed and nothing is in flight.
func (e *Executor) worker(id int) {
	defer e.wg.Done()
	scratch := &jpegcodec.ConvertScratch{}
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if t, ok := e.take(id); ok {
			e.runBand(t, scratch)
			continue
		}
		if len(e.entropyQ) > 0 {
			img := e.entropyQ[0]
			e.entropyQ[0] = nil // the queue's array must not pin the input
			e.entropyQ = e.entropyQ[1:]
			e.runEntropy(id, img)
			continue
		}
		if e.closed && e.inflight == 0 {
			return
		}
		e.cond.Wait()
	}
}

// take pops a band task: newest from the worker's own deque (cache-hot
// LIFO), else the oldest from the longest other deque (steal FIFO). The
// slot it leaves is cleared, so a deque's array does not pin a finished
// image. Caller holds mu.
func (e *Executor) take(id int) (bandTask, bool) {
	if d := e.deques[id]; len(d) > 0 {
		t := d[len(d)-1]
		d[len(d)-1] = bandTask{}
		e.deques[id] = d[:len(d)-1]
		return t, true
	}
	victim, best := -1, 0
	for i, d := range e.deques {
		if i != id && len(d) > best {
			victim, best = i, len(d)
		}
	}
	if victim < 0 {
		return bandTask{}, false
	}
	d := e.deques[victim]
	t := d[0]
	d[0] = bandTask{}
	e.deques[victim] = d[1:]
	return t, true
}

// runEntropy executes stage 1 for one image: it plans the image's
// bands, then entropy-decodes it a band at a time, pushing each band
// onto the worker's own deque as soon as its rows are decoded. Called
// and returns with mu held.
func (e *Executor) runEntropy(id int, img *flightImage) {
	e.mu.Unlock()
	err := img.ctx.Err()
	var dec *jpegcodec.Decode
	if err == nil {
		dec, err = jpegcodec.Open(img.data, jpegcodec.Options{Scale: img.scale, Salvage: e.opts.Salvage})
	}
	e.mu.Lock()
	if err != nil {
		e.deliver(img, ImageResult{Index: img.index, Err: e.wrap(img, err)})
		return
	}
	f := dec.Frame()
	plan := jpegcodec.PlanBands(f, 0, f.MCURows, e.cal.bandRows(f, e.workers))
	img.dec, img.plan = dec, plan
	img.decoding = true
	img.bandNs = make([]float64, plan.Bands())
	var entNs float64
	var from, to int
	for img.err == nil && !dec.Done() {
		e.mu.Unlock()
		hook(evStep, img, to-from)
		t0 := time.Now()
		from, to, err = dec.Step(img.ctx, plan)
		entNs += float64(time.Since(t0))
		e.mu.Lock()
		if err != nil {
			e.fail(img, e.wrap(img, err))
			break
		}
		for i := from; i < to; i++ {
			e.deques[id] = append(e.deques[id], bandTask{img: img, band: i})
		}
		img.remaining += to - from
		e.cond.Broadcast()
	}
	img.decoding = false
	if img.err == nil && !dec.SalvageReport().Impaired() {
		// A salvaged stream lost entropy bytes: its measured rate would
		// drag the EWMA below the cost of intact traffic.
		mcus := float64(f.MCURows * f.MCUsPerRow)
		e.cal.entPerMCU.At(entropySlot(f)).Observe(entNs / mcus)
		e.cal.bytesPerMCU.Observe(float64(len(img.data)) / mcus)
	}
	old := e.target
	e.target = e.cal.inflightTarget(e.workers)
	if e.target > old {
		e.cond.Broadcast() // admit a submission waiting for budget
	}
	if img.remaining == 0 {
		e.complete(img)
	}
}

// wrap names the image in a decode error; a cancelled request reports
// its context's error as it is.
func (e *Executor) wrap(img *flightImage, err error) error {
	if img.ctx.Err() != nil {
		return err
	}
	return fmt.Errorf("batch: image %d: %w", img.index, err)
}

// fail records img's first failure. Caller holds mu.
func (e *Executor) fail(img *flightImage, err error) {
	if img.err == nil {
		img.err = err
		hook(evFail, img, 0)
	}
}

// runBand executes one band task, unless its image failed or its
// request was cancelled, and completes the image after its last band.
// Called and returns with mu held.
func (e *Executor) runBand(t bandTask, scratch *jpegcodec.ConvertScratch) {
	img := t.img
	if err := img.ctx.Err(); err != nil {
		e.fail(img, err)
	}
	run := img.err == nil
	if run {
		hook(evBand, img, 0)
	}
	e.mu.Unlock()
	if run {
		t0 := time.Now()
		img.plan.ExecBand(t.band, img.dec.Output(), scratch)
		img.bandNs[t.band] = float64(time.Since(t0))
	}
	e.mu.Lock()
	img.remaining--
	if img.remaining == 0 && !img.decoding {
		e.complete(img)
	}
}

// complete finishes an image whose entropy stage and bands all ended:
// delivery, or buffer release on failure. A salvaged image delivers
// with BOTH Res and Err set; its bands render zeroed MCUs through the
// DC-flat fast path, so only an intact image's bands are observations
// of the back-phase EWMA, one each.
// Called and returns with mu held.
func (e *Executor) complete(img *flightImage) {
	err := img.err
	if f := img.dec.Frame(); err == nil && !img.dec.SalvageReport().Impaired() {
		rate := e.cal.backPerMCU.At(scaleSlot(f.Scale))
		for i, ns := range img.bandNs {
			rate.Observe(ns / float64(img.plan.BandMCURows(i)*f.MCUsPerRow))
		}
	}
	e.mu.Unlock()
	var ir ImageResult
	if err != nil {
		img.dec.Release()
		hook(evRelease, img, 0)
		ir = ImageResult{Index: img.index, Err: err}
	} else {
		// Coefficients and planes are dead once the last band ran; they
		// go back now, not when the consumer is done with the pixels.
		img.dec.Frame().Release()
		ir = delivered(img.index, img.dec)
	}
	e.mu.Lock()
	e.deliver(img, ir)
}

// deliver sends img's result and retires its in-flight slot: to the
// image's reply channel when it has one (the send never blocks),
// otherwise to the shared Results stream. Called and returns
// with mu held (the send itself is unlocked). After Stop the Results
// reader may be gone: the result is discarded and its buffers released
// so the pipeline always drains.
func (e *Executor) deliver(img *flightImage, ir ImageResult) {
	e.mu.Unlock()
	if img.reply != nil {
		img.reply <- ir
	} else {
		select {
		case e.results <- ir:
		case <-e.stopc:
			if ir.Res != nil {
				ir.Res.Release()
			}
		}
	}
	e.mu.Lock()
	e.inflight--
	e.cond.Broadcast()
}
