package batch

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
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
//     back-phase time — bounded by MaxInFlight (whole-image buffers are
//     the memory cost of an in-flight image).
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
// slack, clamped to the memory bound.
func (c *calibrator) inflightTarget(workers, maxInflight int) int {
	t := minInflight + workers/2 // cold start
	e, b := c.entPerMCU.Max(), c.backPerMCU.Max()
	if e > 0 && b > 0 {
		t = int(float64(workers)*e/(e+b)+0.5) + minInflight
	}
	if t < minInflight {
		t = minInflight
	}
	if t > maxInflight {
		t = maxInflight
	}
	return t
}

// flightImage is one image between entropy start and result delivery.
type flightImage struct {
	ctx   context.Context
	index int
	reply chan ImageResult // Decode's own channel (job.reply), or nil
	dec   *jpegcodec.Decode
	plan  *jpegcodec.BandPlan
	// The rest is guarded by bandScheduler.mu, but band i's runner alone
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

// bandScheduler is the two-stage pipelined engine behind Executor.
type bandScheduler struct {
	opts        Options
	workers     int
	maxInflight int
	results     chan<- ImageResult
	// stopc mirrors Executor.stopc: once closed, deliveries to an
	// abandoned Results reader are discarded instead of blocking.
	stopc <-chan struct{}

	mu         sync.Mutex
	cond       *sync.Cond
	entropyQ   []job        // accepted images awaiting stage 1
	deques     [][]bandTask // per-worker band deques
	inflight   int          // images between acceptance and delivery
	target     int          // calibrated in-flight budget
	intakeDone bool
	cal        calibrator
}

func newBandScheduler(opts Options, workers int, results chan<- ImageResult, stopc <-chan struct{}) *bandScheduler {
	s := &bandScheduler{
		opts:        opts,
		workers:     workers,
		maxInflight: opts.maxInflight(),
		results:     results,
		stopc:       stopc,
		deques:      make([][]bandTask, workers),
	}
	s.cond = sync.NewCond(&s.mu)
	s.target = s.cal.inflightTarget(workers, s.maxInflight)
	return s
}

// queueStats snapshots occupancy and calibration under the scheduling
// lock.
func (s *bandScheduler) queueStats() QueueStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return QueueStats{
		InFlight:        s.inflight,
		Target:          s.target,
		Queued:          len(s.entropyQ),
		EntropyNsPerMCU: s.cal.entPerMCU.Max(),
		BackNsPerMCU:    s.cal.backPerMCU.Max(),
		BytesPerMCU:     s.cal.bytesPerMCU.Value(),
	}
}

// intake accepts submitted jobs into the pipeline, blocking while the
// in-flight budget is spent — the backpressure Submit callers feel.
func (s *bandScheduler) intake(jobs <-chan job, wg *sync.WaitGroup) {
	defer wg.Done()
	for j := range jobs {
		s.mu.Lock()
		for s.inflight >= s.target {
			s.cond.Wait()
		}
		s.inflight++
		s.entropyQ = append(s.entropyQ, j)
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.intakeDone = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// worker is one pool goroutine. Band tasks come first (own deque, then
// stealing); with no bands runnable it starts the next image's entropy
// stream; with nothing at all it sleeps until the state changes.
func (s *bandScheduler) worker(id int, wg *sync.WaitGroup) {
	defer wg.Done()
	scratch := &jpegcodec.ConvertScratch{}
	s.mu.Lock()
	for {
		if t, ok := s.take(id); ok {
			s.runBand(t, scratch)
			continue
		}
		if len(s.entropyQ) > 0 {
			j := s.entropyQ[0]
			s.entropyQ[0] = job{} // the queue's array must not pin the input
			s.entropyQ = s.entropyQ[1:]
			s.runEntropy(id, j)
			continue
		}
		if s.intakeDone && s.inflight == 0 {
			break
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// take pops a band task: newest from the worker's own deque (cache-hot
// LIFO), else the oldest from the longest other deque (steal FIFO). The
// slot it leaves is cleared, so a deque's array does not pin a finished
// image. Caller holds mu.
func (s *bandScheduler) take(id int) (bandTask, bool) {
	if d := s.deques[id]; len(d) > 0 {
		t := d[len(d)-1]
		d[len(d)-1] = bandTask{}
		s.deques[id] = d[:len(d)-1]
		return t, true
	}
	victim, best := -1, 0
	for i, d := range s.deques {
		if i != id && len(d) > best {
			victim, best = i, len(d)
		}
	}
	if victim < 0 {
		return bandTask{}, false
	}
	d := s.deques[victim]
	t := d[0]
	d[0] = bandTask{}
	s.deques[victim] = d[1:]
	return t, true
}

// runEntropy executes stage 1 for one image: it plans the image's
// bands, then entropy-decodes it a band at a time, pushing each band
// onto the worker's own deque as soon as its rows are decoded. Called
// and returns with mu held.
func (s *bandScheduler) runEntropy(id int, j job) {
	s.mu.Unlock()
	err := j.ctx.Err()
	var dec *jpegcodec.Decode
	if err == nil {
		dec, err = jpegcodec.Open(j.data, jpegcodec.Options{Scale: j.scale, Salvage: s.opts.Salvage})
	}
	s.mu.Lock()
	if err != nil {
		s.deliver(ImageResult{Index: j.index, Err: s.wrap(j, err)}, j.reply)
		return
	}
	f := dec.Frame()
	plan := jpegcodec.PlanBands(f, 0, f.MCURows, s.cal.bandRows(f, s.workers))
	img := &flightImage{
		ctx: j.ctx, index: j.index, reply: j.reply, dec: dec, plan: plan,
		decoding: true,
		bandNs:   make([]float64, plan.Bands()),
	}
	var entNs float64
	var from, to int
	for img.err == nil && !dec.Done() {
		s.mu.Unlock()
		hook(evStep, img, to-from)
		t0 := time.Now()
		from, to, err = dec.Step(j.ctx, plan)
		entNs += float64(time.Since(t0))
		s.mu.Lock()
		if err != nil {
			s.fail(img, s.wrap(j, err))
			break
		}
		for i := from; i < to; i++ {
			s.deques[id] = append(s.deques[id], bandTask{img: img, band: i})
		}
		img.remaining += to - from
		s.cond.Broadcast()
	}
	img.decoding = false
	if img.err == nil && !dec.SalvageReport().Impaired() {
		// A salvaged stream lost entropy bytes: its measured rate would
		// drag the EWMA below the cost of intact traffic.
		mcus := float64(f.MCURows * f.MCUsPerRow)
		s.cal.entPerMCU.At(entropySlot(f)).Observe(entNs / mcus)
		s.cal.bytesPerMCU.Observe(float64(len(j.data)) / mcus)
	}
	s.target = s.cal.inflightTarget(s.workers, s.maxInflight)
	if img.remaining == 0 {
		s.complete(img)
	}
}

// wrap names the image in a decode error; a cancelled request reports
// its context's error as it is.
func (s *bandScheduler) wrap(j job, err error) error {
	if j.ctx.Err() != nil {
		return err
	}
	return fmt.Errorf("batch: image %d: %w", j.index, err)
}

// fail records img's first failure. Caller holds mu.
func (s *bandScheduler) fail(img *flightImage, err error) {
	if img.err == nil {
		img.err = err
		hook(evFail, img, 0)
	}
}

// runBand executes one band task, unless its image failed or its
// request was cancelled, and completes the image after its last band.
// Called and returns with mu held.
func (s *bandScheduler) runBand(t bandTask, scratch *jpegcodec.ConvertScratch) {
	img := t.img
	if err := img.ctx.Err(); err != nil {
		s.fail(img, err)
	}
	run := img.err == nil
	if run {
		hook(evBand, img, 0)
	}
	s.mu.Unlock()
	if run {
		t0 := time.Now()
		img.plan.ExecBand(t.band, img.dec.Output(), scratch)
		img.bandNs[t.band] = float64(time.Since(t0))
	}
	s.mu.Lock()
	img.remaining--
	if img.remaining == 0 && !img.decoding {
		s.complete(img)
	}
}

// complete finishes an image whose entropy stage and bands all ended:
// delivery, or buffer release on failure. A salvaged image delivers
// with BOTH Res and Err set; its bands render zeroed MCUs through the
// DC-flat fast path, so only an intact image's bands are observations
// of the back-phase EWMA, one each.
// Called and returns with mu held.
func (s *bandScheduler) complete(img *flightImage) {
	err := img.err
	if f := img.dec.Frame(); err == nil && !img.dec.SalvageReport().Impaired() {
		rate := s.cal.backPerMCU.At(scaleSlot(f.Scale))
		for i, ns := range img.bandNs {
			rate.Observe(ns / float64(img.plan.BandMCURows(i)*f.MCUsPerRow))
		}
	}
	s.mu.Unlock()
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
	s.mu.Lock()
	s.deliver(ir, img.reply)
}

// deliver sends one result and retires its in-flight slot: to the
// image's reply channel when it has one (1-buffered, so the send never
// blocks), otherwise to the shared Results stream. Called and returns
// with mu held (the send itself is unlocked). After Stop the Results
// reader may be gone: the result is discarded and its buffers released
// so the pipeline always drains.
func (s *bandScheduler) deliver(ir ImageResult, reply chan<- ImageResult) {
	s.mu.Unlock()
	if reply != nil {
		reply <- ir
	} else {
		select {
		case s.results <- ir:
		case <-s.stopc:
			if ir.Res != nil {
				ir.Res.Release()
			}
		}
	}
	s.mu.Lock()
	s.inflight--
	s.cond.Broadcast()
}
