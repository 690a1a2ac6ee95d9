// Package batch extends the paper's single-image pipeline to streams of
// images — the workload its introduction motivates (billions of photos
// viewed through browsers and galleries). It runs in two clocks:
//
// In wall-clock time, one engine — the two-stage pipelined band
// scheduler (scheduler.go) — overlaps sequential entropy decoding of
// several in-flight images with a shared work-stealing pool executing
// MCU-row-band back-phase tasks from all of them, with band size and
// in-flight depth chosen from rates it measures on the host clock.
// Executor.Decode waits for one image; Submit/Results stream many in
// completion order. The executor simulates nothing: its results carry
// pixels, frame geometry and the frame's own statistics, but no virtual
// timeline.
//
// In virtual time, the package-level Decode is the reproduction's entry:
// it runs the executor over a slice, then prices each delivered image
// with core.Price under Options.Mode, Spec and Model, so its pixels and
// virtual timelines are byte-identical to a plain loop of core.Decode.
// Each image's timeline keeps the invariant that entropy decoding is
// sequential per image, and the per-image timelines are merged
// deterministically (in submission order) into a single batch schedule
// in which image k's CPU-side Huffman work overlaps image k-1's
// device-side parallel phase, so the device never drains between
// images. Each image still uses the per-image dynamic partitioning
// (PPS) internally when a model is available.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"hetjpeg/internal/core"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/sim"
)

// ErrClosed reports a submission attempted after Close (or Stop). It is
// a caller lifecycle error, not a per-image decode failure: nothing was
// accepted and no ImageResult will be delivered for it. Check it with
// errors.Is.
var ErrClosed = errors.New("batch: executor closed")

// Options configures a batch decode.
type Options struct {
	// Spec is the simulated machine Decode prices each image on
	// (required by Decode). The Executor ignores it.
	Spec *platform.Spec
	// Model is the fit Decode's SPS and PPS pricing uses. The Executor
	// ignores it: its calibrator learns from the host clock alone.
	Model *perfmodel.Model
	// Mode is the per-image execution mode Decode prices under. The
	// zero value (core.ModeAuto) resolves to ModePPS when a model is
	// present and ModePipelinedGPU otherwise. The Executor ignores it.
	Mode core.Mode
	// Workers bounds the wall-clock decode parallelism (band workers).
	// Zero means runtime.GOMAXPROCS(0). It also sizes the Executor's
	// in-flight image budget, which lies in [2, Workers+2] (see
	// Executor.Submit). The virtual batch timeline is independent of
	// Workers.
	Workers int
	// Scale selects decode-to-scale for the batch's images (the
	// gallery/thumbnailer workload); Executor.SubmitScaled overrides it
	// per image. The zero value decodes full size. The band scheduler's
	// calibrator learns a separate back-phase rate per scale, so
	// mixed-scale executors stay accurately sized.
	Scale jpegcodec.Scale
	// Salvage enables error-resilient decoding per image: a corrupt
	// stream that can be partially recovered delivers an ImageResult
	// with BOTH Res and Err set — Err wraps jpegcodec.ErrPartialData and
	// Res.Salvage describes the damage. Unsalvageable images still fail
	// as usual (Res nil).
	Salvage bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ImageResult is one decoded image of the batch.
//
// Err records that image's failure in isolation: a corrupt JPEG never
// aborts the batch. The other images decode normally and the failed
// one contributes nothing to the merged timeline. With Options.Salvage
// a partially recovered image carries BOTH a usable Res and an Err
// wrapping jpegcodec.ErrPartialData; without it (and for images beyond
// salvage) Err non-nil implies Res nil. Callers iterating a batch must
// therefore check Err per image and treat Res == nil as the true
// failure condition.
type ImageResult struct {
	Index int
	// Res is the decoded image. An executor's result has no virtual
	// timeline; Decode's results are priced.
	Res *core.Result
	Err error
}

// delivered is the result of an image whose bands all ran: its pixels,
// frame and salvage report, unpriced. A salvaged image carries both Res
// and an Err wrapping jpegcodec.ErrPartialData.
func delivered(index int, d *jpegcodec.Decode) ImageResult {
	ir := ImageResult{Index: index, Res: core.Unpriced(d.Output(), d.Frame(), d.SalvageReport())}
	if err := ir.Res.Salvage.Err(); err != nil {
		ir.Err = fmt.Errorf("batch: image %d: %w", index, err)
	}
	return ir
}

// Result summarizes a batch decode.
type Result struct {
	Images []ImageResult
	// Failed counts images that produced no pixels (Res is nil).
	Failed int
	// Salvaged counts images that decoded impaired under
	// Options.Salvage: Res and Err are both set. Salvaged images count
	// toward SerialNs and the merged timeline, not toward Failed.
	Salvaged int
	// SerialNs is the sum of per-image virtual makespans (what a naive
	// loop would cost).
	SerialNs float64
	// PipelinedNs is the virtual makespan when consecutive images
	// overlap: image k's CPU work runs behind image k-1's device tail.
	PipelinedNs float64
	// Timeline is the merged batch schedule.
	Timeline *sim.Timeline
}

// Gain reports the batch-pipelining benefit: serial time over overlapped
// time.
func (r *Result) Gain() float64 {
	if r.PipelinedNs == 0 {
		return 0
	}
	return r.SerialNs / r.PipelinedNs
}

// Executor is a concurrent batch-decode service: submitted images are
// decoded by the band scheduler (scheduler.go). Decode waits for one
// image's result; Submit delivers on Results in completion order. A
// long-running process creates one Executor and feeds it requests;
// one-shot batches can use the package-level Decode instead.
//
// One mutex and one cond own admission and scheduling alike: a
// submission joins the entropy queue under the lock the workers
// schedule under.
type Executor struct {
	opts    Options
	workers int
	results chan ImageResult
	wg      sync.WaitGroup // the workers
	// stopc is closed by Stop: undelivered results are discarded (their
	// buffers released) instead of blocking on an absent Results reader,
	// so abandoning Results cannot leak the worker goroutines.
	stopc    chan struct{}
	stopOnce sync.Once

	mu       sync.Mutex
	cond     *sync.Cond
	entropyQ []*flightImage // admitted images awaiting stage 1
	deques   [][]bandTask   // per-worker band deques
	inflight int            // images between admission and delivery
	target   int            // calibrated in-flight budget
	closed   bool           // Close was called: nothing more is admitted
	cal      calibrator
}

// NewExecutor starts the scheduler's worker goroutines, and one more
// that closes Results once they have all exited. It ignores the
// options' reproduction fields (Spec, Model and Mode).
func NewExecutor(opts Options) (*Executor, error) {
	if err := opts.Scale.Validate(); err != nil {
		// A bad scale is a configuration problem: fail the batch up
		// front instead of reporting it as N per-image decode failures.
		return nil, fmt.Errorf("batch: %w", err)
	}
	n := opts.workers()
	e := &Executor{
		opts:    opts,
		workers: n,
		results: make(chan ImageResult, n),
		stopc:   make(chan struct{}),
		deques:  make([][]bandTask, n),
	}
	e.cond = sync.NewCond(&e.mu)
	e.target = e.cal.inflightTarget(n)
	e.wg.Add(n)
	for i := 0; i < n; i++ {
		go e.worker(i)
	}
	go func() {
		e.wg.Wait()
		close(e.results)
	}()
	return e, nil
}

// Submit enqueues one image at the executor's configured scale. Index
// is echoed in the corresponding ImageResult, which arrives on Results.
//
// Backpressure is exact: Submit returns once the image is admitted,
// and it is admitted only while fewer than QueueStats().Target images
// are in flight. Otherwise it blocks until a delivery frees a slot,
// ctx ends (it returns ctx.Err()) or Close lands (it returns
// ErrClosed); in both failure cases nothing was admitted and no result
// follows. The target follows the measured entropy:back-phase ratio
// within [2, Workers+2], so the executor retains at most that many
// images' inputs and whole-image buffers, and no submission still
// waiting for budget.
func (e *Executor) Submit(ctx context.Context, index int, data []byte) error {
	return e.SubmitScaled(ctx, index, data, e.opts.Scale)
}

// SubmitScaled is Submit with a per-image decode scale, overriding the
// executor's Options.Scale for this image only — a long-lived service
// decodes thumbnail and full-size requests through one executor, and
// the band scheduler's calibrator keeps a separate back-phase rate per
// scale so mixed traffic stays accurately sized. An invalid scale fails
// immediately with ErrUnsupportedScale.
func (e *Executor) SubmitScaled(ctx context.Context, index int, data []byte, scale jpegcodec.Scale) error {
	return e.submit(&flightImage{ctx: ctx, index: index, data: data, scale: scale})
}

// Decode decodes one image at scale and waits for its result — the
// blocking per-image call a request handler makes. It is admitted as
// Submit is. The result comes back on the image's own reply channel,
// never on Results, so callers of Decode need no router over the
// shared stream. The wait for the result is unbounded on purpose: ctx
// flows into the decode (the entropy stage polls it, every back-phase
// band checks it), so a deadline aborts the decode machinery and the
// result, carrying ctx's error, arrives promptly rather than the
// caller abandoning a decode that keeps burning CPU.
//
// The returned error reports a submission that never happened — an
// invalid scale, ErrClosed, or ctx ending while the image waited for
// budget — and then the ImageResult is zero. Decode failures are in
// ImageResult.Err, with the batch contract: a salvaged image carries
// both Res and Err. The image is not part of a stream, so its Index is
// 0.
func (e *Executor) Decode(ctx context.Context, data []byte, scale jpegcodec.Scale) (ImageResult, error) {
	reply := make(chan ImageResult, 1)
	if err := e.submit(&flightImage{ctx: ctx, data: data, scale: scale, reply: reply}); err != nil {
		return ImageResult{}, err
	}
	return <-reply, nil
}

// submit validates img's scale and admits img under the in-flight
// budget, waiting on the cond while it is spent. Only a submission that
// must wait registers a wake for its ctx.
func (e *Executor) submit(img *flightImage) error {
	if err := img.scale.Validate(); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed && e.inflight >= e.target {
		stop := context.AfterFunc(img.ctx, e.wake)
		defer stop()
	}
	for !e.closed && e.inflight >= e.target {
		if err := img.ctx.Err(); err != nil {
			return err
		}
		e.cond.Wait()
	}
	if e.closed {
		return ErrClosed
	}
	e.inflight++
	e.entropyQ = append(e.entropyQ, img)
	e.cond.Broadcast()
	return nil
}

// wake rouses every waiter to re-check its condition.
func (e *Executor) wake() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// QueueStats is a point-in-time snapshot of the band scheduler's
// occupancy and calibrated rates — what a service front end needs to
// compute honest backpressure signals (a Retry-After from the measured
// ns/MCU rates, an overload watermark from InFlight vs Target).
type QueueStats struct {
	// InFlight counts images between admission and result delivery.
	InFlight int `json:"inFlight"`
	// Target is the calibrated in-flight budget: admission blocks while
	// InFlight >= Target.
	Target int `json:"target"`
	// Queued counts admitted images still waiting for their entropy
	// stage to start.
	Queued int `json:"queued"`
	// EntropyNsPerMCU and BackNsPerMCU are the calibrator's current
	// ns/MCU estimates (the maximum across entropy classes and decode
	// scales — the conservative drain-time basis); zero until the first
	// observation.
	EntropyNsPerMCU float64 `json:"entropyNsPerMcu"`
	BackNsPerMCU    float64 `json:"backNsPerMcu"`
	// BytesPerMCU converts pending input bytes into estimated MCUs
	// (zero until the first image completes its entropy stage).
	BytesPerMCU float64 `json:"bytesPerMcu"`
}

// QueueStats snapshots the scheduler's admission state. The snapshot is
// advisory: it is stale the moment it returns, which is fine for load
// shedding and Retry-After hints.
func (e *Executor) QueueStats() QueueStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return QueueStats{
		InFlight:        e.inflight,
		Target:          e.target,
		Queued:          len(e.entropyQ),
		EntropyNsPerMCU: e.cal.entPerMCU.Max(),
		BackNsPerMCU:    e.cal.backPerMCU.Max(),
		BytesPerMCU:     e.cal.bytesPerMCU.Value(),
	}
}

// Results returns the channel on which images submitted through Submit
// or SubmitScaled arrive, in completion order (not submission order);
// Decode's results never appear on it. It is closed after Close once
// all in-flight decodes have drained. Callers must drain Results until
// it closes (or call Stop): the scheduler's workers block delivering
// to an absent reader.
func (e *Executor) Results() <-chan ImageResult { return e.results }

// Close stops admitting: later submissions, and submissions still
// waiting for budget, return ErrClosed, while admitted images still
// decode and deliver before Results closes. It does not block, and a
// second call does nothing.
func (e *Executor) Close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Stop is the abandonment-safe shutdown: Close plus discarding. A
// caller that walked away from Results mid-stream calls Stop instead of
// Close; undelivered results are released back to the slab pools
// instead of blocking the workers on a send nobody receives, blocked
// Submit calls return ErrClosed, and every worker goroutine exits (the
// no-leak guarantee). Results still closes once the pipeline drains, so
// a racing reader sees a clean end of stream rather than a hang.
func (e *Executor) Stop() {
	e.stopOnce.Do(func() { close(e.stopc) })
	e.Close()
}

// Decode decodes the images concurrently (bounded by Options.Workers)
// on an Executor, then prices each delivered image with core.Price under
// Options.Mode, producing per-image timelines plus the overlapped batch
// timeline. It returns an error only for configuration problems (a
// missing Spec); per-image decode and pricing failures are isolated in
// ImageResult.Err and counted in Result.Failed.
func Decode(datas [][]byte, opts Options) (*Result, error) {
	return DecodeContext(context.Background(), datas, opts)
}

// DecodeContext is Decode with cancellation: when ctx is cancelled,
// images not yet decoded report ctx.Err() in their ImageResult.Err and
// the call returns promptly with whatever finished. Images that
// completed before the cancellation are still delivered in full —
// every slot of Result.Images is populated with either a result or an
// error (or, salvaged, both); cancellation never yields an empty slot.
func DecodeContext(ctx context.Context, datas [][]byte, opts Options) (*Result, error) {
	if opts.Spec == nil {
		return nil, errors.New("batch: Spec is required")
	}
	ex, err := NewExecutor(opts)
	if err != nil {
		return nil, err
	}
	out := &Result{Images: make([]ImageResult, len(datas))}

	// Every image replies on one channel that holds them all, so no
	// delivery waits for the loop below and submitting needs no
	// goroutine of its own.
	replies := make(chan ImageResult, len(datas))
	n := 0
	for ; n < len(datas); n++ {
		if err := ex.submit(&flightImage{ctx: ctx, index: n, data: datas[n], scale: opts.Scale, reply: replies}); err != nil {
			for j := n; j < len(datas); j++ {
				out.Images[j] = ImageResult{Index: j, Err: err}
			}
			break
		}
	}
	ex.Close()
	po := core.Options{Mode: opts.Mode, Spec: opts.Spec, Model: opts.Model}
	//hetlint:nopoll drains the executor, which ctx stops; pricing one image is microseconds
	for ; n > 0; n-- {
		ir := <-replies
		if ir.Res != nil {
			ir = price(ir, po)
		}
		out.Images[ir.Index] = ir
	}

	for _, ir := range out.Images {
		if ir.Res == nil {
			out.Failed++
			continue
		}
		if ir.Err != nil {
			out.Salvaged++
		}
		out.SerialNs += ir.Res.TotalNs
	}
	out.Timeline = MergeTimelines(out.Images)
	out.PipelinedNs = out.Timeline.Makespan()
	return out, nil
}

// price replaces ir's result with its priced copy. A pricing failure
// (an SPS or PPS mode without a fit for the image) fails the image like
// a decode error, and its buffers go back.
func price(ir ImageResult, opts core.Options) ImageResult {
	res, err := core.Price(ir.Res.Frame, ir.Res.Salvage, opts)
	if err != nil {
		ir.Res.Release()
		return ImageResult{Index: ir.Index, Err: fmt.Errorf("batch: image %d: %w", ir.Index, err)}
	}
	res.Image = ir.Res.Image
	ir.Res = res
	return ir
}

// MergeTimelines replays the per-image timelines onto one merged batch
// schedule, in Images order (deterministic regardless of which worker
// finished first), keeping per-image dependency structure: CPU tasks
// serialize on the shared CPU lane (one control thread); the device
// lane is an in-order queue, so image k's kernels queue after image
// k-1's, and each GPU task additionally waits for its dispatch. Overlap
// emerges exactly as in the paper's Figure 5b, but across image
// boundaries. Failed images (no Res) are skipped; salvaged images
// (Res and Err both set) contribute like clean ones.
func MergeTimelines(images []ImageResult) *sim.Timeline {
	out := sim.New()
	var gpuPrev *sim.Task
	for _, ir := range images {
		if ir.Res == nil {
			continue
		}
		dispatch := dispatchMap(ir.Res.Timeline)
		idMap := make(map[int]*sim.Task, len(ir.Res.Timeline.Tasks()))
		for _, t := range ir.Res.Timeline.Tasks() {
			var deps []*sim.Task
			if t.Resource == sim.ResGPU {
				// Preserve the dispatch dependency: the original task
				// started no earlier than its CPU-side predecessor.
				if last := idMap[dispatch[t.ID]]; last != nil {
					deps = append(deps, last)
				}
				if gpuPrev != nil {
					deps = append(deps, gpuPrev)
				}
			}
			nt := out.Add(t.Resource, t.Kind, fmt.Sprintf("img%d:%s", ir.Index, t.Label), t.Cost, deps...)
			idMap[t.ID] = nt
			if t.Resource == sim.ResGPU {
				gpuPrev = nt
			}
		}
	}
	return out
}

// dispatchMap precomputes, in one pass over the timeline, each GPU
// task's effective dispatch: the ID of the latest CPU-lane task
// submitted before it (-1 if none). Tasks are in submission order, so a
// running "last CPU task" suffices; the old per-task rescan was O(n²).
func dispatchMap(tl *sim.Timeline) map[int]int {
	m := make(map[int]int)
	last := -1
	for _, t := range tl.Tasks() {
		switch t.Resource {
		case sim.ResCPU:
			last = t.ID
		case sim.ResGPU:
			m[t.ID] = last
		}
	}
	return m
}
