package main

import (
	"fmt"
	"time"

	"hetjpeg"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/transcode"
)

// samples collects what one timed window observed. Its slices are
// allocated before the clock starts, so that TotalAlloc over the window
// measures the program and not the harness.
type samples struct {
	opNs   []int64   // one latency per completed op
	opIdx  []int32   // the op (closed loops) or request class (service) of each
	opMpix []float32 // the source megapixels of each
	// opWrapped says which ops were wrapped in a span: with a recorder
	// every second pass, batch or request, so that the two halves see
	// the same host.
	opWrapped []bool
	lateNs    []int64 // service: how late the generator released each request
	mpix      float64 // source megapixels of ops that completed correctly

	attempted, failed int
	failures          []string // the first few, for the report
}

func newSamples(capacity int) *samples {
	return &samples{
		opNs:   make([]int64, 0, capacity),
		opIdx:  make([]int32, 0, capacity),
		opMpix: make([]float32, 0, capacity),
		lateNs: make([]int64, 0, capacity),

		opWrapped: make([]bool, 0, capacity),
	}
}

const maxFailuresKept = 8

func (s *samples) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < maxFailuresKept {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// done records one op: its latency always, its megapixels only when the
// output was right.
func (s *samples) done(idx int, ns int64, mpix float64, err error) {
	s.attempted++
	s.opNs = append(s.opNs, ns)
	s.opIdx = append(s.opIdx, int32(idx))
	s.opMpix = append(s.opMpix, float32(mpix))
	if err != nil {
		s.fail("%v", err)
		return
	}
	s.mpix += mpix
}

// workload is one traffic pattern against the program. A process runs
// exactly one: construct, warm up, then timed windows.
type workload interface {
	// warmup runs every distinct input once, so that pools fill, the
	// calibrator seeds and the cache takes the hot set, and checks each
	// output against the verified one.
	warmup() error
	// run drives the real operations for the window, and for at least
	// one pass over the corpus. With a recorder the ops of every second
	// pass are wrapped in one span each and the samples note which;
	// without, nothing is recorded.
	run(window time.Duration, round int, s *samples, rec *recorder)
	// decompose replaces each op by the public calls it is made of, one
	// span per call, for the window and for at least one pass, and checks
	// that the pieces produce the same bytes as the whole.
	decompose(window time.Duration, s *samples, rec *recorder)
	close()
}

func newWorkload(c *corpus, workers int, rate float64) (workload, error) {
	switch c.Workload {
	case "decode_dense", "decode_smooth", "transcode_mixed":
		return &serialWorkload{c: c}, nil
	case "batch_gallery":
		return newBatchWorkload(c, workers)
	case "service_mixed":
		return newServiceWorkload(c, workers, rate)
	}
	return nil, fmt.Errorf("unknown workload %q", c.Workload)
}

// output is what an op produced, held until it has been checked.
type output struct {
	bytes   []byte
	w, h    int
	release func()
}

func (c *corpus) check(o *op, out output) error {
	if out.w != o.OutW || out.h != o.OutH || len(out.bytes) != o.OutLen {
		return fmt.Errorf("%s: output %dx%d of %d bytes, verified %dx%d of %d", o.Name, out.w, out.h, len(out.bytes), o.OutW, o.OutH, o.OutLen)
	}
	if sum := checksum(out.bytes); sum != o.CRC {
		return fmt.Errorf("%s: output checksum %08x, verified %08x", o.Name, sum, o.CRC)
	}
	return nil
}

func imageOutput(img *hetjpeg.Image) output {
	return output{bytes: img.Pix, w: img.W, h: img.H, release: img.Release}
}

// realOp is the call a user of the library makes.
func realOp(c *corpus, o *op) (output, error) {
	data := c.Items[o.Item].Data
	if o.Xcode >= 0 {
		res, err := hetjpeg.Transcode(data, xcodeOptions(xcodes[o.Xcode], 1))
		if err != nil {
			return output{}, err
		}
		return output{bytes: res.Data, w: res.W, h: res.H, release: func() {}}, nil
	}
	var img *hetjpeg.Image
	var err error
	if o.Scale == 1 {
		img, err = hetjpeg.DecodeRGB(data)
	} else {
		img, err = hetjpeg.DecodeRGBScaled(data, hetjpeg.Scale(o.Scale))
	}
	if err != nil {
		return output{}, err
	}
	return imageOutput(img), nil
}

// decomposedDecode is DecodeRGBScaled taken apart into the public calls
// it makes, one span each. It also releases the frame, which the whole
// does not; the release has its own span so the difference can be read.
func decomposedDecode(rec *recorder, parent, seq int32, data []byte, scale int) (*hetjpeg.Image, error) {
	id := rec.begin("jpegcodec.prepare", parent, seq)
	f, ed, err := jpegcodec.PrepareDecodeScaled(data, jpegcodec.Scale(scale))
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("jpegcodec.entropy", parent, seq)
	err = ed.DecodeAll()
	rec.end(id)
	rec.count(id, ed.EntropyBitsTotal())
	if err != nil {
		f.Release()
		return nil, err
	}
	id = rec.begin("jpegcodec.output_alloc", parent, seq)
	out := jpegcodec.NewRGBImage(f.OutW, f.OutH)
	rec.end(id)
	id = rec.begin("jpegcodec.back", parent, seq)
	jpegcodec.ParallelPhaseScalar(f, 0, f.MCURows, out)
	rec.end(id)
	id = rec.begin("jpegcodec.release", parent, seq)
	f.Release()
	rec.end(id)
	return out, nil
}

// decomposedOp is realOp in pieces: the decode above and, for a
// transcode, the encode stage on its result.
func decomposedOp(c *corpus, o *op, rec *recorder, parent, seq int32) (output, error) {
	data := c.Items[o.Item].Data
	t0 := time.Now()
	img, err := decomposedDecode(rec, parent, seq, data, o.Scale)
	if err != nil {
		return output{}, err
	}
	if o.Xcode < 0 {
		return imageOutput(img), nil
	}
	defer img.Release()
	x := xcodes[o.Xcode]
	id := rec.begin("transcode.encode", parent, seq)
	res, err := transcode.EncodeImage(img, xcodeOptions(x, 1), x.Scale == 8, time.Since(t0).Nanoseconds())
	rec.end(id)
	if err != nil {
		return output{}, err
	}
	return output{bytes: res.Data, w: res.W, h: res.H, release: func() {}}, nil
}

// serialWorkload is a closed loop of one goroutine over the corpus
// cycle: decode_dense, decode_smooth and transcode_mixed.
type serialWorkload struct{ c *corpus }

func (w *serialWorkload) close() {}

func (w *serialWorkload) warmup() error {
	for i := range w.c.Ops {
		o := &w.c.Ops[i]
		out, err := realOp(w.c, o)
		if err != nil {
			return fmt.Errorf("warm-up: %s: %w", o.Name, err)
		}
		err = w.c.check(o, out)
		out.release()
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// loop runs whole passes over the cycle: at least one, and further ones
// until the window has ended. Every window therefore holds the cycle's
// own mix of ops, whatever the speed of the host, and the classes the
// median and the 95th percentile fall in do not depend on where the
// window happened to end.
func (w *serialWorkload) loop(window time.Duration, s *samples, do func(o *op, pass int, seq int32) (output, int64, error)) {
	cycle := w.c.Cycle
	deadline := time.Now().Add(window)
	for n := 0; n%len(cycle) != 0 || n == 0 || time.Now().Before(deadline); n++ {
		idx := cycle[n%len(cycle)]
		o := &w.c.Ops[idx]
		// An op's span id is its index among the samples.
		out, ns, err := do(o, n/len(cycle), int32(len(s.opNs)))
		// The clock has stopped: only now is the output checked.
		if err == nil {
			err = w.c.check(o, out)
			out.release()
		}
		s.done(idx, ns, w.c.mpixOf(o), err)
	}
}

// run wraps, with a recorder, the ops of every second pass; round says
// which passes, so that one-pass windows can alternate.
func (w *serialWorkload) run(window time.Duration, round int, s *samples, rec *recorder) {
	w.loop(window, s, func(o *op, pass int, seq int32) (output, int64, error) {
		r := rec
		if (round+pass)%2 == 1 {
			r = nil
		}
		s.opWrapped = append(s.opWrapped, r != nil)
		id := r.begin("op."+w.c.Workload, -1, seq)
		t0 := time.Now()
		out, err := realOp(w.c, o)
		ns := time.Since(t0).Nanoseconds()
		r.end(id)
		return out, ns, err
	})
}

func (w *serialWorkload) decompose(window time.Duration, s *samples, rec *recorder) {
	w.loop(window, s, func(o *op, _ int, seq int32) (output, int64, error) {
		id := rec.begin("op."+w.c.Workload, -1, seq)
		out, err := decomposedOp(w.c, o, rec, id, seq)
		return out, rec.end(id), err
	})
}
