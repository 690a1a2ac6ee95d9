package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/jpeg"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"hetjpeg"
	"hetjpeg/internal/imaged"
	"hetjpeg/internal/metrics"
	"hetjpeg/internal/transcode"
)

// defaultRate is the offered load of service_mixed in requests per
// second, tuned once on the reference host and frozen: changing it
// changes the workload. 120 req/s puts the service at half of its CPU
// (imaged.util 0.46), where an open loop amplifies every slow spell of
// the host: when the VM runs at half speed for a while, which it does,
// utilisation passes 0.9 and the median latency grows fivefold. At 80
// req/s (imaged.util 0.30) the same spell costs a third more, the median
// still falls inside the thumbnail class and the 95th percentile inside
// the half-scale class.
const defaultRate = 80.0

const serviceCacheBytes = 64 << 20

// Request classes. The first four are what the generator draws; a hot
// request that finds its image evicted is reported as hotMiss.
const (
	clsHot = iota
	clsThumb
	clsColdDecode
	clsHalf
	clsHotMiss
	numClasses
)

var classNames = [numClasses]string{"hot", "thumb", "cold_decode", "half", "hot_miss"}

// classBlock is the traffic mix in twentieths: 35 % hot decodes, 30 %
// cold 1/8 transcodes, 25 % cold decodes, 10 % cold half-scale
// transcodes. Every block of twenty requests holds exactly this mix in a
// seeded order, so the class shares, and with them the classes the median
// and the 95th percentile fall in, are the same in every run.
var classBlock = [4]int{clsHot: 7, clsThumb: 6, clsColdDecode: 5, clsHalf: 2}

type request struct {
	due     time.Duration // since the window opened
	class   int
	item    int    // index into corpus items
	counter uint64 // makes a cold body unique
	wrapped bool   // record this request's spans
}

// buildSchedule draws the open-loop schedule of one window from the
// seed: rate x window arrivals at independent uniform times, which is a
// Poisson process conditioned on its count, so the offered load is the
// same in every run while the gaps between arrivals stay exponential.
// serial numbers the window within its process: it goes into every cold
// body's comment, so no window finds another's bodies in the cache.
func buildSchedule(c *corpus, seed int64, round int, rate float64, window time.Duration, serial uint64) []request {
	rng := rand.New(rand.NewSource(seed*31 + int64(round)))
	n := int(math.Round(rate * window.Seconds()))
	reqs := make([]request, n)
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * float64(window)
	}
	sort.Float64s(dues)
	var block []int
	for cls, k := range classBlock {
		for ; k > 0; k-- {
			block = append(block, cls)
		}
	}
	for i := range reqs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r := &reqs[i]
		r.due = time.Duration(dues[i])
		r.class = block[i%len(block)]
		// The counter numbers the request within its process; a cold body
		// carries it in its comment segment.
		r.counter = serial<<32 | uint64(i)
		if r.class == clsHot {
			r.item = c.Hot[rng.Intn(len(c.Hot))]
		} else {
			r.item = c.Cold[rng.Intn(len(c.Cold))]
		}
	}
	return reqs
}

// serviceWorkload is an in-process imaged behind a real loopback socket
// and the open-loop client that drives it.
type serviceWorkload struct {
	c       *corpus
	workers int
	rate    float64

	srv    *imaged.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client

	// What the last window saw beyond its samples.
	last    serviceWindow
	windows uint64 // windows run so far
}

type serviceWindow struct {
	depthFirst, depthLast float64 // mean FIFO depth in the first and last quarter
	scrape                map[string]float64
	wallS                 float64
}

func newServiceWorkload(c *corpus, workers int, rate float64) (*serviceWorkload, error) {
	// The generator stands for clients on other machines. With as many
	// Ps as processors, its timer would wait for a decode to be
	// preempted, up to 10 ms; one more P lets it wake on time while the
	// server keeps its W workers.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	srv, err := imaged.New(imaged.Config{
		Spec:       hetjpeg.PlatformByName(platformName),
		Mode:       hetjpeg.ModePipelinedGPU,
		Workers:    workers,
		CacheBytes: serviceCacheBytes,
		Log:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	w := &serviceWorkload{
		c: c, workers: workers, rate: rate, srv: srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: workers, MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers,
			DisableCompression: true,
		}},
	}
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return w, nil
}

func (w *serviceWorkload) close() {
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx)
	<-w.served
	w.srv.Close()
}

// reply is what came back for one request, kept until it is checked.
type reply struct {
	status int
	cache  string
	body   []byte
}

// send posts one request and reads the whole reply into buf.
func (w *serviceWorkload) send(r *request, buf *bytes.Buffer) (reply, error) {
	data := w.c.Items[r.item].Data
	var body io.Reader = bytes.NewReader(data)
	length := int64(len(data))
	if r.class != clsHot {
		// SOI, a comment segment carrying the counter, then the rest of
		// the stream: withComment without the copy.
		head := withComment(data[:2], r.counter)
		body = io.MultiReader(bytes.NewReader(head), bytes.NewReader(data[2:]))
		length += int64(len(head) - 2)
	}
	url := w.base + "/decode"
	switch r.class {
	case clsThumb:
		url = w.base + "/transcode?scale=1/8&quality=80"
	case clsHalf:
		url = w.base + "/transcode?scale=1/2&quality=80"
	}
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return reply{}, err
	}
	req.ContentLength = length
	resp, err := w.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Hetjpeg-Cache"), body: buf.Bytes()}, nil
}

// checkReply validates one reply after its clock has stopped and returns
// the class it is reported under.
func (w *serviceWorkload) checkReply(r *request, rp reply, deep bool) (int, error) {
	it := &w.c.Items[r.item]
	if rp.status != http.StatusOK {
		return r.class, fmt.Errorf("%s %s: status %d: %.120s", classNames[r.class], it.Name, rp.status, rp.body)
	}
	if r.class == clsHot || r.class == clsColdDecode {
		var meta struct {
			Width, Height int
			Scale, Cache  string
		}
		if err := json.Unmarshal(rp.body, &meta); err != nil {
			return r.class, fmt.Errorf("%s %s: reply is not JSON: %w", classNames[r.class], it.Name, err)
		}
		if meta.Width != it.W || meta.Height != it.H || meta.Scale != "1" {
			return r.class, fmt.Errorf("%s %s: reply says %dx%d at %s, want %dx%d at 1", classNames[r.class], it.Name, meta.Width, meta.Height, meta.Scale, it.W, it.H)
		}
		if meta.Cache != rp.cache {
			return r.class, fmt.Errorf("%s %s: cache class %q in the body, %q in the header", classNames[r.class], it.Name, meta.Cache, rp.cache)
		}
		switch {
		case r.class == clsColdDecode && rp.cache != "miss":
			return r.class, fmt.Errorf("cold_decode %s: cache class %q for a body never sent before", it.Name, rp.cache)
		case rp.cache == "hit":
			return clsHot, nil
		case r.class == clsHot && (rp.cache == "miss" || rp.cache == "wait"):
			return clsHotMiss, nil
		case r.class == clsHot:
			return r.class, fmt.Errorf("hot %s: unknown cache class %q", it.Name, rp.cache)
		}
		return r.class, nil
	}
	xc := xcEighth
	if r.class == clsHalf {
		xc = xcHalf
	}
	o := &w.c.Ops[w.c.findOp(r.item, xcodes[xc].Scale, xc)]
	n := len(rp.body)
	if n < 4 || rp.body[0] != 0xFF || rp.body[1] != 0xD8 || rp.body[n-2] != 0xFF || rp.body[n-1] != 0xD9 {
		return r.class, fmt.Errorf("%s: reply of %d bytes is not framed by SOI and EOI", o.Name, n)
	}
	if rp.cache != "miss" {
		return r.class, fmt.Errorf("%s: cache class %q for a body never sent before", o.Name, rp.cache)
	}
	if n != o.OutLen || checksum(rp.body) != o.CRC {
		return r.class, fmt.Errorf("%s: reply of %d bytes differs from the verified transcode of %d", o.Name, n, o.OutLen)
	}
	if deep {
		cfg, err := jpeg.Decode(bytes.NewReader(rp.body))
		if err != nil {
			return r.class, fmt.Errorf("%s: image/jpeg cannot decode the reply: %w", o.Name, err)
		}
		if b := cfg.Bounds(); b.Dx() != o.OutW || b.Dy() != o.OutH {
			return r.class, fmt.Errorf("%s: reply decodes to %dx%d, want %dx%d", o.Name, b.Dx(), b.Dy(), o.OutW, o.OutH)
		}
	}
	return r.class, nil
}

// deepCheckEvery is how often a /transcode reply is fully decoded with
// image/jpeg after its clock has stopped.
const deepCheckEvery = 64

// warmup sends every hot image once, which fills the cache with the hot
// set, and one request of each cold class per cold base, which seeds the
// calibrator and the pools.
func (w *serviceWorkload) warmup() error {
	var buf bytes.Buffer
	var reqs []request
	for _, i := range w.c.Hot {
		reqs = append(reqs, request{class: clsHot, item: i})
	}
	for k, i := range w.c.Cold {
		for _, cls := range []int{clsThumb, clsColdDecode, clsHalf} {
			reqs = append(reqs, request{class: cls, item: i, counter: 1<<63 | uint64(k*numClasses+cls)})
		}
	}
	for i := range reqs {
		rp, err := w.send(&reqs[i], &buf)
		if err == nil {
			_, err = w.checkReply(&reqs[i], rp, true)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// scrape reads /metrics into a map keyed by sample name and label set.
func (w *serviceWorkload) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name+"{"+s.LabelSignature()+"}"] += s.Value
			out[s.Name] += s.Value // summed over labels
		}
	}
	return out, nil
}

func (w *serviceWorkload) run(window time.Duration, round int, s *samples, rec *recorder) {
	before, err := w.scrape()
	if err != nil {
		s.attempted++
		s.fail("scraping /metrics: %v", err)
		return
	}
	w.windows++
	reqs := buildSchedule(w.c, w.c.Seed, round, w.rate, window, w.windows)
	fifo := make(chan *request, len(reqs)) // holds the whole schedule: the generator never blocks on a slow server
	depths := make([]int, len(reqs))
	parts := make([]*samples, w.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range parts {
		parts[k] = newSamples(len(reqs))
		wg.Add(1)
		go func(s *samples) {
			defer wg.Done()
			var buf bytes.Buffer
			for r := range fifo {
				due := start.Add(r.due)
				sent := time.Now()
				rp, err := w.send(r, &buf)
				done := time.Now()
				cls := r.class
				if err == nil {
					cls, err = w.checkReply(r, rp, s.attempted%deepCheckEvery == 0)
				}
				if r.wrapped {
					id := int32(r.counter>>32)<<20 | int32(r.counter&0xFFFFF) // window, then request
					root := rec.add("op.service_mixed", -1, id, due, done)
					rec.add("bench.queue_wait", root, id, due, sent)
					rec.add("imaged."+classNames[cls], root, id, sent, done)
				}
				s.done(cls, done.Sub(due).Nanoseconds(), w.c.Items[r.item].mpix(), err)
				s.opWrapped = append(s.opWrapped, r.wrapped)
			}
		}(parts[k])
	}
	for i := range reqs {
		r := &reqs[i]
		r.wrapped = rec != nil && i%2 == 0
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		s.lateNs = append(s.lateNs, time.Since(start.Add(r.due)).Nanoseconds())
		depths[i] = len(fifo)
		fifo <- r
	}
	close(fifo)
	wg.Wait()
	wall := time.Since(start)
	for _, p := range parts {
		s.opNs = append(s.opNs, p.opNs...)
		s.opIdx = append(s.opIdx, p.opIdx...)
		s.opMpix = append(s.opMpix, p.opMpix...)
		s.opWrapped = append(s.opWrapped, p.opWrapped...)
		s.mpix += p.mpix
		s.attempted += p.attempted
		s.failed += p.failed
		s.failures = append(s.failures, p.failures...)
	}
	after, err := w.scrape()
	if err != nil {
		s.fail("scraping /metrics: %v", err)
		return
	}
	for k, v := range before {
		after[k] -= v
	}
	q := len(depths) / 4
	w.last = serviceWindow{scrape: after, wallS: wall.Seconds()}
	if q > 0 {
		w.last.depthFirst, w.last.depthLast = meanInts(depths[:q]), meanInts(depths[len(depths)-q:])
	}
}

func meanInts(vs []int) float64 {
	var s float64
	for _, v := range vs {
		s += float64(v)
	}
	return s / float64(len(vs))
}

// decompose runs the cold images through what a request is made of,
// without the service around it: the sequential public pieces of the
// decode, then the same decode through a bare executor followed by the
// encode stage of each transcode class. The difference between a cold
// request and these is what HTTP, hashing, the cache and admission cost.
func (w *serviceWorkload) decompose(window time.Duration, s *samples, rec *recorder) {
	ex, err := newExecutor(w.workers)
	if err != nil {
		s.attempted++
		s.fail("bare executor: %v", err)
		return
	}
	defer stopExecutor(ex)
	ctx := context.Background()
	deadline := time.Now().Add(window)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, item := range w.c.Cold {
			it := &w.c.Items[item]
			dec := &w.c.Ops[w.c.findOp(item, 1, -1)]
			seq := int32(len(s.opNs)) // a decomposed op's span id is its index among the samples
			id := rec.begin("op.sequential", -1, seq)
			out, err := decomposedOp(w.c, dec, rec, id, seq)
			ns := rec.end(id)
			if err == nil {
				err = w.c.check(dec, out)
				out.release()
			}
			s.done(clsColdDecode, ns, it.mpix(), err)

			for _, xc := range []int{-1, xcEighth, xcHalf} {
				seq := int32(len(s.opNs))
				o := dec
				scale := 1
				if xc >= 0 {
					o = &w.c.Ops[w.c.findOp(item, xcodes[xc].Scale, xc)]
					scale = xcodes[xc].Scale
				}
				root := rec.begin("op.bare", -1, seq)
				id := rec.begin("batch.decode@1/"+fmt.Sprint(scale), root, seq)
				t0 := time.Now()
				err := ex.SubmitScaled(ctx, 0, it.Data, hetjpeg.Scale(scale))
				var r hetjpeg.BatchImageResult
				if err == nil {
					r = <-ex.Results()
					err = r.Err
				}
				rec.end(id)
				if r.Res != nil && err == nil {
					if xc < 0 {
						err = w.c.check(o, imageOutput(r.Res.Image))
					} else {
						id := rec.begin("transcode.encode", root, seq)
						var tr *transcode.Result
						tr, err = transcode.EncodeImage(r.Res.Image, xcodeOptions(xcodes[xc], w.workers), r.Res.Frame.DCOnly(), time.Since(t0).Nanoseconds())
						rec.end(id)
						if err == nil {
							err = w.c.check(o, output{bytes: tr.Data, w: tr.W, h: tr.H})
						}
					}
				}
				if r.Res != nil {
					r.Res.Release()
				}
				ns := rec.end(root)
				cls := clsColdDecode
				switch xc {
				case xcEighth:
					cls = clsThumb
				case xcHalf:
					cls = clsHalf
				}
				s.done(cls, ns, it.mpix(), err)
			}
		}
	}
}
