package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// block is one step of the traced pass's alternation: the samples
// [from, to) of one side, and for a real block its wall time.
type block struct {
	from, to int
	wallNs   int64
}

// blockPair is a block of real ops and the block of decomposed ops run
// right after it. The host's speed drifts by a tenth within seconds;
// what the layers account for is therefore taken pair by pair, both
// sides in the same weather, and the median over pairs reported.
type blockPair struct{ real, dec block }

// tracedPass is the second half of a traced process. The timed window
// has just run untraced. Now the same ops run again in short blocks (one
// pass over the corpus, one batch), every second block with each op
// wrapped in a span, which shows what the recorder costs; after every
// block, each op is replaced by the public calls it is made of, which
// shows where an op's time goes and how much of it the layers account
// for; and last the layer probes run. End-to-end metrics never come
// from here.
func tracedPass(wl workload, c *corpus, a childArgs, res *roundResult) error {
	wrapRec, decRec := newRecorder(1<<15), newRecorder(1<<16)
	real, dec := newSamples(sampleCapacity), newSamples(sampleCapacity)
	sw, service := wl.(*serviceWorkload)
	var pairs []blockPair
	var realUse usage
	if service {
		// One block of each: a service window has a schedule and
		// counter deltas of its own, and its decomposition runs the
		// cold images through a bare executor.
		realUse = measure(func() { wl.run(a.Window, a.Round, real, wrapRec) })
		wl.decompose(a.Window, dec, decRec)
	} else {
		deadline := time.Now().Add(2 * a.Window)
		// At least two pairs: one with its real ops wrapped, one without.
		for k := 0; k < 2 || time.Now().Before(deadline); k++ {
			var p blockPair
			p.real.from = len(real.opNs)
			t0 := time.Now()
			wl.run(0, k, real, wrapRec)
			p.real.wallNs = time.Since(t0).Nanoseconds()
			p.real.to, p.dec.from = len(real.opNs), len(dec.opNs)
			wl.decompose(0, dec, decRec)
			p.dec.to = len(dec.opNs)
			pairs = append(pairs, p)
		}
	}

	wrapped, decomposed := wrapRec.snapshot(), decRec.snapshot()
	ls, err := probeLayers(c, a.Workers)
	if err != nil {
		return err
	}
	codecFromSpans(ls, decomposed, dec)
	if service {
		reconcileService(ls, wrapped, decomposed, real, dec)
		ls["trace.overhead_share"] = overheadByClass(real)
		trafficFromSpans(ls, sw, append(wrapped, decomposed...), real, realUse)
	} else {
		reconcile(ls, c.Workload == "batch_gallery", a.Workers, decomposed, real, dec, pairs)
		ls["trace.overhead_share"] = overheadByBlock(real, pairs)
	}
	res.Layers = ls
	res.Wrapped, res.Decomposed = wrapped, decomposed
	for _, s := range []*samples{real, dec} {
		res.Attempted += s.attempted
		res.Failed += s.failed
		res.Failures = append(res.Failures, s.failures...)
	}
	return nil
}

// overheadByBlock is what wrapping an op in a span costs a closed loop,
// as a share of the op. Real blocks alternate between wrapped and not and
// each holds the same ops, so it is the wall time of a wrapped block over
// that of its unwrapped neighbour, the median over such pairs, minus 1.
func overheadByBlock(real *samples, pairs []blockPair) float64 {
	var ratios []float64
	for k := 0; k+1 < len(pairs); k += 2 {
		a, b := pairs[k].real, pairs[k+1].real
		if a.from == a.to || b.from == b.to || real.opWrapped[a.from] == real.opWrapped[b.from] {
			continue
		}
		r := float64(a.wallNs) / float64(b.wallNs)
		if real.opWrapped[b.from] {
			r = 1 / r
		}
		ratios = append(ratios, r)
	}
	return median(ratios) - 1
}

// overheadByClass is the same for the service's one window, in which
// every second request is wrapped: per request class, the median latency
// of the wrapped ones over the median of the others, averaged over
// classes by their number of requests, minus 1. Taking it class by class
// keeps a different mix on the two sides from passing for overhead.
func overheadByClass(real *samples) float64 {
	var with, without [numClasses][]float64
	for i, ns := range real.opNs {
		side := &without
		if real.opWrapped[i] {
			side = &with
		}
		side[real.opIdx[i]] = append(side[real.opIdx[i]], float64(ns))
	}
	var sum, n float64
	for cls := range with {
		if w, wo := with[cls], without[cls]; len(w) > 0 && len(wo) > 0 {
			k := float64(len(w) + len(wo))
			sum += k * median(w) / median(wo)
			n += k
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum/n - 1
}

// codecFromSpans turns the decode spans of the decomposed ops into the
// jpegcodec stage metrics: medians over ops of each stage's time per
// source megapixel. A stage span carries its op's index among the samples.
func codecFromSpans(ls layerSet, spans []span, dec *samples) {
	type opStages struct {
		sum, entropy float64
		bits         int64
	}
	ops := make([]opStages, len(dec.opMpix))
	stage := map[string][]float64{}
	for _, s := range spans {
		if s.Parent < 0 || layerOf(s.Name) != "jpegcodec" || int(s.Op) >= len(ops) {
			continue
		}
		d := float64(s.dur())
		ops[s.Op].sum += d
		stage[s.Name] = append(stage[s.Name], d/1e6/float64(dec.opMpix[s.Op]))
		if s.Name == "jpegcodec.entropy" {
			ops[s.Op].entropy, ops[s.Op].bits = d, s.Count
		}
	}
	var share, mbit []float64
	for _, o := range ops {
		if o.entropy > 0 {
			share = append(share, o.entropy/o.sum)
			mbit = append(mbit, float64(o.bits)/1e6/(o.entropy/1e9))
		}
	}
	ls["jpegcodec.prepare_ms_per_mpix"] = median(stage["jpegcodec.prepare"])
	ls["jpegcodec.entropy_ms_per_mpix"] = median(stage["jpegcodec.entropy"])
	ls["jpegcodec.output_alloc_ms_per_mpix"] = median(stage["jpegcodec.output_alloc"])
	ls["jpegcodec.back_ms_per_mpix"] = median(stage["jpegcodec.back"])
	ls["jpegcodec.entropy_share"] = median(share)
	ls["jpegcodec.entropy_mbit_per_s"] = median(mbit)
}

// layerTimes returns, per decomposed op (by its index among the samples),
// the self time of the layer spans under it.
func layerTimes(decomposed []span, ops int) []float64 {
	self := selfTimes(decomposed)
	out := make([]float64, ops)
	for _, s := range decomposed {
		if s.Parent >= 0 && int(s.Op) < ops {
			out[s.Op] += float64(self[s.ID])
		}
	}
	return out
}

func setLayerSum(ls layerSet, share float64) {
	ls["trace.layer_sum_share"] = share
	ls["trace.unattributed_share"] = 1 - share
}

// reconcile sets the time the layers account for against the time the
// whole ops took when run as a user runs them, pair of blocks by pair of
// blocks, and reports the median over pairs:
//
//   - closed loops of one goroutine: the layer time of one decomposed
//     pass over the corpus, over the time of the real ops of one pass;
//   - the batch: the sequential layer time of the batch's images over
//     workers x the batch's wall time, so the rest is idle workers and
//     scheduling.
func reconcile(ls layerSet, batch bool, workers int, decomposed []span, real, dec *samples, pairs []blockPair) {
	layer := layerTimes(decomposed, len(dec.opNs))
	var shares []float64
	for _, p := range pairs {
		var attributed, whole float64
		for _, ns := range layer[p.dec.from:p.dec.to] {
			attributed += ns
		}
		if batch {
			whole = float64(workers) * float64(p.real.wallNs)
		} else {
			for _, ns := range real.opNs[p.real.from:p.real.to] {
				whole += float64(ns)
			}
		}
		if whole > 0 {
			shares = append(shares, attributed/whole)
		}
	}
	setLayerSum(ls, median(shares))
}

// reconcileService does the same for the service's one window: per
// recorded request, the bare-executor decode and encode of its class
// plus the time it waited in the generator's queue, over its time from
// due to done, so the rest is HTTP, hashing, the cache, admission and
// contention between requests.
func reconcileService(ls layerSet, wrapped, decomposed []span, real, dec *samples) {
	layer := layerTimes(decomposed, len(dec.opNs))
	var sum, n [numClasses]float64
	for _, s := range decomposed {
		if s.Parent < 0 && s.Name == "op.bare" && int(s.Op) < len(dec.opIdx) {
			cls := dec.opIdx[s.Op]
			sum[cls] += layer[s.Op]
			n[cls]++
		}
	}
	var attributed, whole float64
	for _, s := range wrapped {
		switch {
		case s.Parent < 0:
			whole += float64(s.dur())
		case s.Name == "bench.queue_wait":
			attributed += float64(s.dur())
		}
	}
	for i, cls := range real.opIdx {
		if cls == clsHotMiss {
			cls = clsColdDecode
		}
		if real.opWrapped[i] && n[cls] > 0 { // a hit decodes nothing
			attributed += sum[cls] / n[cls]
		}
	}
	if whole > 0 {
		setLayerSum(ls, attributed/whole)
	}
}

// trafficFromSpans derives the metrics only a service window gives: the
// per-class latencies from the client's spans, the cache and admission
// counters from /metrics deltas over the window, and the cost of the
// service around a decode from the bare-executor spans.
func trafficFromSpans(ls layerSet, sw *serviceWorkload, spans []span, real *samples, u usage) {
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e6)
	}
	ls["imaged.hit_ms_p50"] = median(byName["imaged.hot"])
	ls["imaged.miss_ms_p50"] = median(byName["imaged.cold_decode"])
	ls["imaged.thumb_ms_p50"] = median(byName["imaged.thumb"])
	ls["imaged.half_ms_p50"] = median(byName["imaged.half"])
	ls["imaged.queue_wait_ms_p50"] = median(byName["bench.queue_wait"])
	ls["imaged.http_overhead_ms"] = ls["imaged.miss_ms_p50"] - median(byName["batch.decode@1/1"])

	d := sw.last.scrape
	n := float64(real.attempted)
	if cnt := d["hetjpeg_decode_duration_seconds_count"]; cnt > 0 {
		ls["imaged.decode_ms_mean"] = d["hetjpeg_decode_duration_seconds_sum"] / cnt * 1e3
	}
	ls["imaged.util"] = u.cpuS / (u.wallS * float64(runtime.NumCPU()))
	ls["imaged.shed_share"] = d["hetjpeg_admission_shed_total"] / n
	ls["imaged.backlog_growth"] = sw.last.depthLast - sw.last.depthFirst
	ls["rescache.hit_share"] = d[`hetjpeg_cache_requests_total{outcome="hit"}`] / n
	ls["rescache.evictions_per_s"] = d["hetjpeg_cache_evictions_total"] / sw.last.wallS
	ls["bench.late_ms_p95"] = percentile(sortedCopy(msOf(real.lateNs)), 95)
}

// layerTable renders per-layer metrics as aligned text lines, in
// catalogue order.
func layerTable(ls map[string]float64) string {
	var b strings.Builder
	for _, m := range perLayer {
		if v, ok := ls[m.Name]; ok {
			fmt.Fprintf(&b, "  %-44s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	return b.String()
}
