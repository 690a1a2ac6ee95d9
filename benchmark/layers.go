package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"hetjpeg"
	"hetjpeg/internal/bitstream"
	"hetjpeg/internal/color"
	"hetjpeg/internal/core"
	"hetjpeg/internal/dct"
	"hetjpeg/internal/huffman"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/pool"
	"hetjpeg/internal/rescache"
	"hetjpeg/internal/transcode"
)

// The probes below time single layers from outside, around their public
// functions, on inputs taken from the workload's own corpus. Each checks
// what it can about the result, so a layer that got faster by getting
// wrong fails the run.

// medianNs runs f reps times and returns the median wall time of a run.
func medianNs(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ts)
}

const probeReps = 3

// layerSet accumulates per-layer metrics by name.
type layerSet map[string]float64

// sampleItem picks the input the single-image probes run on: the largest
// baseline item without restart markers, so that each probe controls
// those properties itself and has enough pixels to time.
func sampleItem(c *corpus) (*item, error) {
	var best *item
	for i := range c.Items {
		it := &c.Items[i]
		im, err := jfif.Parse(it.Data)
		if err != nil {
			return nil, err
		}
		if !im.Progressive && im.RestartInterval == 0 && (best == nil || it.W*it.H > best.W*best.H) {
			best = it
		}
	}
	if best == nil {
		return nil, fmt.Errorf("corpus %s has no plain baseline item", c.Workload)
	}
	return best, nil
}

func probeBitstream(ls layerSet, seed int64) error {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(seed))
	widths := make([]uint, n)
	vals := make([]uint32, n)
	for i := range vals {
		widths[i] = uint(1 + rng.Intn(16))
		vals[i] = rng.Uint32() & (1<<widths[i] - 1)
		if i%8 == 0 {
			vals[i] = 1<<widths[i] - 1 // runs of ones make 0xFF bytes, which the writer must stuff
		}
	}
	var buf []byte
	w := bitstream.NewWriter()
	ls["bitstream.write_ns_per_call"] = medianNs(probeReps, func() {
		w.Reset()
		for i, v := range vals {
			w.WriteBits(v, widths[i])
		}
		buf = append(buf[:0], w.Flush()...)
	}) / n
	if !bytes.Contains(buf, []byte{0xFF, 0x00}) {
		return fmt.Errorf("bitstream probe: the written stream holds no stuffed byte")
	}
	var bad error
	r := bitstream.NewReader(buf)
	ls["bitstream.read_ns_per_call"] = medianNs(probeReps, func() {
		r.Reset(buf)
		for i, want := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil {
				bad = fmt.Errorf("bitstream probe: read %d of call %d: %w", widths[i], i, err)
				return
			}
			if got != want {
				bad = fmt.Errorf("bitstream probe: read %d of call %d gave %x, wrote %x", widths[i], i, got, want)
				return
			}
		}
	}) / n
	return bad
}

// acSymbols turns the luma coefficients of a decoded frame back into the
// run/size symbols its AC Huffman table coded, at most limit of them.
func acSymbols(f *jpegcodec.Frame, limit int) []byte {
	syms := make([]byte, 0, limit)
	coeff := f.Coeff[0]
	for b := 0; b+64 <= len(coeff) && len(syms) < limit; b += 64 {
		blk := coeff[b : b+64]
		run := 0
		for k := 1; k < 64; k++ {
			v := blk[jfif.ZigZag[k]]
			if v == 0 {
				run++
				continue
			}
			for ; run > 15; run -= 16 {
				syms = append(syms, 0xF0)
			}
			if v < 0 {
				v = -v
			}
			syms = append(syms, byte(run<<4|bits.Len32(uint32(v))))
			run = 0
		}
		if run > 0 {
			syms = append(syms, 0x00)
		}
	}
	return syms
}

func probeHuffman(ls layerSet, f *jpegcodec.Frame) error {
	syms := acSymbols(f, 1<<19)
	if len(syms) == 0 {
		return fmt.Errorf("huffman probe: the frame has no AC symbols")
	}
	var freq [256]int64
	for _, s := range syms {
		freq[s]++
	}
	var tbl *huffman.Table
	var bad error
	ls["huffman.build_us"] = medianNs(20, func() {
		spec, err := huffman.BuildFromFrequencies(freq)
		if err == nil {
			tbl, err = huffman.New(spec)
		}
		if err != nil {
			bad = fmt.Errorf("huffman probe: build: %w", err)
		}
	}) / 1e3
	if bad != nil {
		return bad
	}
	n := float64(len(syms))
	w := bitstream.NewWriter()
	var buf []byte
	ls["huffman.encode_ns_per_sym"] = medianNs(probeReps, func() {
		w.Reset()
		for _, s := range syms {
			if err := tbl.Encode(w, s); err != nil {
				bad = fmt.Errorf("huffman probe: encode: %w", err)
				return
			}
		}
		buf = append(buf[:0], w.Flush()...)
	}) / n
	if bad != nil {
		return bad
	}
	r := bitstream.NewReader(buf)
	ls["huffman.decode_ns_per_sym"] = medianNs(probeReps, func() {
		r.Reset(buf)
		for i, want := range syms {
			got, err := tbl.Decode(r)
			if err != nil {
				bad = fmt.Errorf("huffman probe: symbol %d: %w", i, err)
				return
			}
			if got != want {
				bad = fmt.Errorf("huffman probe: symbol %d decoded as %02x, encoded %02x", i, got, want)
				return
			}
		}
	}) / n
	return bad
}

// entropyDecoded parses the stream and entropy-decodes it, returning the
// frame with its coefficients in place. The caller releases the frame.
func entropyDecoded(data []byte) (*jpegcodec.Frame, error) {
	f, ed, err := jpegcodec.PrepareDecode(data)
	if err != nil {
		return nil, err
	}
	if err := ed.DecodeAll(); err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// probeCodec times the pieces of jpegcodec that the op decomposition does
// not reach: the IDCT and colour halves of the back phase, the back phase
// on all workers, progressive and restart-parallel entropy decoding, and
// the encoder.
func probeCodec(ls layerSet, it *item, want uint32, workers int) error {
	mp := it.mpix()
	perMpix := func(ns float64) float64 { return ns / 1e6 / mp }

	ref, err := hetjpeg.DecodeRGB(it.Data)
	if err != nil {
		return err
	}
	defer ref.Release()

	// The two halves of the back phase, run whole-image one after the
	// other, must give the fused pipeline's pixels.
	var idct, conv, back []float64
	for i := 0; i < probeReps; i++ {
		f, err := entropyDecoded(it.Data)
		if err != nil {
			return err
		}
		out := jpegcodec.NewRGBImage(f.OutW, f.OutH)
		t0 := time.Now()
		for c := range f.Planes {
			jpegcodec.IDCTRange(f, c, 0, f.MCURows)
		}
		t1 := time.Now()
		jpegcodec.ColorConvertRange(f, 0, f.OutH, out)
		t2 := time.Now()
		idct = append(idct, float64(t1.Sub(t0)))
		conv = append(conv, float64(t2.Sub(t1)))
		sum := checksum(out.Pix)
		out.Release()
		f.Release()
		if sum != want {
			return fmt.Errorf("codec probe: IDCTRange then ColorConvertRange give checksum %08x, the decode %08x", sum, want)
		}

		if f, err = entropyDecoded(it.Data); err != nil {
			return err
		}
		out = jpegcodec.NewRGBImage(f.OutW, f.OutH)
		t0 = time.Now()
		jpegcodec.ParallelPhaseScalarWorkers(f, 0, f.MCURows, out, workers)
		back = append(back, float64(time.Since(t0)))
		sum = checksum(out.Pix)
		out.Release()
		f.Release()
		if sum != want {
			return fmt.Errorf("codec probe: ParallelPhaseScalarWorkers(%d) gives checksum %08x, the decode %08x", workers, sum, want)
		}
	}
	ls["jpegcodec.idct_ms_per_mpix"] = perMpix(median(idct))
	ls["jpegcodec.color_ms_per_mpix"] = perMpix(median(conv))
	ls["jpegcodec.back_workers_ms_per_mpix"] = perMpix(median(back))

	// The encoder, and the two entropy decoders its streams exercise.
	mcuW, _ := jfif.Sub420.MCUPixels()
	settings := []struct {
		metric string
		eo     jpegcodec.EncodeOptions
	}{
		{"jpegcodec.encode_ms_per_mpix", jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, OptimizeHuffman: true}},
		{"jpegcodec.encode_progressive_ms_per_mpix", jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, Progressive: true}},
		{"", jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, RestartInterval: (it.W + mcuW - 1) / mcuW}},
	}
	streams := make([][]byte, len(settings))
	for i, s := range settings {
		var bad error
		ns := medianNs(probeReps, func() {
			streams[i], err = jpegcodec.Encode(ref, s.eo)
			if err != nil {
				bad = err
			}
		})
		if bad != nil {
			return fmt.Errorf("codec probe: encode: %w", bad)
		}
		if s.metric != "" {
			ls[s.metric] = perMpix(ns)
		}
	}
	var rstSum uint32
	var prog, rst []float64
	for i := 0; i < probeReps; i++ {
		f, ed, err := jpegcodec.PrepareDecode(streams[1])
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = ed.DecodeAll()
		prog = append(prog, float64(time.Since(t0)))
		f.Release()
		if err != nil {
			return fmt.Errorf("codec probe: progressive entropy decode: %w", err)
		}

		if f, _, err = jpegcodec.PrepareDecode(streams[2]); err != nil {
			return err
		}
		t0 = time.Now()
		_, err = jpegcodec.DecodeAllParallelRestart(f, workers)
		rst = append(rst, float64(time.Since(t0)))
		if err != nil {
			f.Release()
			return fmt.Errorf("codec probe: restart-parallel entropy decode: %w", err)
		}
		// Restart-parallel decoding must fill the buffer the sequential
		// decoder fills: finish both and compare pixels.
		out := jpegcodec.NewRGBImage(f.OutW, f.OutH)
		jpegcodec.ParallelPhaseScalar(f, 0, f.MCURows, out)
		rstSum = checksum(out.Pix)
		out.Release()
		f.Release()
	}
	seq, err := hetjpeg.DecodeRGB(streams[2])
	if err != nil {
		return err
	}
	seqSum := checksum(seq.Pix)
	seq.Release()
	if rstSum != seqSum {
		return fmt.Errorf("codec probe: restart-parallel decode gives checksum %08x, sequential %08x", rstSum, seqSum)
	}
	ls["jpegcodec.entropy_progressive_ms_per_mpix"] = perMpix(median(prog))
	ls["jpegcodec.entropy_restart_ms_per_mpix"] = perMpix(median(rst))
	return nil
}

// probeKernels times the dct and color kernels on blocks and planes of a
// decoded frame.
func probeKernels(ls layerSet, f *jpegcodec.Frame) {
	const maxBlocks = 4096
	nb := len(f.Coeff[0]) / 64
	if nb > maxBlocks {
		nb = maxBlocks
	}
	coeff := f.Coeff[0][:nb*64]
	q := f.QuantInt(0)
	stride := 8 * nb
	dst := make([]byte, 8*stride)
	perBlock := func(kernel func(blk []int32, dst []byte)) float64 {
		return medianNs(5, func() {
			for b := 0; b < nb; b++ {
				kernel(coeff[b*64:b*64+64:b*64+64], dst[b*8:])
			}
		}) / float64(nb)
	}
	ls["dct.idct_4x4_ns_per_block"] = perBlock(func(blk []int32, d []byte) { dct.InverseInt4x4DequantBytes(blk, q, d, stride) })
	ls["dct.idct_dc_ns_per_block"] = perBlock(func(blk []int32, d []byte) { dct.InverseIntDCBytes(blk[0]*q[0], d, stride) })
	ls["dct.idct_scaled4_ns_per_block"] = perBlock(func(blk []int32, d []byte) { dct.InverseIntScaled4x4DequantBytes(blk, q, d, stride) })
	ls["dct.idct_scaled2_ns_per_block"] = perBlock(func(blk []int32, d []byte) { dct.InverseIntScaled2x2DequantBytes(blk, q, d, stride) })
	// The dense kernel runs last: its pixels feed the forward transform.
	ls["dct.idct_dense_ns_per_block"] = perBlock(func(blk []int32, d []byte) { dct.InverseIntDequantBytes(blk, q, d, stride) })
	var in [dct.BlockSize]int32
	ls["dct.fdct_ns_per_block"] = medianNs(5, func() {
		for b := 0; b < nb; b++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					in[y*8+x] = int32(dst[y*stride+b*8+x]) - 128
				}
			}
			dct.ForwardInt(&in)
		}
	}) / float64(nb)

	// Colour kernels on the luma plane of the frame: real sample
	// statistics, and large enough to leave the cache.
	p := f.Planes[0]
	pw, ph := p.PlaneW(), p.PlaneH()
	plane := f.Samples[0][:pw*ph]
	rgb := make([]byte, pw*3)
	px := float64(pw * ph)
	ls["color.convert_ns_per_px"] = medianNs(5, func() {
		for y := 0; y < ph; y++ {
			row := plane[y*pw : y*pw+pw]
			color.ConvertRow(row, row, row, rgb, pw)
		}
	}) / px
	up := make([]byte, 2*pw)
	ls["color.upsample_h2v1_ns_per_px"] = medianNs(5, func() {
		for y := 0; y < ph; y++ {
			color.UpsampleRowH2V1Fancy(plane[y*pw:y*pw+pw], up)
		}
	}) / (2 * px)
	big := make([]byte, 4*pw*ph)
	ls["color.upsample_h2v2_ns_per_px"] = medianNs(5, func() { color.UpsampleH2V2Fancy(plane, pw, ph, big) }) / (4 * px)
	small := make([]byte, pw*ph/4)
	ls["color.downsample_h2v2_ns_per_px"] = medianNs(5, func() { color.DownsampleH2V2(plane, pw, ph, small) }) / px
}

func probePool(ls layerSet) {
	// The size class of a 3-megapixel RGB image, the largest buffer the
	// decoder asks for in these workloads.
	const n = 3 * 3_000_000
	var p pool.Slab[byte]
	getPut := func() {
		s := p.Get(n)
		p.Put(s)
	}
	getPut()
	ls["pool.getput_ns"] = medianNs(20, getPut)
}

//go:embed model_gtx560.json
var modelJSON []byte

// probeCore measures what the paper's simulation costs a service decode
// on the host (FinishVirtual) and, in virtual time, what its best mode
// gains over the SIMD baseline on this corpus. Virtual times are
// simulated: they must repeat to the last digit.
func probeCore(ls layerSet, c *corpus) error {
	var model perfmodel.Model
	if err := json.Unmarshal(modelJSON, &model); err != nil {
		return fmt.Errorf("core probe: model_gtx560.json: %w", err)
	}
	spec := hetjpeg.PlatformByName(platformName)
	var finish []float64
	var pps, simd float64
	n := 0
	for i := range c.Items {
		if n == 6 {
			break
		}
		data := c.Items[i].Data
		if im, err := jfif.Parse(data); err != nil || im.Progressive {
			continue // the partitioning modes are defined on baseline streams
		}
		n++
		for r := 0; r < probeReps; r++ {
			p, err := core.Prepare(data, core.Options{Mode: core.ModePipelinedGPU, Spec: spec})
			if err != nil {
				return fmt.Errorf("core probe: %w", err)
			}
			if err := p.EntropyDecode(context.Background()); err != nil {
				p.Release()
				return fmt.Errorf("core probe: %w", err)
			}
			t0 := time.Now()
			res, err := p.FinishVirtual()
			finish = append(finish, float64(time.Since(t0).Nanoseconds()))
			if err != nil {
				p.Release()
				return fmt.Errorf("core probe: %w", err)
			}
			res.Release()
		}
		for _, m := range []struct {
			mode core.Mode
			sum  *float64
		}{{core.ModePPS, &pps}, {core.ModeSIMD, &simd}} {
			res, err := core.Decode(data, core.Options{Mode: m.mode, Spec: spec, Model: &model, VirtualOnly: true})
			if err != nil {
				return fmt.Errorf("core probe: %v: %w", m.mode, err)
			}
			*m.sum += res.TotalNs
			res.Release()
		}
	}
	if n == 0 {
		return fmt.Errorf("core probe: corpus %s has no baseline item", c.Workload)
	}
	ls["core.finish_virtual_us"] = median(finish) / 1e3
	ls["core.virtual_ms_pps"] = pps / 1e6
	ls["core.virtual_speedup_pps_vs_simd"] = simd / pps
	return nil
}

func probeRescache(ls layerSet, it *item) error {
	var key rescache.Key
	ls["rescache.key_us_per_mb"] = medianNs(20, func() {
		key = rescache.KeyFor(it.Data, jpegcodec.Scale1, false)
	}) / 1e3 / (float64(len(it.Data)) / 1e6)
	if key.Hash != sha256.Sum256(it.Data) {
		return fmt.Errorf("rescache probe: KeyFor does not hash the body")
	}

	ctx := context.Background()
	cache := rescache.New(1 << 20)
	produce := func() (*core.Result, error) {
		return &core.Result{Image: jpegcodec.NewRGBImage(8, 8)}, nil
	}
	ent, _, err := cache.Do(ctx, key, produce)
	if err != nil {
		return fmt.Errorf("rescache probe: %w", err)
	}
	ent.Release()
	const gets = 1 << 16
	var bad error
	ls["rescache.get_hit_ns"] = medianNs(probeReps, func() {
		for i := 0; i < gets; i++ {
			e := cache.Get(key)
			if e == nil {
				bad = fmt.Errorf("rescache probe: resident key missed")
				return
			}
			e.Release()
		}
	}) / gets
	if bad != nil {
		return bad
	}
	const misses = 4096
	n := uint64(0)
	ls["rescache.do_miss_overhead_us"] = medianNs(probeReps, func() {
		for i := 0; i < misses; i++ {
			n++
			k := rescache.Key{Scale: jpegcodec.Scale1}
			binary.BigEndian.PutUint64(k.Hash[:], n)
			e, st, err := cache.Do(ctx, k, produce)
			if err != nil {
				bad = fmt.Errorf("rescache probe: %w", err)
				return
			}
			if st != rescache.Miss {
				e.Release()
				bad = fmt.Errorf("rescache probe: a new key was a %v", st)
				return
			}
			e.Release()
		}
	}) / misses / 1e3
	return bad
}

func probeTranscode(ls layerSet, it *item) error {
	mp := it.mpix()
	opts := xcodeOptions(xcodes[xcHalf], 1)
	var dec, enc []float64
	var outBytes, outPx float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		img, err := hetjpeg.DecodeRGBScaled(it.Data, opts.Scale)
		dec = append(dec, float64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("transcode probe: %w", err)
		}
		t0 = time.Now()
		res, err := transcode.EncodeImage(img, opts, false, 0)
		enc = append(enc, float64(time.Since(t0)))
		img.Release()
		if err != nil {
			return fmt.Errorf("transcode probe: %w", err)
		}
		outBytes, outPx = float64(len(res.Data)), float64(res.W*res.H)
	}
	var bad error
	fast := medianNs(probeReps, func() {
		res, err := hetjpeg.Transcode(it.Data, xcodeOptions(xcodes[xcEighth], 1))
		if err != nil {
			bad = err
		} else if !res.FastPath {
			bad = fmt.Errorf("a baseline input at 1/8 did not take the DC-only path")
		}
	})
	if bad != nil {
		return fmt.Errorf("transcode probe: %w", bad)
	}
	ls["transcode.decode_ms_per_mpix"] = median(dec) / 1e6 / mp
	ls["transcode.encode_ms_per_mpix"] = median(enc) / 1e6 / mp
	ls["transcode.fastpath_ms_per_mpix"] = fast / 1e6 / mp
	ls["transcode.out_bytes_per_px"] = outBytes / outPx
	return nil
}

// batchOrder is the batch the scheduler probes run: the gallery's own
// submission order, or for the other workloads their distinct decodes
// repeated until the batch holds at least 12 images.
func batchOrder(c *corpus) []int {
	if c.Workload == "batch_gallery" {
		return c.Cycle
	}
	var decodes []int
	for i := range c.Ops {
		if c.Ops[i].Xcode < 0 {
			decodes = append(decodes, i)
		}
	}
	var order []int
	for len(order) < 12 {
		order = append(order, decodes...)
	}
	return order
}

// queueSampleEvery is how often the scheduler probe reads QueueStats
// while its batches run.
const queueSampleEvery = 2 * time.Millisecond

// probeBatch runs one batch through the band scheduler on all workers
// and on one, and sets the scheduler's wall time against the sequential
// cost of the same images (sequentialNs: the sum over the batch of the
// public decomposition, measured by the caller).
func probeBatch(ls layerSet, c *corpus, order []int, workers int, sequentialNs float64) error {
	var mp float64
	for _, idx := range order {
		mp += c.mpixOf(&c.Ops[idx])
	}
	const passes = 3
	rate := func(w int, sampleQueue bool) (mpixPerS float64, walls, blocks, inflight []float64, last hetjpeg.BatchQueueStats, err error) {
		ex, err := newExecutor(w)
		if err != nil {
			return 0, nil, nil, nil, last, err
		}
		defer stopExecutor(ex)
		s := newSamples((passes + 1) * len(order))
		runBatch(ex, c, order, s, nil, 0) // warm-up: pools and calibrator
		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			if !sampleQueue {
				return
			}
			tick := time.NewTicker(queueSampleEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					inflight = append(inflight, float64(ex.QueueStats().InFlight))
				}
			}
		}()
		for p := 0; p < passes; p++ {
			run := runBatch(ex, c, order, s, nil, int32(p))
			walls = append(walls, float64(run.wallNs))
			for _, b := range run.submitBlockNs {
				blocks = append(blocks, float64(b))
			}
		}
		close(stop)
		<-sampled
		last = ex.QueueStats()
		if s.failed > 0 {
			return 0, nil, nil, nil, last, fmt.Errorf("batch probe on %d workers: %s", w, s.failures[0])
		}
		return mp / (median(walls) / 1e9), walls, blocks, inflight, last, nil
	}
	rateW, walls, blocks, inflight, qs, err := rate(workers, true)
	if err != nil {
		return err
	}
	rate1, _, _, _, _, err := rate(1, false)
	if err != nil {
		return err
	}
	ls["batch.batch_ms_p50"] = median(walls) / 1e6
	ls["batch.mpix_per_s_workers1"] = rate1
	ls["batch.scaling_efficiency"] = rateW / (float64(workers) * rate1)
	ls["batch.idle_share"] = 1 - sequentialNs/(float64(workers)*median(walls))
	ls["batch.submit_block_ms_p50"] = median(blocks) / 1e6
	if len(inflight) > 0 { // a batch of tiny images can finish between two samples
		ls["batch.inflight_mean"] = mean(inflight)
	}
	ls["batch.entropy_ns_per_mcu"] = qs.EntropyNsPerMCU
	ls["batch.back_ns_per_mcu"] = qs.BackNsPerMCU
	return nil
}

// sequentialCost sums, over a batch, each image's sequential cost through
// the public decomposition: the median of reps timings per distinct op.
func sequentialCost(c *corpus, order []int) (float64, error) {
	cost := make(map[int]float64)
	for _, idx := range order {
		if _, ok := cost[idx]; ok {
			continue
		}
		o := &c.Ops[idx]
		var bad error
		cost[idx] = medianNs(probeReps, func() {
			out, err := decomposedOp(c, o, nil, -1, 0)
			if err != nil {
				bad = err
				return
			}
			out.release()
		})
		if bad != nil {
			return 0, fmt.Errorf("sequential cost of %s: %w", o.Name, bad)
		}
	}
	var sum float64
	for _, idx := range order {
		sum += cost[idx]
	}
	return sum, nil
}

// probeLayers runs every probe that does not need traffic.
func probeLayers(c *corpus, workers int) (layerSet, error) {
	ls := layerSet{}
	it, err := sampleItem(c)
	if err != nil {
		return nil, err
	}
	if err := probeBitstream(ls, c.Seed); err != nil {
		return nil, err
	}
	var parse []float64
	for i := range c.Items {
		data := c.Items[i].Data
		parse = append(parse, medianNs(probeReps, func() { _, err = jfif.Parse(data) }))
		if err != nil {
			return nil, fmt.Errorf("jfif probe: %w", err)
		}
	}
	ls["jfif.parse_us"] = median(parse) / 1e3

	f, err := entropyDecoded(it.Data)
	if err != nil {
		return nil, err
	}
	err = probeHuffman(ls, f)
	if err == nil {
		out := jpegcodec.NewRGBImage(f.OutW, f.OutH)
		jpegcodec.ParallelPhaseScalar(f, 0, f.MCURows, out)
		want := checksum(out.Pix)
		out.Release()
		probeKernels(ls, f)
		f.Release()
		err = probeCodec(ls, it, want, workers)
	} else {
		f.Release()
	}
	if err != nil {
		return nil, err
	}
	probePool(ls)
	if err := probeCore(ls, c); err != nil {
		return nil, err
	}
	if err := probeRescache(ls, it); err != nil {
		return nil, err
	}
	if err := probeTranscode(ls, it); err != nil {
		return nil, err
	}
	order := batchOrder(c)
	seqNs, err := sequentialCost(c, order)
	if err != nil {
		return nil, err
	}
	if err := probeBatch(ls, c, order, workers, seqNs); err != nil {
		return nil, err
	}
	return ls, nil
}
