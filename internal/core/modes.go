package core

import (
	"fmt"

	"hetjpeg/internal/jfif"
	"hetjpeg/internal/kernels"
	"hetjpeg/internal/partition"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/sim"
)

// runCPUOnly schedules the sequential or SIMD decoder: Huffman then the
// whole-image CPU parallel phase.
func (st *decodeState) runCPUOnly(simd bool) error {
	tl := sim.New()
	st.addHuffTasks(tl, 0, st.f.MCURows)
	st.newCPUTile(0).addTasks(tl, st.f, st.opts.Spec, simd)
	st.res.Timeline = tl
	st.res.Stats.CPUMCURows = st.f.MCURows
	return nil
}

// runGPU schedules the GPU-only modes: the whole parallel phase on the
// device, either after full Huffman decoding (Figure 5a) or pipelined
// with it in chunks (Figure 5b).
func (st *decodeState) runGPU(pipelined bool) error {
	f := st.f
	var chunks []*gpuChunk
	if pipelined {
		chunks = st.makeChunks(f.MCURows, st.chunkRows(), f.OutH)
	} else {
		chunks = st.makeChunks(f.MCURows, f.MCURows, f.OutH)
	}
	st.fillChunkPlans(chunks)

	tl := sim.New()
	if st.progressive() {
		// Multi-scan entropy must complete before any chunk's
		// coefficients are final: Huffman is a serial prefix, and the
		// pipelined mode degrades to chunked dispatches after it.
		st.addHuffTasks(tl, 0, f.MCURows)
		for _, ck := range chunks {
			st.addGPUChunkTasks(tl, ck)
		}
	} else {
		for _, ck := range chunks {
			st.addHuffTasks(tl, ck.m0, ck.m1)
			st.addGPUChunkTasks(tl, ck)
		}
	}
	st.res.Timeline = tl
	st.res.Stats.GPUMCURows = f.MCURows
	st.res.Stats.Chunks = len(chunks)
	return nil
}

// subModel selects the fitted model for the frame's subsampling;
// grayscale frames borrow the 4:4:4 model (no chroma work, so the CPU
// share is conservatively overestimated).
func (st *decodeState) subModel() (*perfmodel.SubModel, error) {
	if st.opts.Model == nil {
		return nil, fmt.Errorf("core: mode %v requires Options.Model (see perfmodel.Default)", st.opts.Mode)
	}
	sub := st.f.Sub
	if sub == jfif.SubGray {
		sub = jfif.Sub444
	}
	sm := st.opts.Model.ForSub(sub)
	if sm == nil {
		return nil, fmt.Errorf("core: model has no fit for %v", sub)
	}
	return sm, nil
}

// runPartitioned schedules SPS (pps=false) and PPS (pps=true).
func (st *decodeState) runPartitioned(pps bool) error {
	f := st.f
	sm, err := st.subModel()
	if err != nil {
		return err
	}
	in := partition.Inputs{
		W:         f.Img.Width,
		H:         f.Img.Height,
		D:         st.d,
		MCURowPix: f.MCUHeight,
		Model:     sm,
		ChunkRows: st.chunkRows(),
		// The balance equations keep working in coded pixel rows (the
		// entropy side is scale-invariant), but the parallel-phase
		// polynomials are evaluated at the scaled output geometry, where
		// the back-phase work actually happens.
		Scale: f.Scale,
	}

	var xMCU int // CPU MCU rows
	if pps {
		xMCU = partition.SolvePPS(in)
	} else {
		xMCU = partition.SolveSPS(in)
	}
	if xMCU > f.MCURows {
		xMCU = f.MCURows
	}
	s := f.MCURows - xMCU // GPU gets the top s MCU rows

	if s <= 0 {
		// The model assigns everything to the CPU (possible on machines
		// where the GPU never pays off for this image size).
		if err := st.runCPUOnly(true); err != nil {
			return err
		}
		st.res.Stats.Chunks = 0
		return nil
	}

	// Build the device chunk list. The PPS re-partition corrects the
	// split from Huffman times observed while earlier chunks run on the
	// device; a progressive image finishes all its entropy before the
	// first dispatch, so there is nothing mid-flight to correct.
	var chunks []*gpuChunk
	if pps {
		chunks = st.makeChunks(s, st.chunkRows(), f.RowBound(s))
		if len(chunks) >= 2 && !st.progressive() {
			s = st.repartition(in, sm, chunks, s)
			chunks = st.makeChunks(s, st.chunkRows(), f.RowBound(s))
		}
	} else {
		chunks = st.makeChunks(s, s, f.RowBound(s))
	}

	tile := st.newCPUTile(s)

	st.fillChunkPlans(chunks)

	// Virtual timeline: the CPU decodes entropy for the GPU chunks (and
	// dispatches them) first, then its own region's entropy, then its
	// SIMD tile. SPS decodes all entropy before the single dispatch;
	// progressive images do the same under PPS, since every scan must
	// land before the first chunk's coefficients are final.
	tl := sim.New()
	if pps && !st.progressive() {
		for _, ck := range chunks {
			st.addHuffTasks(tl, ck.m0, ck.m1)
			st.addGPUChunkTasks(tl, ck)
		}
		st.addHuffTasks(tl, s, f.MCURows)
	} else {
		st.addHuffTasks(tl, 0, f.MCURows)
		for _, ck := range chunks {
			st.addGPUChunkTasks(tl, ck)
		}
	}
	tile.addTasks(tl, f, st.opts.Spec, true)
	st.res.Timeline = tl
	st.res.Stats.GPUMCURows = s
	st.res.Stats.CPUMCURows = f.MCURows - s
	st.res.Stats.Chunks = len(chunks)
	return nil
}

// repartition implements the Equation (16)/(17) correction: before the
// last GPU chunk is dispatched, the split is recomputed from the actual
// Huffman times observed so far and the estimated remaining device work.
// It returns the corrected GPU MCU-row count.
func (st *decodeState) repartition(in partition.Inputs, sm *perfmodel.SubModel, chunks []*gpuChunk, s int) int {
	f := st.f
	spec := st.opts.Spec

	// Virtual walk of the schedule up to (excluding) the last chunk.
	cpuNow, gpuEnd := 0.0, 0.0
	for _, ck := range chunks[:len(chunks)-1] {
		for m := ck.m0; m < ck.m1; m++ {
			cpuNow += st.rowCost[m]
		}
		cpuNow += spec.DispatchNs(f.CoeffBytes(ck.m0, ck.m1))
		start := gpuEnd
		if cpuNow > start {
			start = cpuNow
		}
		gpuEnd = start + kernels.TotalNs(kernels.CostPlan(spec, f, ck.m0, ck.m1, ck.y0, ck.y1, !st.opts.SplitKernels))
	}
	last := chunks[len(chunks)-1]
	mLast0 := last.m0

	// Equation (17): corrected density of the remaining region.
	estTotal := sm.THuff(float64(f.Img.Width), float64(f.Img.Height), st.d)
	var actualSoFar float64
	for m := 0; m < mLast0; m++ {
		actualSoFar += st.rowCost[m]
	}
	remTime := estTotal - actualSoFar
	if remTime < 1 {
		remTime = 1
	}
	remTimeRatio := remTime / estTotal
	remHeightRatio := float64(f.Img.Height-mLast0*f.MCUHeight) / float64(f.Img.Height)
	dPrime := partition.CorrectedDensity(st.d, remTimeRatio, remHeightRatio)

	// Equation (16): re-solve over the unprocessed region.
	hPrime := f.Img.Height - mLast0*f.MCUHeight
	prevGPUNs := gpuEnd - cpuNow
	if prevGPUNs < 0 {
		prevGPUNs = 0
	}
	xPrime := partition.Repartition(in, hPrime, dPrime, prevGPUNs)

	remRows := f.MCURows - mLast0
	sNew := mLast0 + (remRows - xPrime)
	if sNew < mLast0 {
		sNew = mLast0
	}
	if sNew > f.MCURows {
		sNew = f.MCURows
	}
	if sNew != s {
		st.res.Stats.Repartitioned = true
		st.res.Stats.RepartitionDeltaRows = s - sNew
	}
	return sNew
}
