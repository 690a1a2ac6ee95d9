package platform

// Embedded is a what-if machine beyond the paper's Table 1: the
// tablet/smartphone class its conclusion points to ("with the
// availability of GPU accelerators on desktops and embedded devices such
// as tablets and smartphones..."). An integrated GPU shares the memory
// controller with a weaker CPU, so host-device "transfers" are cheap
// cache-coherent handoffs rather than PCIe DMA — which moves the
// CPU-vs-GPU crossover substantially toward the GPU even though the GPU
// itself is small. Its Section 5.1 fit is committed beside the Table 1
// machines' (`repro fit` writes all four), and
// BenchmarkExtension_EmbeddedPlatform runs it; the paper-reproduction
// experiments do not.
func Embedded() *Spec {
	// A ~2012 big.LITTLE-class CPU: slower clocks and narrower SIMD than
	// the desktop i7s.
	huff := HuffCosts{NsPerBit: 3.4, NsPerBlock: 45}
	scalar := StageCosts{
		IDCTNsPerBlock:    520,
		UpsampleNsPerPix:  2.6,
		ColorNsPerPix:     6.0,
		StoreNsPerPix:     1.9,
		RowOverheadNsPerY: 210,
	}
	simd := StageCosts{
		IDCTNsPerBlock:    190,
		UpsampleNsPerPix:  0.9,
		ColorNsPerPix:     2.2,
		StoreNsPerPix:     0.8,
		RowOverheadNsPerY: 140,
	}
	return &Spec{
		Name:       "Embedded",
		CPUModel:   "ARM Cortex-A15 class",
		CPUFreqGHz: 1.7,
		CPUCores:   4,
		GPUModel:   "integrated GPU (shared memory)",
		GPUCoreMHz: 533,
		GPUCores:   32,
		GPUMemMB:   0, // shares system memory
		ComputeCap: "embedded",
		Huff:       huff,
		CPUScalar:  scalar,
		CPUSIMD:    simd,
		GPU: GPUCost{
			EffOpsPerNs:   5.5,
			MemBWBytesNs:  10,
			LaunchNs:      4000,
			GroupSchedNs:  60,
			MaxLocalInt32: 1024,
		},
		// Zero-copy handoff: a cache flush, not a bus transfer.
		PCIe:             PCIeCost{LatencyNs: 2500, BytesPerNs: 24},
		Dispatch:         DispatchCost{NsPerCall: 2200, NsPerKB: 0.6},
		DefaultChunkRows: 16,
		WorkGroupBlocks:  8,
	}
}
