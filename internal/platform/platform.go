// Package platform describes the three CPU-GPU machines of the paper's
// Table 1 together with the calibrated virtual-time cost constants used by
// the simulated devices. The constants were fitted against the measured
// anchors the paper reports (Section 6.1): SIMD decodes ~2x faster than
// the sequential decoder; on a 2048x2048 4:2:2 image the GTX 560 runs the
// kernels ~10x faster than the SIMD parallel phase (2.6x including
// transfers), the GTX 680 13.7x (4.3x), and the GT 430's GPU mode is ~23%
// slower than SIMD overall.
package platform

import "fmt"

// StageCosts models the CPU cost of the parallel phase per unit of work.
type StageCosts struct {
	IDCTNsPerBlock    float64 // dequantize + inverse DCT, one 8x8 block
	UpsampleNsPerPix  float64 // chroma upsampling per output pixel
	ColorNsPerPix     float64 // color conversion per output pixel
	StoreNsPerPix     float64 // writing interleaved RGB per pixel
	RowOverheadNsPerY float64 // loop/buffer overhead per image row
}

// HuffCosts models sequential entropy decoding on the CPU.
type HuffCosts struct {
	NsPerBit   float64 // cost per entropy-coded bit
	NsPerBlock float64 // per-block bookkeeping (DC predictor, EOB, ...)
}

// GPUCost models the simulated device's execution rates.
type GPUCost struct {
	EffOpsPerNs  float64 // sustained arithmetic throughput (ops per ns)
	MemBWBytesNs float64 // sustained global-memory bandwidth (bytes per ns)
	LaunchNs     float64 // fixed cost per kernel launch
	// GroupSchedNs is the per-work-group scheduling overhead: very small
	// work-groups multiply it (the reason the Section 5.1 sweep rejects
	// tiny groups).
	GroupSchedNs float64
	// MaxLocalInt32 is the occupancy knee: work-groups whose local
	// memory exceeds it reduce the number of concurrently active groups
	// per multiprocessor, modeled as a throughput penalty (the reason
	// Section 4.4 stops short of merging all three kernels — "the number
	// of available registers constrains the number of active
	// work-groups").
	MaxLocalInt32 int
}

// PCIeCost models host-device transfers (pinned buffers).
type PCIeCost struct {
	LatencyNs  float64 // fixed per-transfer cost
	BytesPerNs float64 // sustained bandwidth
}

// DispatchCost models the CPU-side expense of enqueueing OpenCL work
// (the paper's T_disp).
type DispatchCost struct {
	NsPerCall float64
	NsPerKB   float64
}

// Spec is one CPU-GPU machine: the Table 1 hardware description plus the
// calibrated cost model.
type Spec struct {
	Name string

	// Table 1 fields.
	CPUModel   string
	CPUFreqGHz float64
	CPUCores   int
	GPUModel   string
	GPUCoreMHz int
	GPUCores   int
	GPUMemMB   int
	ComputeCap string

	Huff      HuffCosts
	CPUScalar StageCosts
	CPUSIMD   StageCosts
	GPU       GPUCost
	PCIe      PCIeCost
	Dispatch  DispatchCost

	// DefaultChunkRows is the pipelined-execution chunk size in MCU rows,
	// as determined by the Section 4.5 offline profiling for this device.
	DefaultChunkRows int
	// WorkGroupBlocks is the profiled optimal work-group size expressed
	// in 8x8 blocks per work-group (the paper sweeps 4..32 MCUs).
	WorkGroupBlocks int
}

// String implements fmt.Stringer.
func (s *Spec) String() string {
	return fmt.Sprintf("%s (%s + %s)", s.Name, s.CPUModel, s.GPUModel)
}

// Machines. CPU constants were calibrated for the i7-2600k and scaled by
// clock ratio for the i7-3770k (which also has a newer core).
func i7_2600k() (HuffCosts, StageCosts, StageCosts) {
	huff := HuffCosts{NsPerBit: 1.55, NsPerBlock: 20}
	scalar := StageCosts{
		IDCTNsPerBlock:    210,
		UpsampleNsPerPix:  1.1,
		ColorNsPerPix:     2.6,
		StoreNsPerPix:     0.8,
		RowOverheadNsPerY: 90,
	}
	simd := StageCosts{
		IDCTNsPerBlock:    68,
		UpsampleNsPerPix:  0.35,
		ColorNsPerPix:     0.85,
		StoreNsPerPix:     0.30,
		RowOverheadNsPerY: 60,
	}
	return huff, scalar, simd
}

func i7_3770k() (HuffCosts, StageCosts, StageCosts) {
	huff, scalar, simd := i7_2600k()
	const f = 0.93 // ~7% faster per clock+frequency
	huff.NsPerBit *= f
	huff.NsPerBlock *= f
	for _, sc := range []*StageCosts{&scalar, &simd} {
		sc.IDCTNsPerBlock *= f
		sc.UpsampleNsPerPix *= f
		sc.ColorNsPerPix *= f
		sc.StoreNsPerPix *= f
		sc.RowOverheadNsPerY *= f
	}
	return huff, scalar, simd
}

// GT430 is the low-end machine: the GPU alone cannot beat the CPU's SIMD
// path, which is what makes dynamic partitioning worthwhile there.
func GT430() *Spec {
	huff, scalar, simd := i7_2600k()
	return &Spec{
		Name:       "GT 430",
		CPUModel:   "Intel i7-2600k",
		CPUFreqGHz: 3.4,
		CPUCores:   4,
		GPUModel:   "NVIDIA GT 430",
		GPUCoreMHz: 700,
		GPUCores:   96,
		GPUMemMB:   1024,
		ComputeCap: "2.1",
		Huff:       huff,
		CPUScalar:  scalar,
		CPUSIMD:    simd,
		GPU: GPUCost{
			EffOpsPerNs:   8.5,
			MemBWBytesNs:  20,
			LaunchNs:      9000,
			GroupSchedNs:  50,
			MaxLocalInt32: 1024, // 8 blocks of column-pass workspace
		},
		PCIe:             PCIeCost{LatencyNs: 16000, BytesPerNs: 5.2},
		Dispatch:         DispatchCost{NsPerCall: 3500, NsPerKB: 1.2},
		DefaultChunkRows: 16,
		WorkGroupBlocks:  8,
	}
}

// GTX560 is the mid-range machine.
func GTX560() *Spec {
	huff, scalar, simd := i7_2600k()
	return &Spec{
		Name:       "GTX 560",
		CPUModel:   "Intel i7-2600k",
		CPUFreqGHz: 3.4,
		CPUCores:   4,
		GPUModel:   "NVIDIA GTX 560Ti",
		GPUCoreMHz: 822,
		GPUCores:   384,
		GPUMemMB:   1024,
		ComputeCap: "2.1",
		Huff:       huff,
		CPUScalar:  scalar,
		CPUSIMD:    simd,
		GPU: GPUCost{
			EffOpsPerNs:   130,
			MemBWBytesNs:  100,
			LaunchNs:      8000,
			GroupSchedNs:  20,
			MaxLocalInt32: 2048, // 16 blocks (the profiled optimum)
		},
		PCIe:             PCIeCost{LatencyNs: 15000, BytesPerNs: 6.0},
		Dispatch:         DispatchCost{NsPerCall: 3200, NsPerKB: 1.0},
		DefaultChunkRows: 24,
		WorkGroupBlocks:  16,
	}
}

// GTX680 is the high-end machine.
func GTX680() *Spec {
	huff, scalar, simd := i7_3770k()
	return &Spec{
		Name:       "GTX 680",
		CPUModel:   "Intel i7-3770k",
		CPUFreqGHz: 3.5,
		CPUCores:   4,
		GPUModel:   "NVIDIA GTX 680",
		GPUCoreMHz: 1006,
		GPUCores:   1536,
		GPUMemMB:   2048,
		ComputeCap: "3.0",
		Huff:       huff,
		CPUScalar:  scalar,
		CPUSIMD:    simd,
		GPU: GPUCost{
			EffOpsPerNs:   170,
			MemBWBytesNs:  180,
			LaunchNs:      6000,
			GroupSchedNs:  12,
			MaxLocalInt32: 2048,
		},
		PCIe:             PCIeCost{LatencyNs: 13000, BytesPerNs: 10.0},
		Dispatch:         DispatchCost{NsPerCall: 3000, NsPerKB: 1.0},
		DefaultChunkRows: 32,
		WorkGroupBlocks:  16,
	}
}

// All returns the three machines in the paper's order.
func All() []*Spec {
	return []*Spec{GT430(), GTX560(), GTX680()}
}

// ByName returns the machine with the given name, or nil.
func ByName(name string) *Spec {
	for _, s := range All() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// HuffmanNs returns the virtual cost of entropy-decoding `bits` bits
// spanning `blocks` coefficient blocks.
func (s *Spec) HuffmanNs(bits int64, blocks int) float64 {
	return float64(bits)*s.Huff.NsPerBit + float64(blocks)*s.Huff.NsPerBlock
}

// DispatchNs returns the CPU-side cost of enqueueing `bytes` of device
// work (the paper's T_disp).
func (s *Spec) DispatchNs(bytes int) float64 {
	return s.Dispatch.NsPerCall + s.Dispatch.NsPerKB*float64(bytes)/1024
}

// TransferNs returns the virtual cost of moving `bytes` across PCIe in
// one direction.
func (s *Spec) TransferNs(bytes int) float64 {
	return s.PCIe.LatencyNs + float64(bytes)/s.PCIe.BytesPerNs
}

// KernelCostNs is the device kernel cost formula, applied by
// kernels.CostPlan to every launch: launch overhead, per-group
// scheduling, compute and memory components (summed, so merged kernels
// model their saved global traffic), and an occupancy penalty for
// local-memory-heavy groups.
func (s *Spec) KernelCostNs(ops, globalBytes float64, groups, localInt32PerGroup int) float64 {
	g := s.GPU
	eff := g.EffOpsPerNs
	if g.MaxLocalInt32 > 0 && localInt32PerGroup > g.MaxLocalInt32 {
		// Fewer resident groups per multiprocessor: throughput scales
		// down with the local-memory oversubscription.
		eff *= float64(g.MaxLocalInt32) / float64(localInt32PerGroup)
	}
	t := g.LaunchNs + float64(groups)*g.GroupSchedNs
	t += ops / eff
	t += globalBytes / g.MemBWBytesNs
	return t
}

// CPUParallelNs returns the virtual cost of the CPU parallel phase
// (dequant+IDCT, upsample, color, store) over `blocks` coefficient blocks
// producing `pixels` output pixels across `rows` image rows, with or
// without the SIMD fast path, including upsampling work when needed.
func (s *Spec) CPUParallelNs(simd bool, blocks int, pixels int, rows int, upsampled bool) float64 {
	c := s.CPUScalar
	if simd {
		c = s.CPUSIMD
	}
	t := float64(blocks)*c.IDCTNsPerBlock +
		float64(pixels)*(c.ColorNsPerPix+c.StoreNsPerPix) +
		float64(rows)*c.RowOverheadNsPerY
	if upsampled {
		t += float64(pixels) * c.UpsampleNsPerPix
	}
	return t
}
