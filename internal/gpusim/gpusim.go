// Package gpusim implements the simulated OpenCL-programmable GPU that
// substitutes for the paper's physical devices (no GPU API is available
// from pure Go). The simulation is split in two concerns:
//
//   - Correctness: kernels execute for real. An ND-range is decomposed
//     into work-groups; a work-group's work-items run in lock-step phases
//     with an implicit barrier between phases (the SIMT model), sharing a
//     local-memory array. Work-groups execute concurrently on a host
//     goroutine pool. Every decoder mode therefore produces bit-exact
//     pixels.
//
//   - Timing: the device reports none. kernels.CostPlan prices every
//     launch and transfer from the calibrated platform model (arithmetic
//     throughput, global-memory bandwidth, launch overhead, PCIe
//     latency/bandwidth), and schedulers consume only those costs,
//     reproducing the paper's performance landscape deterministically.
package gpusim

import (
	"fmt"
	"runtime"
	"sync"

	"hetjpeg/internal/platform"
	"hetjpeg/internal/pool"
)

// Device is one simulated GPU.
type Device struct {
	Spec    *platform.Spec
	workers int
}

// New creates a device simulated with up to GOMAXPROCS host workers.
// The worker count affects host wall-clock only; kernel results are
// identical for any count.
func New(spec *platform.Spec) *Device {
	return &Device{Spec: spec, workers: runtime.GOMAXPROCS(0)}
}

// Device buffers are the other large per-decode allocation besides the
// host-side whole-image buffers; they recycle through the same kind of
// slab pool (a real device would likewise reuse cl_mem allocations
// across decodes rather than re-allocate device memory per image).
var (
	coefSlabs pool.Slab[int16]
	byteSlabs pool.Slab[byte]
)

// CoefBuffer is a device-resident buffer of DCT coefficients (int16 on
// the wire, as in the paper's `short` buffers).
type CoefBuffer struct{ Data []int16 }

// ByteBuffer is a device-resident buffer of samples or RGB bytes.
type ByteBuffer struct{ Data []byte }

// NewCoefBuffer allocates a device coefficient buffer (zeroed).
func (d *Device) NewCoefBuffer(n int) *CoefBuffer {
	s := coefSlabs.Get(n) //hetlint:transfer ownership moves to the CoefBuffer; Free puts it back
	clear(s)
	return &CoefBuffer{Data: s}
}

// NewByteBuffer allocates a device byte buffer (zeroed).
func (d *Device) NewByteBuffer(n int) *ByteBuffer {
	s := byteSlabs.Get(n) //hetlint:transfer ownership moves to the ByteBuffer; Free puts it back
	clear(s)
	return &ByteBuffer{Data: s}
}

// Free returns the buffer's backing slab to the device allocator. The
// buffer must not be used afterwards; freeing is optional.
func (b *CoefBuffer) Free() {
	if b != nil && b.Data != nil {
		coefSlabs.Put(b.Data)
		b.Data = nil
	}
}

// Free returns the buffer's backing slab to the device allocator. The
// buffer must not be used afterwards; freeing is optional.
func (b *ByteBuffer) Free() {
	if b != nil && b.Data != nil {
		byteSlabs.Put(b.Data)
		b.Data = nil
	}
}

// CopyInAt moves host coefficients (int32 in the whole-image buffer) into
// a device buffer at element offset off, narrowing to int16 (the paper's
// `short` device buffers).
func (d *Device) CopyInAt(dst *CoefBuffer, off int, src []int32) {
	if off+len(src) > len(dst.Data) {
		panic(fmt.Sprintf("gpusim: CopyInAt overflow (%d+%d into %d)", off, len(src), len(dst.Data)))
	}
	out := dst.Data[off : off+len(src)]
	for i, v := range src {
		out[i] = int16(v)
	}
}

// CopyOutAt moves n device bytes starting at offset off back into the
// host buffer at the same offset (device and host share the whole-image
// layout).
func (d *Device) CopyOutAt(dst []byte, off int, src *ByteBuffer, n int) {
	copy(dst[off:off+n], src.Data[off:off+n])
}

// Group is the per-work-group execution context passed to kernel phases.
type Group struct {
	ID    int
	Items int
	Local []int32 // local (shared) memory, zeroed per group
}

// PhaseFunc runs one work-item of one lock-step phase. Implicit barriers
// separate phases, matching OpenCL barrier(CLK_LOCAL_MEM_FENCE) usage.
type PhaseFunc func(g *Group, item int)

// Kernel is a compiled ND-range launch: the work decomposition and the
// lock-step phases.
type Kernel struct {
	Name          string
	Groups        int
	ItemsPerGroup int
	LocalInt32    int // local memory words per group

	Phases []PhaseFunc
}

// Run executes the kernel's work-groups concurrently. Execution is
// synchronous from the caller's perspective; virtual-time asynchrony is
// modeled by the scheduler's timeline.
func (d *Device) Run(k *Kernel) {
	if k.Groups <= 0 || k.ItemsPerGroup <= 0 {
		return
	}
	nw := d.workers
	if nw > k.Groups {
		nw = k.Groups
	}
	if nw <= 1 {
		g := &Group{Local: make([]int32, k.LocalInt32), Items: k.ItemsPerGroup}
		for gid := 0; gid < k.Groups; gid++ {
			g.ID = gid
			for i := range g.Local {
				g.Local[i] = 0
			}
			runGroup(k, g)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, nw)
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			g := &Group{Local: make([]int32, k.LocalInt32), Items: k.ItemsPerGroup}
			for gid := range next {
				g.ID = gid
				for i := range g.Local {
					g.Local[i] = 0
				}
				runGroup(k, g)
			}
		}()
	}
	for gid := 0; gid < k.Groups; gid++ {
		next <- gid
	}
	close(next)
	wg.Wait()
}

func runGroup(k *Kernel, g *Group) {
	for _, phase := range k.Phases {
		for item := 0; item < k.ItemsPerGroup; item++ {
			phase(g, item)
		}
	}
}
