package platform

import "testing"

func TestTable1Fields(t *testing.T) {
	specs := All()
	if len(specs) != 3 {
		t.Fatalf("%d machines want 3", len(specs))
	}
	// Table 1 of the paper.
	want := []struct {
		name     string
		cpu      string
		gpuCores int
		memMB    int
		cc       string
	}{
		{"GT 430", "Intel i7-2600k", 96, 1024, "2.1"},
		{"GTX 560", "Intel i7-2600k", 384, 1024, "2.1"},
		{"GTX 680", "Intel i7-3770k", 1536, 2048, "3.0"},
	}
	for i, w := range want {
		s := specs[i]
		if s.Name != w.name || s.CPUModel != w.cpu || s.GPUCores != w.gpuCores ||
			s.GPUMemMB != w.memMB || s.ComputeCap != w.cc {
			t.Errorf("machine %d: %+v does not match Table 1 entry %+v", i, s, w)
		}
		if s.CPUCores != 4 {
			t.Errorf("%s: CPU cores %d want 4", s.Name, s.CPUCores)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("GTX 560") == nil {
		t.Fatal("GTX 560 not found")
	}
	if ByName("Voodoo 2") != nil {
		t.Fatal("unknown machine resolved")
	}
}

func TestCostMonotonicity(t *testing.T) {
	for _, s := range All() {
		if s.HuffmanNs(2000, 10) <= s.HuffmanNs(1000, 10) {
			t.Errorf("%s: Huffman cost not increasing in bits", s.Name)
		}
		if s.TransferNs(1<<20) <= s.TransferNs(1<<10) {
			t.Errorf("%s: transfer cost not increasing in bytes", s.Name)
		}
		if s.TransferNs(0) <= 0 {
			t.Errorf("%s: transfer latency missing", s.Name)
		}
		if s.DispatchNs(1<<20) <= s.DispatchNs(0) {
			t.Errorf("%s: dispatch cost not increasing", s.Name)
		}
		simd := s.CPUParallelNs(true, 1000, 64000, 100, true)
		scalar := s.CPUParallelNs(false, 1000, 64000, 100, true)
		if scalar <= simd {
			t.Errorf("%s: scalar (%f) should cost more than SIMD (%f)", s.Name, scalar, simd)
		}
		noUps := s.CPUParallelNs(true, 1000, 64000, 100, false)
		if noUps >= simd {
			t.Errorf("%s: removing upsampling should reduce cost", s.Name)
		}
	}
}

func TestCostModelComponents(t *testing.T) {
	s := GTX560()
	g := s.GPU
	// Launch, per-group scheduling, compute and global-memory terms sum.
	want := g.LaunchNs + 10*g.GroupSchedNs + 1e6/g.EffOpsPerNs + 1e6/g.MemBWBytesNs
	if got := s.KernelCostNs(1e6, 1e6, 10, 64); got != want {
		t.Fatalf("cost %v want %v", got, want)
	}
	if got := s.KernelCostNs(0, 0, 0, 0); got != g.LaunchNs {
		t.Fatalf("empty launch cost %v want %v", got, g.LaunchNs)
	}
	// Local memory up to the occupancy knee is free; beyond it compute
	// slows in proportion to the oversubscription.
	atKnee := s.KernelCostNs(1e6, 0, 1, g.MaxLocalInt32)
	if want := g.LaunchNs + g.GroupSchedNs + 1e6/g.EffOpsPerNs; atKnee != want {
		t.Fatalf("cost at the knee %v want %v", atKnee, want)
	}
	past := s.KernelCostNs(1e6, 0, 1, 2*g.MaxLocalInt32)
	if want := g.LaunchNs + g.GroupSchedNs + 2e6/g.EffOpsPerNs; past != want {
		t.Fatalf("cost past the knee %v want %v", past, want)
	}
}

func TestGPURanking(t *testing.T) {
	// Effective device throughput must rank GT 430 < GTX 560 < GTX 680,
	// matching the hardware tiers.
	gt, g5, g6 := GT430(), GTX560(), GTX680()
	if !(gt.GPU.EffOpsPerNs < g5.GPU.EffOpsPerNs && g5.GPU.EffOpsPerNs < g6.GPU.EffOpsPerNs) {
		t.Fatal("device compute ranking violated")
	}
	if !(gt.GPU.MemBWBytesNs < g5.GPU.MemBWBytesNs && g5.GPU.MemBWBytesNs < g6.GPU.MemBWBytesNs) {
		t.Fatal("device bandwidth ranking violated")
	}
}

func TestStringer(t *testing.T) {
	s := GTX560()
	if got := s.String(); got != "GTX 560 (Intel i7-2600k + NVIDIA GTX 560Ti)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestEmbeddedWhatIf(t *testing.T) {
	e := Embedded()
	// The integrated GPU is weaker than every discrete GPU...
	if e.GPU.EffOpsPerNs >= GT430().GPU.EffOpsPerNs {
		t.Error("embedded GPU should be weaker than the GT 430")
	}
	// ...but its zero-copy handoff beats PCIe decisively.
	if e.TransferNs(1<<20) >= GT430().TransferNs(1<<20) {
		t.Error("shared-memory handoff should beat PCIe DMA")
	}
	// The embedded machine is deliberately outside the paper's Table 1.
	if ByName("Embedded") != nil {
		t.Error("Embedded must not appear in the paper's machine list")
	}
}
