package gpusim

import (
	"sync/atomic"
	"testing"

	"hetjpeg/internal/platform"
)

func dev() *Device { return New(platform.GTX560()) }

func TestRunExecutesAllItems(t *testing.T) {
	d := dev()
	var count int64
	k := &Kernel{
		Name:          "count",
		Groups:        13,
		ItemsPerGroup: 7,
		Phases: []PhaseFunc{func(g *Group, item int) {
			atomic.AddInt64(&count, 1)
		}},
	}
	d.Run(k)
	if count != 13*7 {
		t.Fatalf("executed %d items, want %d", count, 13*7)
	}
}

func TestPhasesAreBarriered(t *testing.T) {
	// Phase 2 must observe every phase-1 write of its own group (the
	// local-memory barrier semantics the IDCT kernel relies on).
	d := dev()
	const items = 16
	bad := int64(0)
	k := &Kernel{
		Name:          "barrier",
		Groups:        50,
		ItemsPerGroup: items,
		LocalInt32:    items,
		Phases: []PhaseFunc{
			func(g *Group, item int) { g.Local[item] = int32(g.ID + item) },
			func(g *Group, item int) {
				// Read a different item's slot.
				peer := (item + 5) % items
				if g.Local[peer] != int32(g.ID+peer) {
					atomic.AddInt64(&bad, 1)
				}
			},
		},
	}
	d.Run(k)
	if bad != 0 {
		t.Fatalf("%d cross-item reads missed phase-1 writes", bad)
	}
}

func TestLocalMemoryZeroedPerGroup(t *testing.T) {
	d := dev()
	bad := int64(0)
	k := &Kernel{
		Name:          "zeroed",
		Groups:        64,
		ItemsPerGroup: 1,
		LocalInt32:    4,
		Phases: []PhaseFunc{func(g *Group, item int) {
			for _, v := range g.Local {
				if v != 0 {
					atomic.AddInt64(&bad, 1)
				}
			}
			g.Local[0] = 42 // pollute for the next group on this worker
		}},
	}
	d.Run(k)
	if bad != 0 {
		t.Fatalf("%d groups saw dirty local memory", bad)
	}
}

func TestCopyInNarrowsAndCopyOut(t *testing.T) {
	d := dev()
	buf := d.NewCoefBuffer(8)
	d.CopyInAt(buf, 2, []int32{1, -2, 300})
	if buf.Data[2] != 1 || buf.Data[3] != -2 || buf.Data[4] != 300 {
		t.Fatalf("CopyInAt wrote %v", buf.Data)
	}
	bb := d.NewByteBuffer(10)
	for i := range bb.Data {
		bb.Data[i] = byte(i)
	}
	host := make([]byte, 10)
	d.CopyOutAt(host, 3, bb, 5)
	for i := 3; i < 8; i++ {
		if host[i] != byte(i) {
			t.Fatalf("host[%d]=%d", i, host[i])
		}
	}
	if host[0] != 0 || host[9] != 0 {
		t.Fatal("CopyOutAt touched bytes outside its range")
	}
}
