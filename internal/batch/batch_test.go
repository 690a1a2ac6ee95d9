package batch

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"hetjpeg/internal/core"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/sim"
)

func corpus(t testing.TB, n int) [][]byte {
	t.Helper()
	sizes := [][2]int{{320, 240}, {512, 384}, {640, 480}, {800, 600}}
	var out [][]byte
	for i := 0; i < n; i++ {
		wh := sizes[i%len(sizes)]
		items, err := imagegen.SizeSweep(jfif.Sub422, 0.3+0.1*float64(i%5), [][2]int{wh}, int64(300+i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, items[0].Data)
	}
	return out
}

func TestBatchOverlapBeatsSerial(t *testing.T) {
	spec := platform.GTX560()
	model, err := perfmodel.Default(spec)
	if err != nil {
		t.Fatal(err)
	}
	datas := corpus(t, 6)
	res, err := Decode(datas, Options{Spec: spec, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Images) != 6 {
		t.Fatalf("%d results", len(res.Images))
	}
	if res.Failed != 0 {
		t.Fatalf("%d images failed", res.Failed)
	}
	if err := res.Timeline.Validate(); err != nil {
		t.Fatalf("merged timeline invalid: %v", err)
	}
	gain := res.Gain()
	t.Logf("serial %.2f ms, pipelined %.2f ms, gain %.3fx", res.SerialNs/1e6, res.PipelinedNs/1e6, gain)
	if gain < 1.0 {
		t.Errorf("batch pipelining made things slower: %.3f", gain)
	}
	if res.PipelinedNs > res.SerialNs {
		t.Error("merged makespan exceeds serial sum")
	}
}

func TestBatchPixelCorrectness(t *testing.T) {
	spec := platform.GTX680()
	datas := corpus(t, 3)
	res, err := Decode(datas, Options{Spec: spec, Mode: core.ModePipelinedGPU})
	if err != nil {
		t.Fatal(err)
	}
	for i, ir := range res.Images {
		if ir.Err != nil {
			t.Fatalf("image %d: %v", i, ir.Err)
		}
		ref, err := core.Decode(datas[i], core.Options{Mode: core.ModeSequential, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if len(ir.Res.Image.Pix) != len(ref.Image.Pix) {
			t.Fatalf("image %d: size mismatch", i)
		}
		for j := range ref.Image.Pix {
			if ir.Res.Image.Pix[j] != ref.Image.Pix[j] {
				t.Fatalf("image %d differs at byte %d", i, j)
			}
		}
	}
}

// Decode prices on Options.Spec, so a batch without one is refused up
// front; the executor prices nothing and needs none (below).
func TestBatchConfigError(t *testing.T) {
	if _, err := Decode(nil, Options{}); err == nil {
		t.Fatal("missing spec accepted")
	}
}

// An executor built with zero Spec and Mode decodes, and what it
// delivers is unpriced: pixels equal to the reference and the frame's
// own statistics, but no timeline.
func TestExecutorWithoutSpecIsUnpriced(t *testing.T) {
	data := corpus(t, 1)[0]
	ex, err := NewExecutor(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	ir, err := ex.Decode(context.Background(), data, 0)
	if err != nil || ir.Err != nil {
		t.Fatalf("decode: %v, %v", err, ir.Err)
	}
	defer ir.Res.Release()
	ref, err := core.Decode(data, core.Options{Spec: platform.GTX560()})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	res := ir.Res
	if res.Timeline != nil || res.TotalNs != 0 || res.HuffNs != 0 {
		t.Errorf("executor result is priced: timeline %v, %.1f ns, Huffman %.1f ns", res.Timeline != nil, res.TotalNs, res.HuffNs)
	}
	want := core.Stats{MCURows: ref.Stats.MCURows, Scale: ref.Stats.Scale, EntropyScans: ref.Stats.EntropyScans}
	if res.Stats != want {
		t.Errorf("stats %+v, want the frame's own %+v", res.Stats, want)
	}
	if !bytes.Equal(res.Image.Pix, ref.Image.Pix) {
		t.Error("pixels differ from core.Decode")
	}
}

// A corrupt image must not abort the batch: its slot carries the error,
// every other image decodes normally, and the merged timeline skips it.
func TestBatchFailureIsolation(t *testing.T) {
	spec := platform.GT430()
	datas := corpus(t, 4)
	datas[1] = []byte{0x00, 0x01} // not a JPEG
	res, err := Decode(datas, Options{Spec: spec, Mode: core.ModeGPU})
	if err != nil {
		t.Fatalf("batch aborted on one bad image: %v", err)
	}
	if res.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", res.Failed)
	}
	for i, ir := range res.Images {
		if i == 1 {
			if ir.Err == nil || ir.Res != nil {
				t.Fatalf("bad image: err=%v res=%v", ir.Err, ir.Res)
			}
			continue
		}
		if ir.Err != nil {
			t.Fatalf("good image %d failed: %v", i, ir.Err)
		}
	}
	if err := res.Timeline.Validate(); err != nil {
		t.Fatalf("merged timeline invalid: %v", err)
	}
	// The merged schedule covers exactly the three good images.
	want := 0
	for i, ir := range res.Images {
		if i != 1 {
			want += len(ir.Res.Timeline.Tasks())
		}
	}
	if got := len(res.Timeline.Tasks()); got != want {
		t.Fatalf("merged tasks = %d, want %d", got, want)
	}
}

func TestBatchGainGrowsWithCount(t *testing.T) {
	// More images amortize the non-overlapped head and tail.
	spec := platform.GTX560()
	two, err := Decode(corpus(t, 2), Options{Spec: spec, Mode: core.ModePipelinedGPU})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Decode(corpus(t, 8), Options{Spec: spec, Mode: core.ModePipelinedGPU})
	if err != nil {
		t.Fatal(err)
	}
	if eight.Gain() < two.Gain()-0.02 {
		t.Errorf("gain should not shrink with batch size: 2->%.3f, 8->%.3f", two.Gain(), eight.Gain())
	}
}

// The virtual batch timeline must not depend on the worker count: the
// merge is deterministic in submission order, whatever the wall-clock
// completion order was. Pixels must be bit-identical too.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	spec := platform.GTX560()
	datas := corpus(t, 8)
	one, err := Decode(datas, Options{Spec: spec, Mode: core.ModePipelinedGPU, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Decode(datas, Options{Spec: spec, Mode: core.ModePipelinedGPU, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if one.PipelinedNs != many.PipelinedNs || one.SerialNs != many.SerialNs {
		t.Fatalf("virtual times depend on workers: 1 -> (%.1f, %.1f), 8 -> (%.1f, %.1f)",
			one.SerialNs, one.PipelinedNs, many.SerialNs, many.PipelinedNs)
	}
	for i := range datas {
		if !bytes.Equal(one.Images[i].Res.Image.Pix, many.Images[i].Res.Image.Pix) {
			t.Fatalf("image %d pixels differ between worker counts", i)
		}
	}
}

// lastCPUIDQuadratic is the pre-fix O(n²) rescan, kept here as the
// reference the one-pass dispatch map must reproduce exactly.
func lastCPUIDQuadratic(tl *sim.Timeline, t *sim.Task) int {
	last := -1
	for _, u := range tl.Tasks() {
		if u.ID >= t.ID {
			break
		}
		if u.Resource == sim.ResCPU {
			last = u.ID
		}
	}
	return last
}

func mergeQuadratic(images []ImageResult) *sim.Timeline {
	out := sim.New()
	var gpuPrev *sim.Task
	for _, ir := range images {
		if ir.Err != nil || ir.Res == nil {
			continue
		}
		idMap := make(map[int]*sim.Task)
		for _, t := range ir.Res.Timeline.Tasks() {
			var deps []*sim.Task
			if t.Resource == sim.ResGPU {
				if last := idMap[lastCPUIDQuadratic(ir.Res.Timeline, t)]; last != nil {
					deps = append(deps, last)
				}
				if gpuPrev != nil {
					deps = append(deps, gpuPrev)
				}
			}
			nt := out.Add(t.Resource, t.Kind, t.Label, t.Cost, deps...)
			idMap[t.ID] = nt
			if t.Resource == sim.ResGPU {
				gpuPrev = nt
			}
		}
	}
	return out
}

// The one-pass dispatch map must produce a merged schedule identical to
// the old quadratic rescan: same makespan, same per-task times.
func TestMergeMatchesQuadraticReference(t *testing.T) {
	spec := platform.GTX560()
	model, err := perfmodel.Default(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModePipelinedGPU, core.ModePPS, core.ModeSIMD} {
		res, err := Decode(corpus(t, 5), Options{Spec: spec, Model: model, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		fast := MergeTimelines(res.Images)
		ref := mergeQuadratic(res.Images)
		if fast.Makespan() != ref.Makespan() {
			t.Fatalf("%v: makespan %.3f != reference %.3f", mode, fast.Makespan(), ref.Makespan())
		}
		ft, rt := fast.Tasks(), ref.Tasks()
		if len(ft) != len(rt) {
			t.Fatalf("%v: %d tasks != reference %d", mode, len(ft), len(rt))
		}
		for i := range ft {
			if ft[i].Start != rt[i].Start || ft[i].End != rt[i].End {
				t.Fatalf("%v: task %d scheduled [%.1f,%.1f], reference [%.1f,%.1f]",
					mode, i, ft[i].Start, ft[i].End, rt[i].Start, rt[i].End)
			}
		}
	}
}

// Streaming submission: results arrive on the channel as they finish
// and the channel closes after Close drains the pool.
func TestExecutorStreaming(t *testing.T) {
	spec := platform.GTX680()
	datas := corpus(t, 5)
	ex, err := NewExecutor(Options{Spec: spec, Mode: core.ModePipelinedGPU, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	go func() {
		for i, d := range datas {
			if err := ex.Submit(ctx, i, d); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
		ex.Close()
	}()
	seen := make(map[int]bool)
	for ir := range ex.Results() {
		if ir.Err != nil {
			t.Fatalf("image %d: %v", ir.Index, ir.Err)
		}
		if seen[ir.Index] {
			t.Fatalf("image %d delivered twice", ir.Index)
		}
		seen[ir.Index] = true
	}
	if len(seen) != len(datas) {
		t.Fatalf("%d results, want %d", len(seen), len(datas))
	}
}

// Cancellation: a cancelled context stops the batch promptly; images
// that never ran report ctx.Err() in their slot.
func TestBatchCancellation(t *testing.T) {
	spec := platform.GTX560()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before anything runs
	res, err := DecodeContext(ctx, corpus(t, 4), Options{Spec: spec, Mode: core.ModeSIMD, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 4 {
		t.Fatalf("Failed = %d, want 4", res.Failed)
	}
	for i, ir := range res.Images {
		if !errors.Is(ir.Err, context.Canceled) {
			t.Fatalf("image %d: err = %v, want context.Canceled", i, ir.Err)
		}
	}
}
