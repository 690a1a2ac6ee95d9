package batch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hetjpeg/internal/faultgen"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
)

// salvageCorpusImage returns one clean encoded stream plus a
// truncated (salvageable) variant of it.
func salvageCorpusImage(t testing.TB, seed int64, ri int) (clean, hurt []byte) {
	t.Helper()
	img := imagegen.Generate(imagegen.Scene{Seed: seed, Detail: 0.5}, 160, 128)
	defer img.Release()
	data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{
		Quality: 85, Subsampling: jfif.Sub420, RestartInterval: ri,
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := faultgen.EntropySpans(data)
	if len(spans) != 1 {
		t.Fatalf("got %d entropy spans, want 1", len(spans))
	}
	cut := spans[0].Start + (spans[0].End-spans[0].Start)*3/5
	return data, data[:cut]
}

// TestBatchSalvageDelivery mixes clean, salvageable and fatally corrupt
// images through the executor and asserts the delivery contract:
// salvaged images carry BOTH a usable Res (pixels identical to the
// scalar salvage reference) and an Err wrapping ErrPartialData; fatal
// images carry only Err; Result.Failed counts only the fatal ones. The
// contract must hold with one band worker and with several.
func TestBatchSalvageDelivery(t *testing.T) {
	spec := platform.GTX560()
	clean, hurt := salvageCorpusImage(t, 61, 4)
	d, err := jpegcodec.Open(hurt, jpegcodec.Options{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, refErr := d.Run(1)
	refRep := d.SalvageReport()
	if refErr == nil || !errors.Is(refErr, jpegcodec.ErrPartialData) {
		t.Fatalf("reference salvage: err = %v, want ErrPartialData", refErr)
	}
	defer ref.Release()
	fatal := []byte("not a jpeg at all")
	datas := [][]byte{clean, hurt, fatal, hurt, clean}

	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			res, err := Decode(datas, Options{Spec: spec, Salvage: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 1 || res.Salvaged != 2 {
				t.Fatalf("Failed = %d, Salvaged = %d; want 1, 2", res.Failed, res.Salvaged)
			}
			for i, ir := range res.Images {
				switch i {
				case 2: // fatal
					if ir.Res != nil || ir.Err == nil {
						t.Fatalf("fatal image: Res = %v, Err = %v", ir.Res, ir.Err)
					}
				case 1, 3: // salvaged
					if ir.Res == nil || ir.Err == nil {
						t.Fatalf("salvaged image %d: Res = %v, Err = %v", i, ir.Res, ir.Err)
					}
					if !errors.Is(ir.Err, jpegcodec.ErrPartialData) {
						t.Fatalf("salvaged image %d: err %v does not wrap ErrPartialData", i, ir.Err)
					}
					rep := ir.Res.Salvage
					if rep == nil || rep.RecoveredMCUs != refRep.RecoveredMCUs || rep.Resyncs != refRep.Resyncs {
						t.Fatalf("salvaged image %d: report %+v differs from reference %+v", i, rep, refRep)
					}
					if !bytes.Equal(ir.Res.Image.Pix, ref.Pix) {
						t.Fatalf("salvaged image %d: pixels differ from scalar salvage reference", i)
					}
					ir.Res.Release()
				default: // clean
					if ir.Err != nil || ir.Res == nil {
						t.Fatalf("clean image %d: Res = %v, Err = %v", i, ir.Res, ir.Err)
					}
					if ir.Res.Salvage != nil {
						t.Fatalf("clean image %d carries a salvage report", i)
					}
					ir.Res.Release()
				}
			}
			if res.Timeline == nil || res.Timeline.Makespan() <= 0 {
				t.Fatal("salvaged batch produced no merged timeline")
			}
		})
	}
}

// TestBatchSalvageOffUnchanged asserts that without Options.Salvage a
// corrupt image still fails outright: Res nil, no partial delivery.
func TestBatchSalvageOffUnchanged(t *testing.T) {
	spec := platform.GTX560()
	_, hurt := salvageCorpusImage(t, 62, 4)
	res, err := Decode([][]byte{hurt}, Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Salvaged != 0 {
		t.Fatalf("Failed = %d, Salvaged = %d; want 1, 0", res.Failed, res.Salvaged)
	}
	if res.Images[0].Res != nil {
		t.Fatal("strict batch delivered a result for a corrupt image")
	}
}

// TestBatchMidCancellationDeliversCompleted cancels a streaming batch
// after the first result arrives and asserts that every submitted image
// still gets exactly one ImageResult — completed decodes are delivered,
// cancelled ones report an error, and no slot is left with neither —
// with one band worker and with two.
func TestBatchMidCancellationDeliversCompleted(t *testing.T) {
	spec := platform.GTX560()
	clean, hurt := salvageCorpusImage(t, 63, 4)
	const n = 12
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			ex, err := NewExecutor(Options{Spec: spec, Salvage: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			submitted := 0
			go func() {
				defer ex.Close()
				for i := 0; i < n; i++ {
					data := clean
					if i%3 == 1 {
						data = hurt
					}
					if ex.Submit(ctx, i, data) != nil {
						return
					}
					submitted++
				}
			}()
			seen := make(map[int]bool)
			completed := 0
			first := true
			for ir := range ex.Results() {
				if first {
					cancel() // mid-flight: some images done, some not started
					first = false
				}
				if seen[ir.Index] {
					t.Fatalf("image %d delivered twice", ir.Index)
				}
				seen[ir.Index] = true
				if ir.Res == nil && ir.Err == nil {
					t.Fatalf("image %d: empty ImageResult {nil, nil}", ir.Index)
				}
				if ir.Res != nil {
					completed++
					ir.Res.Release()
				} else if !errors.Is(ir.Err, context.Canceled) && !errors.Is(ir.Err, jpegcodec.ErrPartialData) {
					t.Fatalf("image %d: unexpected error %v", ir.Index, ir.Err)
				}
			}
			if len(seen) != submitted {
				t.Fatalf("submitted %d images, got %d results", submitted, len(seen))
			}
			if completed == 0 {
				t.Fatal("cancellation swallowed every completed image")
			}
			t.Logf("workers%d: %d submitted, %d completed before cancellation took hold", workers, submitted, completed)
		})
	}
}

// TestBatchSalvageStress is the -race gate: many goroutines pushing a
// mix of salvageable, fatal and clean images through the executor
// with a mid-flight cancellation, checking only the delivery invariants
// (every submission answered once, salvaged implies both fields, no
// {nil,nil}) — any data race in the salvage bookkeeping shows up under
// the race detector.
func TestBatchSalvageStress(t *testing.T) {
	spec := platform.GTX560()
	clean, hurt := salvageCorpusImage(t, 64, 4)
	fatal := bytes.Repeat([]byte{0xFF, 0xD8, 0x00}, 4)
	n := 48
	if testing.Short() {
		n = 16
	}
	ex, err := NewExecutor(Options{Spec: spec, Salvage: true, Workers: 4, MaxInFlight: 6})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var mu sync.Mutex
	submitted := make(map[int]bool)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * n; i < (g+1)*n; i++ {
				var data []byte
				switch i % 3 {
				case 0:
					data = clean
				case 1:
					data = hurt
				default:
					data = fatal
				}
				if ex.Submit(ctx, i, data) == nil {
					mu.Lock()
					submitted[i] = true
					mu.Unlock()
				}
			}
		}(g)
	}
	go func() {
		wg.Wait()
		ex.Close()
	}()
	got := 0
	for ir := range ex.Results() {
		got++
		if ir.Res == nil && ir.Err == nil {
			t.Fatalf("empty ImageResult for image %d", ir.Index)
		}
		if ir.Res != nil && ir.Err != nil && !errors.Is(ir.Err, jpegcodec.ErrPartialData) {
			t.Fatalf("image %d: both fields set but err is %v", ir.Index, ir.Err)
		}
		if got == n { // partway through: yank the context
			cancel()
		}
		if ir.Res != nil {
			ir.Res.Release()
		}
	}
	cancel()
	if got != len(submitted) {
		t.Fatalf("%d submissions, %d results", len(submitted), got)
	}
}
