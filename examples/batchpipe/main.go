// Batchpipe: decoding a photo stream with cross-image pipelining. The
// paper overlaps Huffman decoding with device work *within* one image
// (Figure 5b); a gallery or browser decodes many images back to back, so
// the same overlap can continue across image boundaries: while the
// device finishes image k's kernels, the CPU already entropy-decodes
// image k+1. On the host the same idea runs in real time: the band
// scheduler entropy-decodes several images in flight while a shared
// work-stealing pool executes MCU-band back-phase tasks from all of
// them. This example reports the virtual cross-image overlap, which
// DecodeBatch prices, and the band scheduler's wall clock on one worker
// against -workers workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"hetjpeg"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
)

func main() {
	log.SetFlags(0)
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "decode workers")
	count := flag.Int("n", 12, "stream length")
	flag.Parse()

	// A stream of mixed photos.
	var stream [][]byte
	sizes := [][2]int{{640, 480}, {1024, 768}, {1600, 1200}}
	for i := 0; i < *count; i++ {
		wh := sizes[i%len(sizes)]
		items, err := imagegen.SizeSweep(jfif.Sub422, 0.3+0.05*float64(i%8), [][2]int{wh}, int64(900+i))
		if err != nil {
			log.Fatal(err)
		}
		stream = append(stream, items[0].Data)
	}

	spec := hetjpeg.PlatformByName("GTX 560")
	model, err := hetjpeg.DefaultModel(spec)
	if err != nil {
		log.Fatal(err)
	}

	// Wall-clock reference and the virtual report: DecodeBatch runs the
	// band scheduler on one worker, then prices every image's schedule.
	t0 := time.Now()
	one, err := hetjpeg.DecodeBatch(stream, hetjpeg.BatchOptions{Spec: spec, Model: model, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	oneWall := time.Since(t0)
	fmt.Printf("decoded %d images on %s (per-image PPS)\n\n", len(one.Images), spec)
	for _, ir := range one.Images {
		if ir.Err != nil {
			fmt.Printf("  image %2d: FAILED: %v\n", ir.Index, ir.Err)
			continue
		}
		st := ir.Res.Stats
		fmt.Printf("  image %2d: %4dx%-4d  %6.2f ms  (gpu %d / cpu %d rows)\n",
			ir.Index, ir.Res.Image.W, ir.Res.Image.H, ir.Res.TotalNs/1e6,
			st.GPUMCURows, st.CPUMCURows)
		// The per-image report is done; recycle the pooled buffers.
		ir.Res.Release()
	}

	// The same scheduler at full width, through the streaming interface
	// a long-running service consumes. The executor prices nothing: this
	// run is timed on the wall clock only.
	ex, err := hetjpeg.NewBatchExecutor(hetjpeg.BatchOptions{Model: model, Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	go func() {
		for i, data := range stream {
			if err := ex.Submit(context.Background(), i, data); err != nil {
				log.Fatal(err)
			}
		}
		ex.Close()
	}()
	for ir := range ex.Results() {
		if ir.Err != nil {
			log.Printf("image %d: %v", ir.Index, ir.Err)
		}
		if ir.Res != nil {
			ir.Res.Release()
		}
	}
	bandWall := time.Since(t0)

	fmt.Printf("\nvirtual timeline (the paper's metric):\n")
	fmt.Printf("  serial sum:          %8.2f ms\n", one.SerialNs/1e6)
	fmt.Printf("  cross-image overlap: %8.2f ms\n", one.PipelinedNs/1e6)
	fmt.Printf("  batch pipelining gain: %.3fx\n", one.Gain())

	fmt.Printf("\nwall clock (this host):\n")
	fmt.Printf("  band scheduler, %2d worker(s): %8.2f ms\n", 1, float64(oneWall.Microseconds())/1000)
	fmt.Printf("  band scheduler, %2d worker(s): %8.2f ms  (%.2fx)\n",
		*workers, float64(bandWall.Microseconds())/1000, float64(oneWall)/float64(bandWall))
}
