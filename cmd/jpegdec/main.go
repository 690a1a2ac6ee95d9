// Command jpegdec decodes baseline or progressive JPEG files with any
// of the six decoder modes on any simulated platform, writes a single
// result as PNG, and reports the virtual schedule. Several positional files are
// decoded as one concurrent batch with per-image failure isolation.
//
// Usage:
//
//	jpegdec -in photo.jpg -out photo.png -mode pps -platform "GTX 560"
//	jpegdec -mode pps -workers 8 a.jpg b.jpg c.jpg
package main

import (
	"errors"
	"flag"
	"fmt"
	"image/png"
	"log"
	"os"
	"runtime"
	"time"

	"hetjpeg"
	"hetjpeg/internal/core"
)

// exitSalvaged is the exit code for decodes that produced pixels but
// lost part of the stream (-salvage): distinct from 1 (fatal error) so
// scripts can tell "degraded output written" from "no output".
const exitSalvaged = 3

func main() {
	log.SetFlags(0)
	log.SetPrefix("jpegdec: ")

	in := flag.String("in", "", "input JPEG file (or pass files as arguments)")
	out := flag.String("out", "", "output PNG file (optional, single input only)")
	modeName := flag.String("mode", "pps", "auto|sequential|simd|gpu|pipeline|sps|pps")
	scaleName := flag.String("scale", "1", "decode scale: 1|1/2|1/4|1/8 (scaled IDCT, not post-shrink)")
	platformName := flag.String("platform", "GTX 560", `"GT 430", "GTX 560" or "GTX 680"`)
	chunk := flag.Int("chunk", 0, "override pipelining chunk size in MCU rows")
	split := flag.Bool("split-kernels", false, "disable Section 4.4 kernel merging")
	report := flag.Bool("report", true, "print the virtual schedule breakdown")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent decodes in batch mode")
	salvage := flag.Bool("salvage", false, "salvage partial images from corrupt streams (exit 3 when impaired)")
	flag.Parse()

	files := flag.Args()
	if *in != "" {
		files = append([]string{*in}, files...)
	}
	if len(files) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *out != "" && len(files) > 1 {
		log.Fatal("-out only applies to a single input")
	}
	spec := hetjpeg.PlatformByName(*platformName)
	if spec == nil {
		log.Fatalf("unknown platform %q", *platformName)
	}
	mode, ok := hetjpeg.ParseMode(*modeName)
	if !ok {
		log.Fatalf("unknown mode %q", *modeName)
	}
	scale, ok := hetjpeg.ParseScale(*scaleName)
	if !ok {
		log.Fatalf("unknown scale %q (want 1, 1/2, 1/4 or 1/8)", *scaleName)
	}

	model, err := hetjpeg.DefaultModel(spec)
	if err != nil {
		log.Fatal(err)
	}
	// Resolve the auto sentinel so every report names the mode that
	// actually ran.
	mode = mode.Resolve(model)

	if len(files) > 1 {
		decodeBatch(files, spec, model, mode, scale, *workers, *salvage)
		return
	}

	data, err := os.ReadFile(files[0])
	if err != nil {
		log.Fatal(err)
	}
	res, err := hetjpeg.Decode(data, hetjpeg.Options{
		Mode:         mode,
		Spec:         spec,
		Model:        model,
		ChunkRows:    *chunk,
		SplitKernels: *split,
		Scale:        scale,
		Salvage:      *salvage,
	})
	// Under -salvage a recoverable stream yields BOTH a usable result
	// and an ErrPartialData error; only a nil result is fatal.
	if res == nil {
		log.Fatal(err)
	}
	salvaged := err != nil
	// Hand the pixel and coefficient slabs back once the report and the
	// optional PNG are written (poolcheck: release on every path).
	defer res.Release()
	if salvaged {
		printSalvageReport(res.Salvage, err)
	}

	coding := "baseline"
	if res.Stats.EntropyScans > 1 {
		coding = fmt.Sprintf("progressive, %d scans", res.Stats.EntropyScans)
	}
	if res.Stats.Scale > 1 {
		coding += fmt.Sprintf(", scale 1/%d", res.Stats.Scale)
	}
	fmt.Printf("decoded %dx%d (%s, %s) with %s on %s\n",
		res.Image.W, res.Image.H, res.Frame.Sub, coding, mode, spec)
	fmt.Printf("virtual time: %.2f ms (Huffman %.2f ms, %.0f%% of schedule)\n",
		res.TotalNs/1e6, res.HuffNs/1e6, 100*res.HuffNs/res.TotalNs)
	fmt.Printf("split: %d MCU rows on GPU, %d on CPU, %d chunk(s)",
		res.Stats.GPUMCURows, res.Stats.CPUMCURows, res.Stats.Chunks)
	if res.Stats.Repartitioned {
		fmt.Printf(" (re-partitioned by %+d rows)", res.Stats.RepartitionDeltaRows)
	}
	fmt.Println()
	if *report {
		for _, bd := range res.Timeline.SortedBreakdown() {
			fmt.Printf("  %-16s %10.3f ms\n", bd.Kind, bd.Total/1e6)
		}
	}
	if *gantt {
		fmt.Print(res.Timeline.Gantt(100))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := png.Encode(f, hetjpeg.ToStdImage(res.Image)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if salvaged {
		// os.Exit skips the deferred Release, so release here first.
		res.Release()
		os.Exit(exitSalvaged)
	}
}

// printSalvageReport describes a salvaged decode: what was recovered,
// where the damage sits, and the errors that were absorbed.
func printSalvageReport(rep *hetjpeg.SalvageReport, err error) {
	fmt.Printf("SALVAGED: %v\n", err)
	if rep == nil {
		return
	}
	fmt.Printf("  recovered %d of %d MCUs (%d resyncs, %d damaged regions)\n",
		rep.RecoveredMCUs, rep.TotalMCUs, rep.Resyncs, len(rep.Damaged))
	for _, d := range rep.Damaged {
		fmt.Printf("  damaged: MCUs %d-%d\n", d.FirstMCU, d.FirstMCU+d.NumMCU-1)
	}
	for _, se := range rep.Errors {
		fmt.Printf("  scan %d: %v\n", se.Scan, se.Err)
	}
}

// decodeBatch decodes several files as one concurrent batch. A file
// that fails to read or decode is reported in its slot; the others
// still decode. With salvage, partially recovered images print as
// SALVAGED and the process exits with code 3.
func decodeBatch(files []string, spec *hetjpeg.Platform, model *hetjpeg.Model, mode core.Mode, scale hetjpeg.Scale, workers int, salvage bool) {
	datas := make([][]byte, len(files))
	readErr := make([]error, len(files))
	for i, name := range files {
		datas[i], readErr[i] = os.ReadFile(name)
	}
	start := time.Now()
	res, err := hetjpeg.DecodeBatch(datas, hetjpeg.BatchOptions{
		Spec: spec, Model: model, Mode: mode, Workers: workers, Scale: scale,
		Salvage: salvage,
	})
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	failed, salvaged := 0, 0
	for i, ir := range res.Images {
		switch {
		case readErr[i] != nil:
			failed++
			fmt.Printf("  %-24s FAILED: %v\n", files[i], readErr[i])
		case ir.Res == nil:
			failed++
			fmt.Printf("  %-24s FAILED: %v\n", files[i], ir.Err)
		case ir.Err != nil && errors.Is(ir.Err, hetjpeg.ErrPartialData):
			salvaged++
			rep := ir.Res.Salvage
			fmt.Printf("  %-24s SALVAGED: %d of %d MCUs recovered (%d resyncs)\n",
				files[i], rep.RecoveredMCUs, rep.TotalMCUs, rep.Resyncs)
			ir.Res.Release()
		default:
			fmt.Printf("  %-24s %4dx%-4d  %7.2f ms  (gpu %d / cpu %d rows)\n",
				files[i], ir.Res.Image.W, ir.Res.Image.H, ir.Res.TotalNs/1e6,
				ir.Res.Stats.GPUMCURows, ir.Res.Stats.CPUMCURows)
			// The report only needs the metadata above; recycle the
			// pooled buffers before the next image prints.
			ir.Res.Release()
		}
	}
	fmt.Printf("\n%d images (%d failed, %d salvaged) on %s with %s, %d workers\n",
		len(files), failed, salvaged, spec, mode, workers)
	fmt.Printf("virtual: serial %.2f ms, overlapped %.2f ms (gain %.3fx)\n",
		res.SerialNs/1e6, res.PipelinedNs/1e6, res.Gain())
	fmt.Printf("wall clock: %.2f ms\n", float64(wall.Microseconds())/1000)
	if salvaged > 0 {
		os.Exit(exitSalvaged)
	}
}
