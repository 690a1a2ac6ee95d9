// Command profile runs the offline profiling step of Section 5.1 for one
// simulated platform: it builds the training corpora, profiles every
// image, fits the polynomial performance model (AIC-selected degree,
// Horner form) and the pipelining chunk size (Section 4.5), and writes
// the model as JSON. `go generate ./internal/perfmodel` runs it for the
// three Table 1 machines to rewrite the fits the library embeds.
//
// With -cpuprofile / -memprofile it also emits pprof artifacts covering
// the run — the profiling step exercises the full decode hot path
// (entropy decode, sparse IDCT dispatch, fused upsample+color bands), so
// this is the quickest way to inspect where decode time goes:
//
//	profile -platform "GTX 680" -out gtx680.json -cpuprofile cpu.prof
//	go tool pprof cpu.prof
//
// Usage:
//
//	profile -platform "GTX 680" -out gtx680.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"hetjpeg"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/perfmodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("profile: ")

	platformName := flag.String("platform", "GTX 560", `"GT 430", "GTX 560" or "GTX 680"`)
	out := flag.String("out", "", "output model JSON path (required)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after the run) to this path")
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	// run carries the work so its defers (profile flush, file close) fire
	// before any exit — log.Fatal here would leave a truncated cpu.prof.
	if err := run(*platformName, *out, *cpuprofile, *memprofile); err != nil {
		log.Fatal(err)
	}
}

func run(platformName, out, cpuprofile, memprofile string) error {
	spec := hetjpeg.PlatformByName(platformName)
	if spec == nil {
		return fmt.Errorf("unknown platform %q", platformName)
	}

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	model, err := perfmodel.Train(spec)
	if err != nil {
		return err
	}
	if err := model.Save(out); err != nil {
		return err
	}
	fmt.Printf("profiled %s in %v\n", spec, time.Since(start).Round(time.Millisecond))
	fmt.Printf("chunk size: %d MCU rows\n", model.ChunkRows)
	for _, sub := range []jfif.Subsampling{jfif.Sub422, jfif.Sub444, jfif.Sub420} {
		if sm := model.ForSub(sub); sm != nil {
			fmt.Printf("%s: Huffman poly degree %d, PCPU degree %d, PGPU degree %d\n",
				sub, sm.HuffPerPixel.Degree(), sm.PCPU.Deg, sm.PGPU.Deg)
		}
	}
	fmt.Printf("wrote %s\n", out)

	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle allocations so the heap profile reflects retention
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", memprofile)
	}
	return nil
}
