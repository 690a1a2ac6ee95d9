// Command jpegxc transcodes JPEG files: decode (optionally directly to
// 1/2, 1/4 or 1/8 scale), then re-encode with optimal Huffman tables
// and optional progressive output. Baseline inputs transcoded to 1/8
// ride the coefficient-domain DC-only fast path — no pixel-domain IDCT
// runs. Several positional files transcode concurrently, at most
// -workers at a time, each through the same one-shot path on one worker.
//
// Usage:
//
//	jpegxc -in photo.jpg -out thumb.jpg -scale 1/8 -quality 80
//	jpegxc -scale 1/2 -progressive -script spectral -workers 8 *.jpg
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"hetjpeg"
	"hetjpeg/internal/transcode"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jpegxc: ")

	in := flag.String("in", "", "input JPEG file (or pass files as arguments)")
	out := flag.String("out", "", "output file (single input; default <name>.xc.jpg)")
	outDir := flag.String("outdir", "", "output directory for batch mode (default alongside inputs)")
	scaleName := flag.String("scale", "1", "decode scale: 1|1/2|1/4|1/8 (scaled IDCT, not post-shrink)")
	quality := flag.Int("quality", 0, "output quality 1..100 (0 means 75)")
	progressive := flag.Bool("progressive", false, "emit a progressive (SOF2) output stream")
	script := flag.String("script", "", "progressive scan script: "+strings.Join(hetjpeg.ScriptNames(), "|"))
	subName := flag.String("subsampling", "444", "output chroma layout: 444|422|420")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "intra-image parallelism and batch concurrency")
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
		log.Fatal("-out only applies to a single input; use -outdir for batches")
	}

	scale, ok := hetjpeg.ParseScale(*scaleName)
	if !ok {
		log.Fatalf("unknown scale %q (want 1, 1/2, 1/4 or 1/8)", *scaleName)
	}
	var sub hetjpeg.Subsampling
	switch *subName {
	case "444":
		sub = hetjpeg.Sub444
	case "422":
		sub = hetjpeg.Sub422
	case "420":
		sub = hetjpeg.Sub420
	default:
		log.Fatalf("unknown subsampling %q (want 444, 422 or 420)", *subName)
	}
	opts := transcode.Options{
		Scale:       scale,
		Quality:     *quality,
		Progressive: *progressive,
		Script:      *script,
		Subsampling: sub,
		Workers:     *workers,
	}
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}

	if len(files) > 1 {
		transcodeBatch(files, opts, *outDir, *workers)
		return
	}

	data, err := os.ReadFile(files[0])
	if err != nil {
		log.Fatal(err)
	}
	res, err := transcode.Transcode(data, opts)
	if err != nil {
		log.Fatal(err)
	}
	dst := *out
	if dst == "" {
		dst = outputName(files[0], *outDir)
	}
	if err := os.WriteFile(dst, res.Data, 0o644); err != nil {
		log.Fatal(err)
	}
	printResult(files[0], dst, len(data), res)
}

// outputName derives <name>.xc.jpg alongside the input (or under dir).
func outputName(input, dir string) string {
	base := strings.TrimSuffix(filepath.Base(input), filepath.Ext(input)) + ".xc.jpg"
	if dir == "" {
		dir = filepath.Dir(input)
	}
	return filepath.Join(dir, base)
}

func printResult(src, dst string, inBytes int, res *transcode.Result) {
	path := "pixel"
	if res.FastPath {
		path = "DC fast path"
	}
	fmt.Printf("%s -> %s: %dx%d, %d -> %d bytes (%s, %s encode)\n",
		src, dst, res.W, res.H, inBytes, len(res.Data), path, res.Class)
	fmt.Printf("  decode %.2f ms, encode %.2f ms (%d MCUs)\n",
		float64(res.DecodeNs)/1e6, float64(res.EncodeNs)/1e6, res.MCUs)
}

// transcodeBatch transcodes the files concurrently, at most workers at
// once, each through the one-shot path on one worker (the output bytes
// do not depend on the worker count). A file that fails only fails its
// own slot; any failure exits 1.
func transcodeBatch(files []string, opts transcode.Options, outDir string, workers int) {
	opts.Workers = 1
	type slot struct {
		res *transcode.Result
		err error
	}
	slots := make([]slot, len(files))
	start := time.Now()
	sem := make(chan struct{}, max(workers, 1))
	var wg sync.WaitGroup
	for i, name := range files {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			data, err := os.ReadFile(name)
			if err != nil {
				slots[i].err = err
				return
			}
			slots[i].res, slots[i].err = transcode.Transcode(data, opts)
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	failed, fast := 0, 0
	for i, name := range files {
		switch s := slots[i]; {
		case s.err != nil:
			failed++
			fmt.Printf("  %-24s FAILED: %v\n", name, s.err)
		default:
			dst := outputName(name, outDir)
			if err := os.WriteFile(dst, s.res.Data, 0o644); err != nil {
				failed++
				fmt.Printf("  %-24s FAILED: %v\n", name, err)
				continue
			}
			if s.res.FastPath {
				fast++
			}
			fmt.Printf("  %-24s %4dx%-4d  %7d bytes  dec %6.2f ms  enc %6.2f ms\n",
				name, s.res.W, s.res.H, len(s.res.Data),
				float64(s.res.DecodeNs)/1e6, float64(s.res.EncodeNs)/1e6)
		}
	}
	fmt.Printf("\n%d files (%d failed, %d fast-path), %d workers\n",
		len(files), failed, fast, workers)
	fmt.Printf("wall clock: %.2f ms\n", float64(wall.Microseconds())/1000)
	if failed > 0 {
		os.Exit(1)
	}
}
