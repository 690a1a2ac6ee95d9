// Gallery: a browser-like workload. A page shows a mixed gallery of
// photos (different sizes, subsamplings and texture levels); we decode
// the whole gallery under each execution mode on each machine and
// compare the total virtual decode time — the end-to-end number a photo
// site cares about.
package main

import (
	"fmt"
	"log"
	"time"

	"hetjpeg"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
)

func main() {
	log.SetFlags(0)

	// The gallery: thumbnails through hero images.
	var gallery []imagegen.Item
	specs := []struct {
		w, h   int
		sub    jfif.Subsampling
		detail float64
	}{
		{240, 180, jfif.Sub420, 0.4}, {240, 180, jfif.Sub420, 0.8},
		{640, 480, jfif.Sub422, 0.3}, {640, 480, jfif.Sub422, 0.9},
		{1280, 850, jfif.Sub422, 0.5}, {1280, 850, jfif.Sub444, 0.5},
		{1920, 1280, jfif.Sub422, 0.6}, {2560, 1700, jfif.Sub422, 0.7},
	}
	for i, s := range specs {
		items, err := imagegen.SizeSweep(s.sub, s.detail, [][2]int{{s.w, s.h}}, int64(100+i))
		if err != nil {
			log.Fatal(err)
		}
		gallery = append(gallery, items[0])
	}
	var totalBytes, totalPix int
	for _, it := range gallery {
		totalBytes += len(it.Data)
		totalPix += it.W * it.H
	}
	fmt.Printf("gallery: %d images, %.1f MP, %.1f MB compressed\n\n",
		len(gallery), float64(totalPix)/1e6, float64(totalBytes)/1e6)

	for _, name := range []string{"GT 430", "GTX 560", "GTX 680"} {
		spec := hetjpeg.PlatformByName(name)
		model, err := hetjpeg.DefaultModel(spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", spec)
		var simdTotal float64
		for _, mode := range hetjpeg.AllModes() {
			wall := time.Now()
			var virtual float64
			for _, it := range gallery {
				res, err := hetjpeg.Decode(it.Data, hetjpeg.Options{Mode: mode, Spec: spec, Model: model})
				if err != nil {
					log.Fatalf("%v on %s: %v", mode, it.Name, err)
				}
				virtual += res.TotalNs
				// Recycle the pooled buffers: a gallery page decodes
				// dozens of images, and releasing keeps the whole sweep
				// allocation-flat.
				res.Release()
			}
			if mode == hetjpeg.ModeSIMD {
				simdTotal = virtual
			}
			speedup := "  baseline"
			if simdTotal > 0 && mode != hetjpeg.ModeSIMD {
				speedup = fmt.Sprintf("%7.2fx vs SIMD", simdTotal/virtual)
			}
			fmt.Printf("  %-10s %9.1f ms virtual  %s  (host wall %v)\n",
				mode, virtual/1e6, speedup, time.Since(wall).Round(time.Millisecond))
		}
		fmt.Println()
	}
}
