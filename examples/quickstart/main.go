// Quickstart: encode a synthetic photo, then decode it with the
// heterogeneous PPS scheduler and print what the scheduler did.
package main

import (
	"fmt"
	"log"

	"hetjpeg"
)

func main() {
	log.SetFlags(0)

	// Build a 1280x960 test photo and compress it as 4:2:2 JPEG.
	img := hetjpeg.NewImage(1280, 960)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			img.Set(x, y, byte(x*255/img.W), byte(y*255/img.H), byte((x+y)%256))
		}
	}
	data, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{Quality: 88, Subsampling: hetjpeg.Sub422})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %dx%d to %d bytes (%.3f B/px)\n",
		img.W, img.H, len(data), float64(len(data))/float64(img.W*img.H))

	// Pick a machine, take its committed offline profile, decode.
	spec := hetjpeg.PlatformByName("GTX 560")
	model, err := hetjpeg.DefaultModel(spec)
	if err != nil {
		log.Fatal(err)
	}
	res, err := hetjpeg.Decode(data, hetjpeg.Options{
		Mode:  hetjpeg.ModePPS,
		Spec:  spec,
		Model: model,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("decoded with PPS on %s\n", spec)
	fmt.Printf("  virtual time   %.2f ms (Huffman %.2f ms)\n", res.TotalNs/1e6, res.HuffNs/1e6)
	fmt.Printf("  GPU share      %d of %d MCU rows in %d chunks\n",
		res.Stats.GPUMCURows, res.Stats.MCURows, res.Stats.Chunks)
	fmt.Printf("  CPU share      %d MCU rows\n", res.Stats.CPUMCURows)

	// Compare with the SIMD baseline.
	simd, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: hetjpeg.ModeSIMD, Spec: spec})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  speedup        %.2fx over libjpeg-turbo-style SIMD\n", simd.TotalNs/res.TotalNs)

	// Bit-exactness across modes is a library invariant.
	same := len(simd.Image.Pix) == len(res.Image.Pix)
	for i := range simd.Image.Pix {
		if simd.Image.Pix[i] != res.Image.Pix[i] {
			same = false
			break
		}
	}
	fmt.Printf("  bit-exact      %v\n", same)

	// Return the pooled decode buffers once the pixels are done with —
	// the allocation discipline a long-running service should model.
	simd.Release()
	res.Release()
}
