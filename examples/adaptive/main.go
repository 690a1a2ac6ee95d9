// Adaptive: demonstrates PPS re-partitioning (Equations 16-17). The
// input photo's detail — and therefore entropy density — ramps from a
// smooth sky at the top to dense foliage at the bottom. The initial
// split assumes uniform density; once the scheduler has seen the actual
// Huffman times of the early (cheap) rows, it knows the remainder is
// denser than average and moves work between CPU and GPU before the last
// chunk is dispatched.
package main

import (
	"fmt"
	"log"

	"hetjpeg"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jpegcodec"
)

func main() {
	log.SetFlags(0)

	img := imagegen.GenerateGradientDetail(7, 1600, 1600, 0.0, 1.0)
	data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{Quality: 88})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("skewed-entropy image: 1600x1600, %.3f B/px average density\n",
		float64(len(data))/float64(1600*1600))

	spec := hetjpeg.PlatformByName("GTX 560")
	model, err := hetjpeg.DefaultModel(spec)
	if err != nil {
		log.Fatal(err)
	}

	sps, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: hetjpeg.ModeSPS, Spec: spec, Model: model})
	if err != nil {
		log.Fatal(err)
	}
	defer sps.Release()
	pps, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: hetjpeg.ModePPS, Spec: spec, Model: model})
	if err != nil {
		log.Fatal(err)
	}
	defer pps.Release()

	fmt.Printf("\nSPS  (no correction):   GPU %3d rows / CPU %3d rows   %.2f ms\n",
		sps.Stats.GPUMCURows, sps.Stats.CPUMCURows, sps.TotalNs/1e6)
	fmt.Printf("PPS  (re-partitioned):  GPU %3d rows / CPU %3d rows   %.2f ms\n",
		pps.Stats.GPUMCURows, pps.Stats.CPUMCURows, pps.TotalNs/1e6)
	if pps.Stats.Repartitioned {
		fmt.Printf("PPS moved %+d MCU rows at the Equation (16) correction point\n",
			pps.Stats.RepartitionDeltaRows)
	} else {
		fmt.Println("PPS kept its initial split (model already accurate)")
	}
	fmt.Printf("\nPPS speedup over SPS on this image: %.2fx\n", sps.TotalNs/pps.TotalNs)
}
