package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"image"
	"image/jpeg"
	"math"
	"os"
	"sort"
	"sync"

	"hetjpeg"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is what the timed loops compare outputs with after the clock
// stops: CRC-32C runs at memory speed, so checking every output costs
// about a hundredth of the op it checks.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// minPSNR is the floor a decode must reach against Go's image/jpeg on the
// same bytes. The two decoders differ in chroma upsampling and IDCT
// rounding, which costs a few dB; a wrong decode lands far below.
const minPSNR = 30.0

func xcodeOptions(x xcode, workers int) hetjpeg.TranscodeOptions {
	return hetjpeg.TranscodeOptions{Scale: hetjpeg.Scale(x.Scale), Quality: x.Quality, Progressive: x.Progressive, Workers: workers}
}

// stdRGB decodes with the standard library and box-averages by scale,
// the reference a scaled decode is compared with.
func stdRGB(data []byte, scale int) (pix []byte, w, h int, err error) {
	src, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, 0, 0, err
	}
	b := src.Bounds()
	w, h = (b.Dx()+scale-1)/scale, (b.Dy()+scale-1)/scale
	pix = make([]byte, w*h*3)
	ycc, _ := src.(*image.YCbCr)
	at := func(x, y int) (r, g, bl uint32) {
		if ycc != nil {
			c := ycc.YCbCrAt(x, y)
			r8, g8, b8 := colorYCbCrToRGB(c.Y, c.Cb, c.Cr)
			return uint32(r8), uint32(g8), uint32(b8)
		}
		r, g, bl, _ = src.At(x, y).RGBA()
		return r >> 8, g >> 8, bl >> 8
	}
	for oy := 0; oy < h; oy++ {
		for ox := 0; ox < w; ox++ {
			var rs, gs, bs, n uint32
			for y := b.Min.Y + oy*scale; y < b.Min.Y+(oy+1)*scale && y < b.Max.Y; y++ {
				for x := b.Min.X + ox*scale; x < b.Min.X+(ox+1)*scale && x < b.Max.X; x++ {
					r, g, bl := at(x, y)
					rs, gs, bs, n = rs+r, gs+g, bs+bl, n+1
				}
			}
			i := (oy*w + ox) * 3
			pix[i], pix[i+1], pix[i+2] = byte((rs+n/2)/n), byte((gs+n/2)/n), byte((bs+n/2)/n)
		}
	}
	return pix, w, h, nil
}

func psnr(a, b []byte) float64 {
	var se float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		se += d * d
	}
	if se == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/(se/float64(len(a))))
}

// verifyOp runs one op through the program's single-threaded reference
// path, checks the output against the standard library, and records the
// output's size and checksum for the timed loops to compare with.
func verifyOp(c *corpus, o *op) error {
	it := &c.Items[o.Item]
	if o.Xcode >= 0 {
		res, err := hetjpeg.Transcode(it.Data, xcodeOptions(xcodes[o.Xcode], 1))
		if err != nil {
			return fmt.Errorf("%s: transcode: %w", o.Name, err)
		}
		cfg, err := jpeg.DecodeConfig(bytes.NewReader(res.Data))
		if err != nil {
			return fmt.Errorf("%s: image/jpeg rejects the transcoded stream: %w", o.Name, err)
		}
		wantW, wantH := (it.W+o.Scale-1)/o.Scale, (it.H+o.Scale-1)/o.Scale
		if cfg.Width != wantW || cfg.Height != wantH || res.W != wantW || res.H != wantH {
			return fmt.Errorf("%s: transcoded to %dx%d (image/jpeg reads %dx%d), want %dx%d",
				o.Name, res.W, res.H, cfg.Width, cfg.Height, wantW, wantH)
		}
		if _, err := jpeg.Decode(bytes.NewReader(res.Data)); err != nil {
			return fmt.Errorf("%s: image/jpeg cannot decode the transcoded stream: %w", o.Name, err)
		}
		o.OutW, o.OutH, o.OutLen, o.CRC = res.W, res.H, len(res.Data), checksum(res.Data)
		return nil
	}
	img, err := hetjpeg.DecodeRGBScaled(it.Data, hetjpeg.Scale(o.Scale))
	if err != nil {
		return fmt.Errorf("%s: decode: %w", o.Name, err)
	}
	defer img.Release()
	ref, w, h, err := stdRGB(it.Data, o.Scale)
	if err != nil {
		return fmt.Errorf("%s: image/jpeg rejects the input: %w", o.Name, err)
	}
	if img.W != w || img.H != h {
		return fmt.Errorf("%s: decoded to %dx%d, image/jpeg gives %dx%d", o.Name, img.W, img.H, w, h)
	}
	if p := psnr(img.Pix, ref); p < minPSNR {
		return fmt.Errorf("%s: PSNR %.1f dB against image/jpeg, below %.0f dB", o.Name, p, minPSNR)
	}
	o.OutW, o.OutH, o.OutLen, o.CRC = img.W, img.H, len(img.Pix), checksum(img.Pix)
	return nil
}

// verifyCorpus fills in every op's expected output, in parallel.
func verifyCorpus(c *corpus, workers int) error {
	errs := make([]error, len(c.Ops))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = verifyOp(c, &c.Ops[i])
			}
		}()
	}
	for i := range c.Ops {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// colorYCbCrToRGB is image/color's conversion, kept local so that the
// reference decode skips the interface call per pixel.
func colorYCbCrToRGB(y, cb, cr uint8) (uint8, uint8, uint8) {
	yy1 := int32(y) * 0x10101
	cb1 := int32(cb) - 128
	cr1 := int32(cr) - 128
	clamp := func(v int32) uint8 {
		if uint32(v)&0xff000000 == 0 {
			return uint8(v >> 16)
		}
		return uint8(^(v >> 31))
	}
	return clamp(yy1 + 91881*cr1), clamp(yy1 - 22554*cb1 - 46802*cr1), clamp(yy1 + 116130*cb1)
}

// golden is the committed record for seed 1: the SHA-256 of every corpus
// input and the size and CRC-32C of every distinct output.
type golden map[string]goldenWorkload

type goldenWorkload struct {
	Inputs  map[string]string `json:"inputs"`
	Outputs map[string]string `json:"outputs"`
}

const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

func goldenOf(c *corpus) goldenWorkload {
	g := goldenWorkload{Inputs: map[string]string{}, Outputs: map[string]string{}}
	for _, it := range c.Items {
		g.Inputs[it.Name] = it.SHA
	}
	for _, o := range c.Ops {
		g.Outputs[o.Name] = fmt.Sprintf("%d:%08x", o.OutLen, o.CRC)
	}
	return g
}

// checkGolden compares a seed-1 corpus with the committed record and
// names the first item that moved. A changed input means the encoder or
// imagegen drifted and the workload is no longer the one the baseline
// measured; a changed output with unchanged input means the decoder or
// the transcoder changed what it produces.
func checkGolden(c *corpus) error {
	var all golden
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := all[c.Workload]
	if !ok {
		return fmt.Errorf("golden.json has no record of %s (write one with -update-golden)", c.Workload)
	}
	got := goldenOf(c)
	for _, kind := range []struct {
		what      string
		got, want map[string]string
	}{{"input", got.Inputs, want.Inputs}, {"output", got.Outputs, want.Outputs}} {
		names := make([]string, 0, len(kind.got))
		for n := range kind.got {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			w, ok := kind.want[n]
			if !ok {
				return fmt.Errorf("drift in %s: %s %s is not in golden.json", c.Workload, kind.what, n)
			}
			if w != kind.got[n] {
				return fmt.Errorf("drift in %s: the %s of %s moved (golden %s, now %s)", c.Workload, kind.what, n, w, kind.got[n])
			}
		}
		if len(kind.want) != len(kind.got) {
			return fmt.Errorf("drift in %s: golden.json lists %d %ss, the corpus has %d", c.Workload, len(kind.want), kind.what, len(kind.got))
		}
	}
	return nil
}

// updateGolden regenerates the seed-1 corpora and writes their record.
// It is run by hand, from this directory, after an intended change to
// the encoder, imagegen or the decoder's output, and its diff is the
// statement of what moved.
func updateGolden(path string, workers int) error {
	all := golden{}
	for _, w := range workloads {
		c, err := buildCorpus(w.Name, goldenSeed, fullCorpus, workers)
		if err != nil {
			return err
		}
		if err := verifyCorpus(c, workers); err != nil {
			return err
		}
		all[w.Name] = goldenOf(c)
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
