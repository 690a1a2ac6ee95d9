package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
)

// item is one corpus input: a JPEG stream the program under test
// receives as bytes and nothing else.
type item struct {
	Name string
	Data []byte
	W, H int
	SHA  string // hex SHA-256 of Data, the drift guard for inputs
}

func (it *item) mpix() float64 { return float64(it.W*it.H) / 1e6 }

// xcode is one transcode setting of transcode_mixed and of the service's
// /transcode classes.
type xcode struct {
	Name        string
	Scale       int
	Quality     int
	Progressive bool
}

var xcodes = []xcode{
	{"half-q80", 2, 80, false},
	{"full-q70", 1, 70, false},
	{"half-prog", 2, 80, true},
	{"eighth-q80", 8, 80, false},
}

const (
	xcHalf = iota
	xcFull
	xcHalfProg
	xcEighth
)

// op is one distinct operation of a workload with its verified output:
// a decode of an item at a scale (Xcode < 0) or a transcode of it.
type op struct {
	Name       string
	Item       int
	Scale      int // decode scale denominator
	Xcode      int // index into xcodes, -1 for a decode
	OutW, OutH int
	OutLen     int
	CRC        uint32 // CRC-32C of the RGB pixels or of the transcoded bytes
}

// corpus is everything a workload process needs: inputs, the distinct
// operations with their expected outputs, and the closed-loop order.
type corpus struct {
	Workload string
	Seed     int64
	Items    []item
	Ops      []op
	// Cycle is the closed-loop visiting order, as indices into Ops. The
	// service workload draws its own schedule and leaves it empty.
	Cycle []int
	// Hot and Cold split the service items: the repeated set and the
	// bases of the bodies made unique by a comment segment.
	Hot, Cold []int
}

func (c *corpus) mpixOf(o *op) float64 { return c.Items[o.Item].mpix() }

// findOp returns the index of the op on item with the given scale and
// transcode setting.
func (c *corpus) findOp(item, scale, xc int) int {
	for i := range c.Ops {
		o := &c.Ops[i]
		if o.Item == item && o.Scale == scale && o.Xcode == xc {
			return i
		}
	}
	panic(fmt.Sprintf("corpus %s has no op item=%d scale=%d xcode=%d", c.Workload, item, scale, xc))
}

// recipe builds one item. Recipes run in parallel and land by index, so
// the corpus does not depend on scheduling.
type recipe struct {
	name  string
	build func() ([]byte, int, int, error)
}

// sceneSeed spreads the workload seed over the scenes of a corpus; the
// program never sees it.
func sceneSeed(seed int64, k int) int64 { return seed*1000003 + int64(k)*7919 }

func encodeScene(seed int64, detail float64, w, h int, eo jpegcodec.EncodeOptions) ([]byte, int, int, error) {
	img := imagegen.Generate(imagegen.Scene{Seed: seed, Detail: detail}, w, h)
	defer img.Release()
	data, err := jpegcodec.Encode(img, eo)
	return data, w, h, err
}

func crop(src *jpegcodec.RGBImage, x0, y0, w, h int) *jpegcodec.RGBImage {
	out := jpegcodec.NewRGBImage(w, h)
	for y := 0; y < h; y++ {
		copy(out.Pix[y*w*3:(y+1)*w*3], src.Pix[((y0+y)*src.W+x0)*3:])
	}
	return out
}

func buildItems(recipes []recipe, workers int) ([]item, error) {
	items := make([]item, len(recipes))
	errs := make([]error, len(recipes))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				data, w, h, err := recipes[i].build()
				if err != nil {
					errs[i] = fmt.Errorf("building %s: %w", recipes[i].name, err)
					continue
				}
				sum := sha256.Sum256(data)
				items[i] = item{Name: recipes[i].name, Data: data, W: w, H: h, SHA: hex.EncodeToString(sum[:])}
			}
		}()
	}
	for i := range recipes {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

// The image sizes below are about 0.6x the linear size the issue names:
// on the 2-vCPU host the driver's time budget allows 20 measured seconds
// per run, and every workload has to complete 400 operations in them.

func denseRecipes(seed int64, size corpusSize) []recipe {
	type cfg struct {
		w, h int
		sub  jfif.Subsampling
		opt  bool
	}
	// Four small and two large images in six time classes, ordered so
	// that the median op lies between the two small 4:4:4 images, which
	// cost the same, and the 95th percentile inside the large 4:4:4 one:
	// neither sits on a boundary between two sizes.
	cfgs := []cfg{
		{1024, 768, jfif.Sub422, false}, {1024, 768, jfif.Sub422, true},
		{1024, 768, jfif.Sub444, false}, {1024, 768, jfif.Sub444, true},
		{1280, 960, jfif.Sub422, false}, {1280, 960, jfif.Sub444, true},
	}
	var rs []recipe
	for k, c := range cfgs {
		k, c := k, c
		tables := "annexk"
		if c.opt {
			tables = "opt"
		}
		rs = append(rs, recipe{
			name: fmt.Sprintf("dense%d-%dx%d-%s-%s", k, c.w, c.h, c.sub, tables),
			build: func() ([]byte, int, int, error) {
				return encodeScene(sceneSeed(seed, k), 0.95, size.dim(c.w), size.dim(c.h),
					jpegcodec.EncodeOptions{Quality: 92, Subsampling: c.sub, OptimizeHuffman: c.opt})
			},
		})
	}
	return rs
}

func smoothRecipes(seed int64, size corpusSize) []recipe {
	var rs []recipe
	for k := 0; k < 4; k++ {
		k := k
		rs = append(rs, recipe{
			name: fmt.Sprintf("smooth%d-1600x1200-420", k),
			build: func() ([]byte, int, int, error) {
				return encodeScene(sceneSeed(seed, k), 0.05, size.dim(1600), size.dim(1200),
					jpegcodec.EncodeOptions{Quality: 75, Subsampling: jfif.Sub420})
			},
		})
	}
	return rs
}

func transcodeRecipes(seed int64, size corpusSize) []recipe {
	var rs []recipe
	for k := 0; k < 4; k++ {
		k := k
		rs = append(rs, recipe{
			name: fmt.Sprintf("src%d-1024x768-420", k),
			build: func() ([]byte, int, int, error) {
				return encodeScene(sceneSeed(seed, k), 0.5, size.dim(1024), size.dim(768),
					jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub420})
			},
		})
	}
	return rs
}

const galleryImages = 48

// galleryDims spreads n image areas evenly in log space between 256x256
// and 1600x1200. The geometry is fixed, so bytes allocated per megapixel
// do not depend on the seed; the seed picks scenes, crop origins and the
// submission order.
func galleryDims(n int) [][2]int {
	lo, hi := math.Log(256*256), math.Log(1600*1200)
	dims := make([][2]int, n)
	for i := range dims {
		area := math.Exp(lo + (hi-lo)*float64(i)/float64(max(n-1, 1)))
		aspect := 4.0 / 3
		if i == 0 {
			aspect = 1
		}
		w := int(math.Sqrt(area*aspect)) &^ 1
		h := int(math.Sqrt(area/aspect)) &^ 1
		dims[i] = [2]int{w, h}
	}
	return dims
}

// galleryScale is the decode scale gallery image i is submitted at: one
// third of the images go through SubmitScaled at 1/4 or 1/8.
func galleryScale(i int) int {
	switch i % 6 {
	case 2:
		return 4
	case 5:
		return 8
	}
	return 1
}

func galleryRecipes(seed int64, size corpusSize) []recipe {
	n := size.gallery
	cw, ch := size.dim(1600), size.dim(1200)
	rng := rand.New(rand.NewSource(seed))
	details := []float64{0.2, 0.5, 0.8}
	// The canvases are generated once, lazily, and cropped: images cut
	// from one canvas share texture but differ in size, which is what
	// makes stragglers.
	canvases := make([]*jpegcodec.RGBImage, len(details))
	once := make([]sync.Once, len(details))
	canvas := func(k int) *jpegcodec.RGBImage {
		once[k].Do(func() {
			canvases[k] = imagegen.Generate(imagegen.Scene{Seed: sceneSeed(seed, k), Detail: details[k]}, cw, ch)
		})
		return canvases[k]
	}
	subs := []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420}
	var rs []recipe
	for i, d := range galleryDims(n) {
		i, w, h := i, size.dim(d[0]), size.dim(d[1])
		k := i % len(details)
		x0, y0 := rng.Intn(cw-w+1), rng.Intn(ch-h+1)
		eo := jpegcodec.EncodeOptions{Quality: 85, Subsampling: subs[(i/3)%3]}
		kind := "base"
		switch i % 4 {
		case 1:
			eo.Progressive, kind = true, "prog"
		case 3:
			mcuW, _ := eo.Subsampling.MCUPixels()
			eo.RestartInterval, kind = (w+mcuW-1)/mcuW, "rst"
		}
		rs = append(rs, recipe{
			name: fmt.Sprintf("g%02d-%dx%d-%s-%s", i, w, h, eo.Subsampling, kind),
			build: func() ([]byte, int, int, error) {
				img := crop(canvas(k), x0, y0, w, h)
				defer img.Release()
				data, err := jpegcodec.Encode(img, eo)
				return data, w, h, err
			},
		})
	}
	return rs
}

// The hot set spreads over four sizes. The cold bases all have one size,
// so that every cold request class has one cost: the median request then
// lies inside the thumbnail class and the 95th percentile inside the
// half-scale class whichever bases the seed draws, and not on a boundary
// between two image sizes, where it would jump between runs.
var (
	serviceHotSizes = [][2]int{{640, 480}, {800, 600}, {960, 720}, {1024, 768}}
	serviceColdSize = [2]int{896, 672}
)

// Eight hot images, not the issue's sixteen: the cold inserts turn the
// 64 MiB cache over in about a second, and of sixteen images, each asked
// for every 0.6 s, one hot request in five found its image evicted. The
// hits were then 28 % of the traffic, not 35 %, which put the median
// request at the third quartile of the thumbnail class, in its tail,
// where a slow spell of the host moves it most. Eight images are each
// asked for twice as often and stay resident (1-2 % of hot requests
// miss), so the median request is the median thumbnail.
const (
	serviceHot  = 8
	serviceCold = 8
)

func serviceRecipes(seed int64, size corpusSize) []recipe {
	var rs []recipe
	for k := 0; k < size.hot+size.cold; k++ {
		k := k
		d, kind := serviceHotSizes[k%len(serviceHotSizes)], "hot"
		if k >= size.hot {
			d, kind = serviceColdSize, "cold"
		}
		d = [2]int{size.dim(d[0]), size.dim(d[1])}
		rs = append(rs, recipe{
			name: fmt.Sprintf("%s%02d-%dx%d", kind, k, d[0], d[1]),
			build: func() ([]byte, int, int, error) {
				return encodeScene(sceneSeed(seed, k), 0.5, d[0], d[1],
					jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub420})
			},
		})
	}
	return rs
}

// corpusSize scales a corpus down for the smoke test; full is what every
// measurement uses.
type corpusSize struct {
	gallery, hot, cold int
	cut                int // keep only the first cut items of the fixed-size corpora; 0 keeps all
	div                int // divide every image dimension by this
}

var fullCorpus = corpusSize{gallery: galleryImages, hot: serviceHot, cold: serviceCold, div: 1}

// dim shrinks one image dimension, keeping it even and at least one MCU.
func (s corpusSize) dim(v int) int { return max(v/s.div, 16) &^ 1 }

// buildCorpus generates the inputs of one workload from the seed and
// lists its distinct operations. Outputs are filled in by verify.
func buildCorpus(workload string, seed int64, size corpusSize, workers int) (*corpus, error) {
	c := &corpus{Workload: workload, Seed: seed}
	var recipes []recipe
	switch workload {
	case "decode_dense":
		recipes = denseRecipes(seed, size)
	case "decode_smooth":
		recipes = smoothRecipes(seed, size)
	case "transcode_mixed":
		recipes = transcodeRecipes(seed, size)
	case "batch_gallery":
		recipes = galleryRecipes(seed, size)
	case "service_mixed":
		recipes = serviceRecipes(seed, size)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if size.cut > 0 && workload != "batch_gallery" && workload != "service_mixed" && len(recipes) > size.cut {
		recipes = recipes[:size.cut]
	}
	items, err := buildItems(recipes, workers)
	if err != nil {
		return nil, err
	}
	c.Items = items

	decodeOp := func(i, scale int) op {
		return op{Name: fmt.Sprintf("%s@1/%d", items[i].Name, scale), Item: i, Scale: scale, Xcode: -1}
	}
	xcodeOp := func(i, xc int) op {
		return op{Name: items[i].Name + ":" + xcodes[xc].Name, Item: i, Scale: xcodes[xc].Scale, Xcode: xc}
	}
	switch workload {
	case "decode_dense", "decode_smooth":
		for i := range items {
			c.Ops = append(c.Ops, decodeOp(i, 1))
			c.Cycle = append(c.Cycle, i)
		}
	case "batch_gallery":
		for i := range items {
			c.Ops = append(c.Ops, decodeOp(i, galleryScale(i)))
		}
		// The submission order is shuffled once and for all, not by the
		// seed: where the large and the small images, the progressive
		// and the scaled ones fall in the batch decides which slabs the
		// pools can hand back and where workers idle, so every order is a
		// workload of its own (ten seeded orders read 0.09 to 0.19 MB/MP
		// and peak RSS spread by 0.18 of its median; one order, 0.03).
		// The seed changes the pictures, not the shape of the batch.
		c.Cycle = rand.New(rand.NewSource(0x5eed)).Perm(len(items))
	case "transcode_mixed":
		// Five steps per source, the half-scale baseline setting twice:
		// sorted by cost the classes are eighth (20 %), half (40 %),
		// half-progressive (20 %) and full (20 %), so the median op lies
		// inside the half class and the 95th percentile inside the full
		// class, not on a boundary between two.
		steps := []int{xcHalf, xcFull, xcHalfProg, xcEighth, xcHalf}
		for i := range items {
			for xc := range xcodes {
				c.Ops = append(c.Ops, xcodeOp(i, xc))
			}
			// Not in the cycle: the plain decode the scheduler probe of
			// the traced pass batches.
			c.Ops = append(c.Ops, decodeOp(i, 1))
		}
		for i := range items {
			for _, xc := range steps {
				c.Cycle = append(c.Cycle, c.findOp(i, xcodes[xc].Scale, xc))
			}
		}
	case "service_mixed":
		for i := range items {
			c.Ops = append(c.Ops, decodeOp(i, 1))
			if i < size.hot {
				c.Hot = append(c.Hot, i)
				continue
			}
			c.Cold = append(c.Cold, i)
			c.Ops = append(c.Ops, xcodeOp(i, xcEighth), xcodeOp(i, xcHalf))
		}
	}
	return c, nil
}

// withComment returns the stream with a COM segment carrying n inserted
// after SOI. The parser skips it, so the pixels are those of the base
// image, while the SHA-256 the cache keys on differs for every n.
func withComment(data []byte, n uint64) []byte {
	out := make([]byte, 0, len(data)+12)
	out = append(out, data[:2]...)
	out = append(out, 0xFF, 0xFE, 0, 10)
	out = binary.BigEndian.AppendUint64(out, n)
	return append(out, data[2:]...)
}

func corpusPath(dir, workload string) string { return filepath.Join(dir, workload+".gob") }

func saveCorpus(dir string, c *corpus) (err error) {
	f, err := os.Create(corpusPath(dir, c.Workload))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return gob.NewEncoder(f).Encode(c)
}

func loadCorpus(dir, workload string) (*corpus, error) {
	f, err := os.Open(corpusPath(dir, workload))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var c corpus
	if err := gob.NewDecoder(f).Decode(&c); err != nil {
		return nil, fmt.Errorf("reading corpus %s: %w", workload, err)
	}
	return &c, nil
}
