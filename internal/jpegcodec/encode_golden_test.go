package jpegcodec

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetjpeg/internal/jfif"
)

// The encoder golden pins Encode's output bytes: any change to the
// forward pass, the entropy coder or the bit writer that moves a single
// output bit shows up as a changed digest. Regenerate it only for an
// intended format change:
//
//	go test ./internal/jpegcodec -run TestEncodeGolden -update

var update = flag.Bool("update", false, "rewrite testdata/encode_golden.txt")

const encodeGoldenPath = "testdata/encode_golden.txt"

// goldenCase is one entry of the encoder golden matrix.
type goldenCase struct {
	name string
	w, h int
	opts EncodeOptions
}

// goldenScripts are the four progressive scripts, by name.
var goldenScripts = []struct {
	name   string
	script func() []ScanSpec
}{
	{"default", ScriptDefault},
	{"spectral", ScriptSpectralOnly},
	{"multiband", ScriptMultiBand},
	{"deepsa", ScriptDeepSA},
}

var goldenSubs = []struct {
	name string
	sub  jfif.Subsampling
}{{"444", jfif.Sub444}, {"422", jfif.Sub422}, {"420", jfif.Sub420}}

// goldenCases is the matrix: every subsampling × quality 1, 50, 85 and
// 100 × DRI 0 and 3 × sizes 1×1 to 200×152, each as Annex-K tables,
// optimised tables and the four progressive scripts.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, sz := range [][2]int{{1, 1}, {17, 9}, {33, 31}, {200, 152}} {
		for _, s := range goldenSubs {
			for _, q := range []int{1, 50, 85, 100} {
				for _, dri := range []int{0, 3} {
					base := EncodeOptions{Quality: q, Subsampling: s.sub, RestartInterval: dri}
					prefix := fmt.Sprintf("%dx%d/%s/q%d/dri%d", sz[0], sz[1], s.name, q, dri)
					cases = append(cases, goldenCase{prefix + "/annexk", sz[0], sz[1], base})
					opt := base
					opt.OptimizeHuffman = true
					cases = append(cases, goldenCase{prefix + "/optimized", sz[0], sz[1], opt})
					for _, sc := range goldenScripts {
						p := base
						p.Progressive = true
						p.Script = sc.script()
						cases = append(cases, goldenCase{prefix + "/prog-" + sc.name, sz[0], sz[1], p})
					}
				}
			}
		}
	}
	return cases
}

// goldenImage is the golden matrix's input: smooth gradients, a band of
// per-pixel noise (large high-frequency coefficients at quality 100) and
// a stripe of saturated primaries, black and white (the corners of the
// colour conversion's range).
func goldenImage(w, h int) *RGBImage {
	img := makeTestImage(w, h, 3)
	noise := makeNoisyImage(w, h, 9)
	prims := [][3]byte{{255, 0, 0}, {0, 255, 0}, {0, 0, 255}, {0, 0, 0}, {255, 255, 255}, {255, 0, 255}}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			switch {
			case y%16 < 5 && x%24 < 12:
				p := prims[(x/3+y)%len(prims)]
				img.Set(x, y, p[0], p[1], p[2])
			case (x+2*y)%7 < 3:
				i := (y*w + x) * 3
				img.Set(x, y, noise.Pix[i], noise.Pix[i+1], noise.Pix[i+2])
			}
		}
	}
	return img
}

// encodeGoldenLines encodes every golden case and returns one
// "name sha256" line per case.
func encodeGoldenLines(t *testing.T) []string {
	t.Helper()
	imgs := map[[2]int]*RGBImage{}
	var lines []string
	for _, c := range goldenCases() {
		img := imgs[[2]int{c.w, c.h}]
		if img == nil {
			img = goldenImage(c.w, c.h)
			imgs[[2]int{c.w, c.h}] = img
		}
		data, err := Encode(img, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(data)
		lines = append(lines, c.name+" "+hex.EncodeToString(sum[:]))
	}
	return lines
}

// TestEncodeGolden checks Encode's bytes against the committed digests.
func TestEncodeGolden(t *testing.T) {
	checkGolden(t, encodeGoldenPath, "SHA-256 of jpegcodec.Encode output per case", "TestEncodeGolden", encodeGoldenLines(t))
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update. Lines starting with # are comments.
func checkGolden(t *testing.T, path, what, test string, got []string) {
	t.Helper()
	path = filepath.FromSlash(path)
	if *update {
		var b bytes.Buffer
		fmt.Fprintf(&b, "# %s; regenerate with\n# go test ./internal/jpegcodec -run %s -update\n", what, test)
		for _, l := range got {
			b.WriteString(l + "\n")
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, the matrix %d (regenerate with -update if intended)", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cases changed", bad, len(got))
	}
}
