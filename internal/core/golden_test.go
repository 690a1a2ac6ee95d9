package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
)

// The reproduction golden pins every virtual-time figure and the pixels
// of a fixed decode matrix: 3 platforms × 4 inputs (baseline 4:4:4,
// 4:2:2, 4:2:0 and a progressive 4:2:0) × 4 scales × 6 modes × merged
// and split kernels × executed and VirtualOnly. Each decode is one line
// holding a digest of its task list (every task's id, resource, label,
// kind, cost, start and end), TotalNs, HuffNs, Stats and the SHA-256 of
// its pixels. A change to the cost plan, the platform constants, the
// partitioning solver or the back phase shows up as a changed line.
// Regenerate it only for an intended change to the reproduction:
//
//	go test ./internal/core -run TestReproductionGolden -update

var update = flag.Bool("update", false, "rewrite testdata/reproduction_golden.txt")

const reproGoldenPath = "testdata/reproduction_golden.txt"

// goldenInput is one image of the golden matrix. The images are narrow
// and tall so the default chunk sizes (16 to 32 MCU rows) cut every
// pipelined schedule into several chunks, and their sizes leave partial
// MCUs on both axes.
type goldenInput struct {
	name string
	w, h int
	opts jpegcodec.EncodeOptions
}

var goldenInputs = []goldenInput{
	{"444", 88, 530, jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub444}},
	{"422", 120, 530, jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub422}},
	{"420", 120, 530, jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub420}},
	{"prog420", 120, 530, jpegcodec.EncodeOptions{Quality: 85, Subsampling: jfif.Sub420, Progressive: true}},
}

// taskDigest hashes a decode's whole task list.
func taskDigest(res *Result) string {
	h := sha256.New()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, tk := range res.Timeline.Tasks() {
		fmt.Fprintf(h, "%d %s %q %v %s %s %s\n", tk.ID, tk.Resource, tk.Label, tk.Kind, g(tk.Cost), g(tk.Start), g(tk.End))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// reproGoldenLines decodes the golden matrix and returns one line per
// decode.
func reproGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for i, in := range goldenInputs {
		img := imagegen.Generate(imagegen.Scene{Seed: 7100 + int64(i), Detail: 0.6}, in.w, in.h)
		data, err := jpegcodec.Encode(img, in.opts)
		img.Release()
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for _, spec := range platform.All() {
			model := defaultModel(t, spec)
			for _, scale := range []jpegcodec.Scale{jpegcodec.Scale1, jpegcodec.Scale2, jpegcodec.Scale4, jpegcodec.Scale8} {
				for _, mode := range AllModes() {
					for _, split := range []bool{false, true} {
						for _, virtual := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/1:%d/%v/split=%v/virtual=%v",
								strings.ReplaceAll(spec.Name, " ", ""), in.name, scale.Denominator(), mode, split, virtual)
							res, err := Decode(data, Options{
								Mode: mode, Spec: spec, Model: model, Scale: scale,
								SplitKernels: split, VirtualOnly: virtual,
							})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							pix := sha256.Sum256(res.Image.Pix)
							lines = append(lines, fmt.Sprintf("%s tasks=%s total=%s huff=%s stats=%+v pix=%s",
								name, taskDigest(res),
								strconv.FormatFloat(res.TotalNs, 'g', -1, 64),
								strconv.FormatFloat(res.HuffNs, 'g', -1, 64),
								res.Stats, hex.EncodeToString(pix[:])[:16]))
							res.Release()
						}
					}
				}
			}
		}
	}
	return lines
}

// TestReproductionGolden checks the decode matrix against the committed
// golden lines.
func TestReproductionGolden(t *testing.T) {
	got := reproGoldenLines(t)
	if *update {
		var b bytes.Buffer
		b.WriteString("# core.Decode per platform/input/scale/mode/kernels/execution: task-list digest,\n")
		b.WriteString("# TotalNs, HuffNs, Stats and pixel digest; regenerate with\n")
		b.WriteString("# go test ./internal/core -run TestReproductionGolden -update\n")
		for _, l := range got {
			b.WriteString(l + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(filepath.FromSlash(reproGoldenPath)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(reproGoldenPath), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readReproGolden(t)
	if len(want) != len(got) {
		t.Fatalf("golden has %d decodes, the matrix %d (regenerate with -update if intended)", len(want), len(got))
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
		t.Fatalf("%d of %d decodes changed", bad, len(got))
	}
}

func readReproGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(reproGoldenPath))
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
