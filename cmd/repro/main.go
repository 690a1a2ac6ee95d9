// Command repro is the reproduction's offline driver: the Section 5.1
// profiling step, the synthetic corpora and the Section 6 tables and
// figures.
//
// Usage:
//
//	repro fit -outdir models                       # profile once, fit every machine
//	repro corpus -kind test -sub 422 -outdir corpus
//	repro figures -outdir results                  # every table and figure
//	repro figures -exp fig9,table2                 # selected experiments
//	repro figures -full                            # paper-scale sweeps (slow)
//
// fit builds and profiles the training corpus once, then fits the
// model and chunk size of each Table 1 machine and of Embedded from the
// shared profiles and writes one <name>.json each. `go generate
// ./internal/perfmodel` runs it to rewrite the fits the library embeds.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hetjpeg/internal/harness"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
)

const usage = "usage: repro fit|corpus|figures [flags]"

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	if len(os.Args) < 2 {
		log.Fatal(usage)
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	switch cmd {
	case "fit":
		outdir := fs.String("outdir", "models", "output directory")
		fs.Parse(args)
		fit(*outdir)
	case "corpus":
		kind := fs.String("kind", "train", "train|test")
		sub := fs.String("sub", "422", "422|444|420")
		outdir := fs.String("outdir", "corpus", "output directory")
		fs.Parse(args)
		corpus(*kind, *sub, *outdir)
	case "figures":
		outdir := fs.String("outdir", "results", "output directory")
		exps := fs.String("exp", "all", "comma list: table1,fig6,fig7,fig9,fig10,fig11,fig12,table2,table3")
		full := fs.Bool("full", false, "paper-scale sweeps up to 25 MP (slow)")
		fs.Parse(args)
		figures(*outdir, *exps, *full)
	default:
		log.Fatal(usage)
	}
}

// fit writes the committed fit of every machine perfmodel.Fitted lists.
func fit(outdir string) {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	specs := perfmodel.Fitted()
	models, err := perfmodel.Train(specs...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled and fitted %d machines in %v\n", len(specs), time.Since(start).Round(time.Millisecond))
	for i, m := range models {
		path := filepath.Join(outdir, perfmodel.FileName(specs[i]))
		if err := m.Save(path); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%s, chunk %d MCU rows)\n", path, m.Platform, m.ChunkRows)
	}
}

// corpus writes one synthetic corpus to disk as JPEG files (the
// stand-in for the paper's cropped photo corpora).
func corpus(kind, subName, outdir string) {
	var sub jfif.Subsampling
	switch subName {
	case "422":
		sub = jfif.Sub422
	case "444":
		sub = jfif.Sub444
	case "420":
		sub = jfif.Sub420
	default:
		log.Fatalf("unknown subsampling %q", subName)
	}
	var opts imagegen.CorpusOptions
	switch kind {
	case "train":
		opts = imagegen.DefaultTraining(sub)
	case "test":
		opts = imagegen.DefaultTest(sub)
	default:
		log.Fatalf("unknown corpus kind %q", kind)
	}

	if err := os.MkdirAll(outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	items, err := imagegen.Build(opts)
	if err != nil {
		log.Fatal(err)
	}
	var bytes int
	for _, it := range items {
		if err := os.WriteFile(filepath.Join(outdir, it.Name+".jpg"), it.Data, 0o644); err != nil {
			log.Fatal(err)
		}
		bytes += len(it.Data)
	}
	fmt.Printf("wrote %d images (%.1f MB) to %s\n", len(items), float64(bytes)/1e6, outdir)
}

// figures regenerates the selected tables and figures of the paper's
// evaluation (Section 6) as text reports in outdir.
func figures(outdir, exps string, full bool) {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	want := map[string]bool{}
	for _, e := range strings.Split(exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	sizes := [][2]int{
		{512, 384}, {800, 600}, {1024, 768}, {1600, 1200}, {2048, 1536}, {2560, 1920},
	}
	if full {
		sizes = append(sizes, [][2]int{{3200, 2400}, {4096, 3072}, {5120, 3840}, {5792, 4344}}...)
	}

	write := func(name, content string) {
		path := filepath.Join(outdir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	var models map[string]*perfmodel.Model
	if all || want["table2"] || want["table3"] || want["fig10"] || want["fig11"] || want["fig12"] {
		models = map[string]*perfmodel.Model{}
		for _, spec := range platform.All() {
			m, err := perfmodel.Default(spec)
			if err != nil {
				log.Fatal(err)
			}
			models[spec.Name] = m
			fmt.Printf("committed model for %s (chunk=%d rows)\n", spec.Name, m.ChunkRows)
		}
	}

	if all || want["table1"] {
		write("table1.txt", harness.Table1Text())
	}
	if all || want["fig6"] {
		r, err := harness.Figure6(platform.GTX560(), sizes)
		if err != nil {
			log.Fatal(err)
		}
		write("figure6.txt", r.Text())
	}
	if all || want["fig7"] {
		var b strings.Builder
		for _, sub := range []jfif.Subsampling{jfif.Sub422, jfif.Sub444} {
			r, err := harness.Figure7(platform.GTX560(), sub)
			if err != nil {
				log.Fatal(err)
			}
			b.WriteString(r.Text())
			b.WriteString("\n")
		}
		write("figure7.txt", b.String())
	}
	if all || want["fig9"] {
		cols, err := harness.Figure9(2048)
		if err != nil {
			log.Fatal(err)
		}
		write("figure9.txt", harness.Fig9Text(cols))
	}
	for _, tc := range []struct {
		sub  jfif.Subsampling
		name string
	}{{jfif.Sub422, "table2"}, {jfif.Sub444, "table3"}} {
		if !all && !want[tc.name] {
			continue
		}
		corpus, err := imagegen.Build(imagegen.DefaultTest(tc.sub))
		if err != nil {
			log.Fatal(err)
		}
		cells, err := harness.SpeedupTable(tc.sub, corpus, models)
		if err != nil {
			log.Fatal(err)
		}
		title := fmt.Sprintf("%s — mean speedup over SIMD, %s (%d images)", strings.Title(tc.name), tc.sub, len(corpus))
		write(tc.name+".txt", harness.SpeedupTableText(title, cells))
	}
	if all || want["fig10"] {
		pts, err := harness.Figure10(jfif.Sub444, sizes, models)
		if err != nil {
			log.Fatal(err)
		}
		write("figure10.txt", harness.Fig10Text(pts))
	}
	if all || want["fig11"] {
		pts, err := harness.Figure11(platform.GTX680(), jfif.Sub444, sizes, models["GTX 680"])
		if err != nil {
			log.Fatal(err)
		}
		write("figure11.txt", harness.Fig11Text("GTX 680", pts))
	}
	if all || want["fig12"] {
		pts, err := harness.Figure12(jfif.Sub444, sizes, models)
		if err != nil {
			log.Fatal(err)
		}
		write("figure12.txt", harness.Fig12Text(pts))
	}
}
