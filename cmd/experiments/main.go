// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 6) and writes the text reports to an output
// directory. The per-experiment index lives in DESIGN.md; measured-vs-
// paper numbers are recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments -outdir results          # run everything
//	experiments -exp fig9,table2         # selected experiments
//	experiments -full                    # paper-scale sweeps (slow)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"hetjpeg/internal/harness"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	outdir := flag.String("outdir", "results", "output directory")
	exps := flag.String("exp", "all", "comma list: table1,fig6,fig7,fig9,fig10,fig11,fig12,table2,table3")
	full := flag.Bool("full", false, "paper-scale sweeps up to 25 MP (slow)")
	flag.Parse()

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	sizes := [][2]int{
		{512, 384}, {800, 600}, {1024, 768}, {1600, 1200}, {2048, 1536}, {2560, 1920},
	}
	if *full {
		sizes = append(sizes, [][2]int{{3200, 2400}, {4096, 3072}, {5120, 3840}, {5792, 4344}}...)
	}

	write := func(name, content string) {
		path := filepath.Join(*outdir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	var models map[string]*perfmodel.Model
	needModels := all || want["table2"] || want["table3"] || want["fig10"] || want["fig11"] || want["fig12"]
	if needModels {
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
	if all || want["table2"] || want["table3"] {
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
