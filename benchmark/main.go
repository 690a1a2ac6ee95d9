// Command benchmark is the repository's one benchmark: five workloads,
// the end-to-end metrics a user of the library or the service would see,
// and a traced pass that times each layer from outside and sets the
// layers' sum against the end-to-end figure. See README.md.
//
//	go run ./benchmark [-seed 1] [-window 5s] [-rounds 5] [-out results.json] [-trace-out spans.json]
//	go run ./benchmark -workload decode_dense -seconds 20 -trace 0
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	started := time.Now()
	var (
		seed     = flag.Int64("seed", 1, "drives scene seeds, request order and the arrival schedule; the program only ever receives the generated bytes")
		window   = flag.Duration("window", 5*time.Second, "length of one timed window")
		rounds   = flag.Int("rounds", 5, "timed windows per workload, interleaved across workloads")
		seconds  = flag.Float64("seconds", 0, "the driver's way of giving -window: measured seconds per workload, shared by the rounds")
		workload = flag.String("workload", "", "run this workload only and end with the driver's JSON line")
		trace    = flag.Int("trace", -1, "1: traced pass only; 0: timed rounds only; default both")
		out      = flag.String("out", "", "append the run to this results file")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file")
		cmp      = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
		update   = flag.Bool("update-golden", false, "rewrite golden.json from the seed-1 corpora and exit")
		child    = flag.String("child", "", "internal: run the one window the named file describes")
	)
	flag.Parse()

	switch {
	case *child != "":
		a, err := readArgs(*child)
		exitOn(err)
		if a.Workload == keepAwakeWorkload {
			exitOn(runKeepAwake())
			return
		}
		res, err := runChild(a, started)
		if err == nil {
			err = writeResult(a.Result, res)
		}
		exitOn(err)
		return
	case *cmp:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-compare takes two results files"))
		}
		bad, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if bad > 0 {
			fmt.Printf("\n%d pairings worse or unresolved\n", bad)
			os.Exit(1)
		}
		return
	case *update:
		exitOn(updateGolden("golden.json", workerCount()))
		return
	}

	exe, err := os.Executable()
	exitOn(err)
	if *seconds > 0 {
		*window = time.Duration(*seconds / float64(*rounds) * float64(time.Second))
	}
	// A traced pass is about as long as the untraced rounds together: a
	// sixth of that on its reference window, a third on the alternating
	// blocks and the rest on its probes.
	cfg := &runConfig{
		seed: *seed, workloads: workloadNames(), rounds: *rounds, window: *window,
		traced: *trace != 0, segment: *window * time.Duration(*rounds) / 6,
		workers: workerCount(), rate: defaultRate, size: fullCorpus, exe: exe,
	}
	if *trace == 1 {
		cfg.rounds = 0
	}
	if *workload != "" {
		if !isWorkload(*workload) {
			exitOn(fmt.Errorf("unknown workload %q; the workloads are %v", *workload, workloadNames()))
		}
		cfg.workloads = []string{*workload}
		// The driver wants the whole per-layer catalogue on the line of
		// every traced run, and the metrics that need traffic come from
		// service_mixed alone: its traced pass runs as well.
		if *trace == 1 && *workload != "service_mixed" {
			cfg.workloads = append(cfg.workloads, "service_mixed")
		}
	}

	rec, err := cfg.run()
	exitOn(err)
	rec.print(os.Stdout)
	if *out != "" {
		exitOn(appendRun(*out, rec))
	}
	if *traceOut != "" {
		exitOn(writeSpans(*traceOut, rec))
	}
	if *workload != "" {
		line, err := driverLineOf(rec, *trace == 1)
		exitOn(err)
		data, err := json.Marshal(line)
		exitOn(err)
		fmt.Println(string(data))
	}
	if n := rec.failed(); n > 0 {
		exitOn(fmt.Errorf("%d operations failed", n))
	}
	if rec.overloaded() {
		exitOn(fmt.Errorf("the run is invalid: the service's request queue grew"))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
