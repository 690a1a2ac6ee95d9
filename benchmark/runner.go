package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	seed      int64
	workloads []string
	rounds    int           // untraced windows per workload; 0 skips them
	window    time.Duration // length of one untraced window
	traced    bool          // run the traced pass
	segment   time.Duration // the traced pass: its reference window, and half of its alternating blocks
	workers   int
	rate      float64
	size      corpusSize
	exe       string // this program, re-executed once per workload window
}

// workerCount is W: the worker and connection count of every workload
// that uses more than one goroutine.
func workerCount() int { return min(runtime.NumCPU(), 4) }

// childEnv marks a process as a workload child. The test binary looks
// for it in TestMain, which is how the smoke test re-executes itself.
const childEnv = "HETBENCH_CHILD"

// writeArgs stores a child's settings in dir and returns the file's path.
func writeArgs(dir string, a childArgs) (string, error) {
	data, err := json.Marshal(a)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%t.args", a.Workload, a.Round, a.Traced))
	return path, os.WriteFile(path, data, 0o644)
}

// spawn runs one window of one workload in a process of its own and
// returns what it observed. The window's settings travel in a file: W and
// the rate are the benchmark's, not the caller's, to choose. A window of
// service_mixed runs beside the keep-awake helper (see keepawake.go).
func (cfg *runConfig) spawn(dir string, a childArgs) (*roundResult, error) {
	a.CorpusDir = dir
	a.Workers, a.Rate = cfg.workers, cfg.rate
	a.Result = filepath.Join(dir, fmt.Sprintf("%s-%d-%t.json", a.Workload, a.Round, a.Traced))
	path, err := writeArgs(dir, a)
	if err != nil {
		return nil, err
	}
	if a.Workload == "service_mixed" {
		defer cfg.keepAwake(dir)()
	}
	cmd := exec.Command(cfg.exe, "-child", path)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s round %d: %w", a.Workload, a.Round, err)
	}
	return readResult(a.Result)
}

// maxBacklogGrowth is how much deeper, in requests per connection, the
// generator's queue may be in the last quarter of a service window than
// in the first. The difference of the two means is noise around 0 while
// the service keeps up (+-0.2 requests at the frozen rate on the
// reference host); two requests per connection cannot be. Past it the
// service did not sustain the offered rate and the latencies measure the
// length of the window, not the service: the run is invalid. Its numbers
// are still printed and stored, since the program may be the cause, and
// the command exits non-zero. The figure judged is the median over the
// rounds: a service that cannot keep up falls behind in every window,
// while a host that stops for a third of a second, which the reference
// host does now and then, leaves a queue at the end of the one window it
// happened in.
const maxBacklogGrowth = 2.0

// prepareCorpus generates, verifies and stores one workload's corpus and
// returns how long that took.
func (cfg *runConfig) prepareCorpus(dir, workload string) (float64, error) {
	t0 := time.Now()
	c, err := buildCorpus(workload, cfg.seed, cfg.size, cfg.workers)
	if err != nil {
		return 0, err
	}
	if err := verifyCorpus(c, cfg.workers); err != nil {
		return 0, err
	}
	if cfg.seed == goldenSeed && cfg.size == fullCorpus {
		if err := checkGolden(c); err != nil {
			return 0, err
		}
	}
	if err := saveCorpus(dir, c); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// run executes the configured windows and returns the record of the
// run. Windows are interleaved across workloads round by round (A B C D
// E, A B C D E, ...), so that a slow spell on a shared host is spread
// over all of them and not charged to one; each window is a process of
// its own, so memory, pools and collector state are never shared.
func (cfg *runConfig) run() (*runRecord, error) {
	dir, err := os.MkdirTemp("", "hetbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rec := newRunRecord(cfg)
	corpusS := map[string]float64{}
	for _, w := range cfg.workloads {
		if corpusS[w], err = cfg.prepareCorpus(dir, w); err != nil {
			return nil, err
		}
	}

	rounds := map[string][]*roundResult{}
	for r := 0; r < cfg.rounds; r++ {
		for _, w := range cfg.workloads {
			res, err := cfg.spawn(dir, childArgs{Workload: w, Window: cfg.window, Round: r})
			if err != nil {
				return nil, err
			}
			rounds[w] = append(rounds[w], res)
		}
	}
	traced := map[string]*roundResult{}
	if cfg.traced {
		for _, w := range cfg.workloads {
			res, err := cfg.spawn(dir, childArgs{Workload: w, Window: cfg.segment, Round: cfg.rounds, Traced: true})
			if err != nil {
				return nil, err
			}
			traced[w] = res
		}
	}

	for _, w := range cfg.workloads {
		wl := summarize(w, corpusS[w], rounds[w], traced[w])
		var growth []float64
		for _, r := range rounds[w] {
			growth = append(growth, r.BacklogGrowth)
		}
		if g := median(growth); g > maxBacklogGrowth*float64(cfg.workers) {
			wl.Overloaded = fmt.Sprintf("the request queue grew by %.1f over the median window: %.0f req/s were not sustained", g, cfg.rate)
		}
		rec.Workloads = append(rec.Workloads, wl)
	}
	rec.finish()
	return rec, nil
}
