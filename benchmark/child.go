package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childArgs is what the runner passes, as a JSON file, to the process it
// starts for one round of one workload.
type childArgs struct {
	Workload  string        `json:"workload"`
	CorpusDir string        `json:"corpus_dir"`
	Result    string        `json:"result"` // file the round's result is written to
	Window    time.Duration `json:"window_ns"`
	Round     int           `json:"round"`
	Workers   int           `json:"workers"`
	Rate      float64       `json:"rate"`
	Traced    bool          `json:"traced"` // after the timed window, run the traced pass
}

// roundResult is what one workload process observed: one timed window
// and, for a traced process, the per-layer metrics and spans.
type roundResult struct {
	Workload  string    `json:"workload"`
	Round     int       `json:"round"`
	SetupS    float64   `json:"setup_s"`
	WallS     float64   `json:"wall_s"`
	CPUS      float64   `json:"cpu_s"`
	AllocMB   float64   `json:"alloc_mb"`
	Mpix      float64   `json:"mpix"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	OpMs      []float64 `json:"op_ms"`
	LateMs    []float64 `json:"late_ms,omitempty"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	GCCPUS    float64   `json:"gc_cpu_s"`
	GCCycles  uint32    `json:"gc_cycles"`
	// StealShare is the share of the VM's CPU time over the window that
	// the hypervisor gave to someone else: something for the reader of a
	// run to judge it by, beside the load average.
	StealShare float64 `json:"steal_share"`
	// BacklogGrowth is the growth of the generator's queue over a
	// service window; see maxBacklogGrowth.
	BacklogGrowth float64 `json:"backlog_growth"`

	Layers map[string]float64 `json:"layers,omitempty"`
	// The spans of the traced pass: of the real ops that were wrapped,
	// and of the decomposed ops.
	Wrapped    []span `json:"wrapped,omitempty"`
	Decomposed []span `json:"decomposed,omitempty"`
}

// usage is what a timed window cost the process.
type usage struct {
	wallS, cpuS, gcCPUS float64
	allocMB             float64 // TotalAlloc delta
	stealShare          float64
	gcCycles            uint32
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostJiffies reads the VM-wide CPU accounting: the time the hypervisor
// ran something else while a processor of this VM had work (steal), and
// the total over all states. Both are 0 where /proc/stat is missing.
func hostJiffies() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// runtimeCounters reads, without stopping the world, the cumulative
// bytes allocated, collector CPU seconds and collector cycles.
func runtimeCounters() (allocBytes uint64, gcCPUS float64, gcCycles uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPUS = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		gcCycles = s[2].Value.Uint64()
	}
	return
}

// measure runs f and reports the wall time, CPU time, bytes allocated
// and collector work of the process over it.
func measure(f func()) usage {
	alloc0, gc0, cycles0 := runtimeCounters()
	steal0, host0 := hostJiffies()
	cpu0, t0 := cpuSeconds(), time.Now()
	f()
	wall := time.Since(t0)
	cpu1 := cpuSeconds()
	alloc1, gc1, cycles1 := runtimeCounters()
	stealShare := 0.0
	if steal1, host1 := hostJiffies(); host1 > host0 {
		stealShare = (steal1 - steal0) / (host1 - host0)
	}
	return usage{
		wallS:      wall.Seconds(),
		cpuS:       cpu1 - cpu0,
		allocMB:    float64(alloc1-alloc0) / 1e6,
		gcCPUS:     gc1 - gc0,
		gcCycles:   uint32(cycles1 - cycles0),
		stealShare: stealShare,
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// sampleCapacity bounds the ops of one window; the buffers are allocated
// before the clock starts.
const sampleCapacity = 1 << 16

// fill copies a window's samples and cost into the result.
func (r *roundResult) fill(s *samples, u usage) {
	r.WallS, r.CPUS, r.AllocMB = u.wallS, u.cpuS, u.allocMB
	r.GCCPUS, r.GCCycles, r.StealShare = u.gcCPUS, u.gcCycles, u.stealShare
	r.Mpix, r.Attempted, r.Failed = s.mpix, s.attempted, s.failed
	r.Failures = s.failures
	r.OpMs, r.LateMs = msOf(s.opNs), msOf(s.lateNs)
}

// backlogGrowth is how much deeper the generator's queue was in the last
// quarter of the service window just run than in its first: positive
// and large when the service does not keep up with the offered rate. It
// is 0 for the closed-loop workloads.
func backlogGrowth(wl workload) float64 {
	if sw, ok := wl.(*serviceWorkload); ok {
		return sw.last.depthLast - sw.last.depthFirst
	}
	return 0
}

// runChild is the body of a workload process: load the corpus, build the
// workload, warm up, run one timed window and, if asked, the traced pass.
// started is when the process began; set-up runs from there to the first
// timed op.
func runChild(a childArgs, started time.Time) (*roundResult, error) {
	c, err := loadCorpus(a.CorpusDir, a.Workload)
	if err != nil {
		return nil, err
	}
	wl, err := newWorkload(c, a.Workers, a.Rate)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	if err := wl.warmup(); err != nil {
		return nil, err
	}
	res := &roundResult{Workload: a.Workload, Round: a.Round}
	s := newSamples(sampleCapacity)
	res.SetupS = time.Since(started).Seconds()
	u := measure(func() { wl.run(a.Window, a.Round, s, nil) })
	res.fill(s, u)
	res.BacklogGrowth = backlogGrowth(wl)
	res.PeakRSSMB = peakRSSMB()
	if a.Traced {
		if err := tracedPass(wl, c, a, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// readArgs loads the file the runner wrote for this process.
func readArgs(path string) (childArgs, error) {
	var a childArgs
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

func writeResult(path string, res *roundResult) error {
	// JSON has no NaN: a layer metric that could not be computed (no
	// sample of its kind in a very short window) is left out, and the
	// runner reports it as not measured.
	for k, v := range res.Layers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(res.Layers, k)
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResult(path string) (*roundResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res roundResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}
