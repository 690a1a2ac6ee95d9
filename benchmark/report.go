package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envInfo is what a reader needs to trust or discard a run.
type envInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	Started    string  `json:"started"`
}

// runRecord is one run of the benchmark: its settings, its host and,
// per workload, every metric it measured.
type runRecord struct {
	Env       envInfo          `json:"env"`
	Seed      int64            `json:"seed"`
	WindowS   float64          `json:"window_s"`
	Rounds    int              `json:"rounds"`
	SegmentS  float64          `json:"traced_segment_s"`
	Rate      float64          `json:"rate_req_per_s"`
	Workers   int              `json:"workers"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult holds one workload's metrics by name. EndToEnd comes
// from the untraced rounds only; PerLayer from the traced pass.
type workloadResult struct {
	Name      string             `json:"name"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Samples   int                `json:"samples"`
	Tail      string             `json:"tail_percentile"` // the percentile bench.op_ms_pmax is taken at
	LateMsP95 float64            `json:"late_ms_p95"`
	// StealShare is the highest share of the VM's CPU time the hypervisor
	// gave to another tenant during one of the rounds.
	StealShare float64 `json:"steal_share_max"`
	// Overloaded says, for a service run whose request queue grew over
	// the median round, by how much: the run is invalid.
	Overloaded string   `json:"overloaded,omitempty"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`

	// The spans of the traced pass; written by -trace-out, not kept in
	// results.
	wrapped, decomposed []span
}

// resultFile is what -out writes and -compare reads: every run appended
// to the same file is one entry.
type resultFile struct {
	Runs []*runRecord `json:"runs"`
}

func firstLine(path, prefix string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

func load1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout without history, as the driver's is
	}
	return strings.TrimSpace(string(out))
}

func newRunRecord(cfg *runConfig) *runRecord {
	return &runRecord{
		Env: envInfo{
			Commit:     gitCommit(),
			GoVersion:  runtime.Version(),
			CPUModel:   firstLine("/proc/cpuinfo", "model name"),
			Kernel:     firstLine("/proc/sys/kernel/osrelease", ""),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			LoadStart:  load1(),
			Started:    time.Now().UTC().Format(time.RFC3339),
		},
		Seed: cfg.seed, WindowS: cfg.window.Seconds(), Rounds: cfg.rounds,
		SegmentS: cfg.segment.Seconds(), Rate: cfg.rate, Workers: cfg.workers,
	}
}

func (r *runRecord) finish() { r.Env.LoadEnd = load1() }

// busyHostWarning is printed first when the host was already loaded: the
// timings of such a run say more about the neighbours than the program.
func (r *runRecord) busyHostWarning() string {
	if r.Env.LoadStart > float64(r.Env.NProc) {
		return fmt.Sprintf("WARNING: 1-minute load average %.2f exceeds the %d processors: timings of this run are not trustworthy",
			r.Env.LoadStart, r.Env.NProc)
	}
	return ""
}

// summarize pools a workload's windows into its metrics. rounds are the
// untraced windows, traced the traced process (nil without a traced
// pass).
func summarize(name string, corpusS float64, rounds []*roundResult, traced *roundResult) workloadResult {
	out := workloadResult{Name: name}
	// The windows the run metrics are computed from: the untraced
	// rounds, or with none the traced process's own untraced reference
	// window.
	pool := rounds
	if len(pool) == 0 && traced != nil {
		pool = []*roundResult{traced}
	}
	var setups, p50s, p95s, ops, late []float64
	var wall, cpu, gcCPU, mpix, allocMB, peak float64
	var cycles uint32
	for _, r := range pool {
		setups = append(setups, r.SetupS)
		peak = math.Max(peak, r.PeakRSSMB)
		out.StealShare = math.Max(out.StealShare, r.StealShare)
		if own := sortedCopy(r.OpMs); len(own) > 0 {
			p50s = append(p50s, percentile(own, 50))
			p95s = append(p95s, percentile(own, 95))
		}
		ops = append(ops, r.OpMs...)
		late = append(late, r.LateMs...)
		wall, cpu, mpix, allocMB = wall+r.WallS, cpu+r.CPUS, mpix+r.Mpix, allocMB+r.AllocMB
		gcCPU, cycles = gcCPU+r.GCCPUS, cycles+r.GCCycles
	}
	for _, r := range append(append([]*roundResult{}, rounds...), traced) {
		if r == nil {
			continue
		}
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Failures = append(out.Failures, r.Failures...)
	}
	sorted := sortedCopy(ops)
	out.Samples = len(sorted)
	if len(late) > 0 {
		out.LateMsP95 = percentile(sortedCopy(late), 95)
	}
	if len(rounds) > 0 && mpix > 0 && wall > 0 {
		// The rate and the costs per megapixel are pooled: sums over all
		// rounds. The percentiles are taken round by round and the median
		// over rounds reported. A round in a slow spell of the host
		// weighs on a sum in proportion to its length, but it owns the
		// whole tail of the pooled samples: on the same ten runs of
		// service_mixed the pooled 95th percentile spread by 0.36 of its
		// median, the median over five rounds by 0.14. No round is left
		// out, so every run is summarised from the same number of them.
		out.EndToEnd = map[string]float64{
			"setup_s":           median(setups),
			"op_ms_p50":         median(p50s),
			"op_ms_p95":         median(p95s),
			"mpix_per_s":        mpix / wall,
			"cpu_ms_per_mpix":   cpu * 1e3 / mpix,
			"alloc_mb_per_mpix": allocMB / mpix,
			"peak_rss_mb":       peak,
			failShare:           float64(out.Failed) / float64(max(out.Attempted, 1)),
		}
	}
	if traced == nil {
		return out
	}
	pl := map[string]float64{}
	for k, v := range traced.Layers {
		pl[k] = v
	}
	pl["bench.corpus_s"] = corpusS
	pl["bench.samples"] = float64(len(sorted))
	if p, ok := highestPercentile(len(sorted)); ok {
		pl["bench.op_ms_pmax"] = percentile(sorted, p)
		out.Tail = "p" + strconv.FormatFloat(p, 'g', -1, 64)
	} else if len(sorted) > 0 {
		pl["bench.op_ms_pmax"] = percentile(sorted, 50)
		out.Tail = "p50"
	}
	if cpu > 0 {
		pl["go.gc_cpu_share"] = gcCPU / cpu
	}
	if wall > 0 {
		pl["go.gc_cycles_per_s"] = float64(cycles) / wall
	}
	out.PerLayer = pl
	out.wrapped, out.decomposed = traced.Wrapped, traced.Decomposed
	return out
}

// print writes the run as text: every metric by name with its unit.
func (r *runRecord) print(w io.Writer) {
	if warn := r.busyHostWarning(); warn != "" {
		fmt.Fprintln(w, warn)
	}
	fmt.Fprintf(w, "hetjpeg benchmark: commit %s, seed %d, %d rounds of %.1fs, traced windows of %.1fs, W=%d, %.0f req/s\n",
		r.Env.Commit, r.Seed, r.Rounds, r.WindowS, r.SegmentS, r.Workers, r.Rate)
	fmt.Fprintf(w, "host: %s, %d processors (GOMAXPROCS %d), kernel %s, %s, load %.2f at start and %.2f at end\n",
		r.Env.CPUModel, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.Kernel, r.Env.GoVersion, r.Env.LoadStart, r.Env.LoadEnd)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n%s: %d samples, %d ops attempted, %d failed; at most %.1f %% of the host's CPU time stolen in a round\n",
			wl.Name, wl.Samples, wl.Attempted, wl.Failed, 100*wl.StealShare)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
		if wl.Overloaded != "" {
			fmt.Fprintf(w, "  INVALID: %s\n", wl.Overloaded)
		}
		for _, m := range endToEnd {
			if v, ok := wl.EndToEnd[m.Name]; ok {
				fmt.Fprintf(w, "  %-44s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
		if v, ok := wl.EndToEnd[failShare]; ok {
			fmt.Fprintf(w, "  %-44s %14.4f %s\n", failShare, v, unitOf(failShare))
		}
		if len(wl.PerLayer) > 0 {
			fmt.Fprintf(w, "  -- per layer (traced pass; bench.op_ms_pmax is %s) --\n", wl.Tail)
			fmt.Fprint(w, layerTable(wl.PerLayer))
		}
	}
}

// overloaded reports whether the service's queue grew: the run is invalid
// (see maxBacklogGrowth).
func (r *runRecord) overloaded() bool {
	for _, wl := range r.Workloads {
		if wl.Overloaded != "" {
			return true
		}
	}
	return false
}

func (r *runRecord) failed() int {
	n := 0
	for _, wl := range r.Workloads {
		n += wl.Failed
	}
	return n
}

// appendRun adds the run to the result file at path, creating it if
// need be.
func appendRun(path string, r *runRecord) error {
	var file resultFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s holds something other than benchmark results: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	file.Runs = append(file.Runs, r)
	data, err = json.MarshalIndent(&file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRuns(path string) ([]*runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return file.Runs, nil
}

// driverLine is the contract of BENCHMARK.json: the last line of
// standard output of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLineOf reports a single-workload run the way the driver reads
// it: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one. The workload asked for comes first in the record. The
// per-layer metrics that need traffic exist for service_mixed only, whose
// traced pass such a run includes (see main): the line takes them from
// there, and counts its ops too.
func driverLineOf(r *runRecord, traced bool) (driverLine, error) {
	wl := r.Workloads[0]
	line := driverLine{Metrics: map[string]driverValue{}}
	for _, w := range r.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
	}
	line.Correct = line.Failed == 0
	defs, have := gated(), wl.EndToEnd
	if traced {
		defs, have = perLayer, wl.PerLayer
	}
	for _, m := range defs {
		v, ok := have[m.Name]
		for _, other := range r.Workloads[1:] {
			if !ok && traced {
				v, ok = other.PerLayer[m.Name]
			}
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("%s: metric %s was not measured", wl.Name, m.Name)
		}
		line.Metrics[m.Name] = driverValue{Value: v, Unit: m.Unit}
	}
	return line, nil
}

// writeSpans writes the traced pass's spans as JSON: per workload, those
// of the wrapped real ops and those of the decomposed ops. Span ids are
// local to each list.
func writeSpans(path string, r *runRecord) error {
	type lists struct {
		Wrapped    []span `json:"wrapped"`
		Decomposed []span `json:"decomposed"`
	}
	all := map[string]lists{}
	for _, wl := range r.Workloads {
		all[wl.Name] = lists{wl.wrapped, wl.decomposed}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
