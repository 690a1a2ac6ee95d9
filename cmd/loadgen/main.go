// Loadgen drives an imaged server with closed-loop HTTP clients and
// records the robustness trajectory the service promises: latency
// percentiles while healthy, honest shedding (429 + Retry-After) under
// overload, and degraded 1/8-scale completions for opted-in requests.
//
// With no -addr it spins an in-process imaged server on a loopback
// listener, so `make bench-http-smoke` needs no port juggling and
// exercises the full HTTP stack. Three scenarios run back to back:
//
//   - steady: concurrency ≈ decode workers, every request bypassing the
//     decoded-output cache — the healthy-tier decode numbers (p50/p99
//     wall latency, zero shedding expected);
//   - overload: concurrency several times the admission budget, cache
//     bypassed — the shed rate, Retry-After hints and degraded
//     completions;
//   - hot-repeat: the steady mix with the cache in the path — the same
//     few images requested over and over, the gallery traffic the cache
//     exists for. Its p50 against steady's is the cache's speedup; the
//     summary records the hit rate alongside.
//
// The summary JSON is one entry per scenario. The service's tracked
// performance is the benchmark's service_mixed workload
// (benchmark/README.md); loadgen's overload scenario has no
// counterpart there.
//
//	go run ./cmd/loadgen -out loadgen.json
//	go run ./cmd/loadgen -addr host:8080 -duration 10s -concurrency 64
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetjpeg"
	"hetjpeg/internal/imaged"
)

type scenarioResult struct {
	Name        string  `json:"name"`
	Concurrency int     `json:"concurrency"`
	DurationMs  float64 `json:"durationMs"`
	Requests    int     `json:"requests"`
	OK          int     `json:"ok"`
	Shed        int     `json:"shed"`
	Degraded    int     `json:"degraded"`
	Salvaged    int     `json:"salvaged"`
	Timeouts    int     `json:"timeouts"`
	Errors      int     `json:"errors"`
	// Latency percentiles over successful (200) requests, wall time.
	P50Ms  float64 `json:"p50Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MeanMs float64 `json:"meanMs"`
	// ShedRate is 429s over all requests; RetryAfterMean the mean hint.
	ShedRate       float64 `json:"shedRate"`
	RetryAfterMean float64 `json:"retryAfterMeanSec,omitempty"`
	Throughput     float64 `json:"throughputRps"`
	// Cache outcome counts over 200s (X-Hetjpeg-Cache header) and the
	// hit fraction; all zero for scenarios that run with ?cache=bypass.
	CacheHits    int     `json:"cacheHits,omitempty"`
	CacheWaits   int     `json:"cacheWaits,omitempty"`
	CacheMisses  int     `json:"cacheMisses,omitempty"`
	CacheHitRate float64 `json:"cacheHitRate,omitempty"`
}

type summary struct {
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	CPUs      int              `json:"cpus"`
	Workers   int              `json:"workers"`
	MaxQueue  int              `json:"maxQueue"`
	Scenarios []scenarioResult `json:"scenarios"`
}

func main() {
	addr := flag.String("addr", "", "target imaged server (empty: run one in-process)")
	out := flag.String("out", "", "summary JSON path (empty: stdout only)")
	duration := flag.Duration("duration", 3*time.Second, "per-scenario run time")
	steady := flag.Int("concurrency", 0, "steady-scenario client count (0 = decode workers)")
	workers := flag.Int("workers", 0, "in-process server decode workers (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "in-process server admission cap (0 = 4×workers)")
	platformName := flag.String("platform", "GTX 560", "in-process server platform")
	flag.Parse()

	if err := run(*addr, *out, *duration, *steady, *workers, *maxQueue, *platformName); err != nil {
		log.Fatal(err)
	}
}

func run(addr, out string, duration time.Duration, steady, workers, maxQueue int, platformName string) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxQueue <= 0 {
		maxQueue = 4 * workers
		if maxQueue < 8 {
			maxQueue = 8
		}
	}
	if steady <= 0 {
		steady = workers
	}

	base := addr
	if base == "" {
		spec := hetjpeg.PlatformByName(platformName)
		if spec == nil {
			return fmt.Errorf("unknown platform %q", platformName)
		}
		s, err := imaged.New(imaged.Config{
			Spec:     spec,
			Mode:     hetjpeg.ModePipelinedGPU,
			Workers:  workers,
			MaxQueue: maxQueue,
			Salvage:  true,
			Log:      log.New(nopWriter{}, "", 0),
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: s.Handler()}
		go func() { _ = srv.Serve(ln) }()
		defer func() {
			s.StartDrain()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
			s.Close()
		}()
		base = ln.Addr().String()
		log.Printf("loadgen: in-process imaged on %s (%d workers, queue %d)", base, workers, maxQueue)
	}
	url := "http://" + base + "/decode"

	corpus := buildCorpus()
	sum := summary{
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		Workers:  workers,
		MaxQueue: maxQueue,
	}
	// Warm the calibrator (and the connection pool) before measuring.
	for _, img := range corpus {
		resp, err := http.Post(url, "image/jpeg", bytes.NewReader(img))
		if err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for _, sc := range []struct {
		name        string
		concurrency int
		query       string
	}{
		// steady and overload measure the decode path itself, so they
		// opt out of the cache (the corpus is 3 images round-robin —
		// cached, everything would be a hit). hot-repeat is that cached
		// case, on purpose: steady vs hot-repeat is the cache's speedup.
		{"steady", steady, "cache=bypass"},
		{"overload", 4 * maxQueue, "cache=bypass"},
		{"hot-repeat", steady, ""},
	} {
		res := drive(url, corpus, sc.query, sc.concurrency, duration)
		res.Name = sc.name
		sum.Scenarios = append(sum.Scenarios, res)
		log.Printf("loadgen: %-10s conc=%-3d req=%-6d ok=%-6d p50=%.2fms p99=%.1fms shed=%.1f%% degraded=%d hit=%.0f%%",
			res.Name, res.Concurrency, res.Requests, res.OK, res.P50Ms, res.P99Ms, 100*res.ShedRate, res.Degraded, 100*res.CacheHitRate)
	}

	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out != "" {
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			return err
		}
		log.Printf("loadgen: wrote %s", out)
	} else {
		os.Stdout.Write(blob)
	}
	return nil
}

// buildCorpus encodes the request mix: small/medium/large textured
// JPEGs, the gallery spread the paper's workload assumes.
func buildCorpus() [][]byte {
	sizes := [][2]int{{256, 256}, {512, 384}, {1024, 768}}
	corpus := make([][]byte, 0, len(sizes))
	for si, wh := range sizes {
		img := hetjpeg.NewImage(wh[0], wh[1])
		for y := 0; y < wh[1]; y++ {
			for x := 0; x < wh[0]; x++ {
				v := byte((x*2654435761 + y*40503 + si*97) >> 3)
				img.Set(x, y, v, v^0x5A, byte(x*y))
			}
		}
		data, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{Quality: 90, Subsampling: hetjpeg.Sub422})
		if err != nil {
			log.Fatalf("corpus encode %dx%d: %v", wh[0], wh[1], err)
		}
		corpus = append(corpus, data)
	}
	return corpus
}

// drive runs one closed-loop scenario: concurrency clients, each
// posting the corpus round-robin until the deadline; every 4th request
// opts into degradation, the way a thumbnail tier would. query is the
// scenario's base query string ("cache=bypass" or empty).
func drive(url string, corpus [][]byte, query string, concurrency int, duration time.Duration) scenarioResult {
	var (
		mu         sync.Mutex
		latencies  []float64
		res        = scenarioResult{Concurrency: concurrency}
		retrySum   float64
		retryCount int
		seq        atomic.Int64
	)
	deadline := time.Now().Add(duration)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: concurrency}}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := seq.Add(1)
				img := corpus[int(n)%len(corpus)]
				q := query
				if n%4 == 0 {
					if q != "" {
						q += "&"
					}
					q += "degrade=allow"
				}
				if q != "" {
					q = "?" + q
				}
				t0 := time.Now()
				resp, err := client.Post(url+q, "image/jpeg", bytes.NewReader(img))
				lat := float64(time.Since(t0).Microseconds()) / 1000
				mu.Lock()
				res.Requests++
				if err != nil {
					res.Errors++
					mu.Unlock()
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					res.OK++
					latencies = append(latencies, lat)
					if resp.Header.Get("X-Hetjpeg-Degraded") == "true" {
						res.Degraded++
					}
					if resp.Header.Get("X-Hetjpeg-Salvaged") == "true" {
						res.Salvaged++
					}
					switch resp.Header.Get("X-Hetjpeg-Cache") {
					case "hit":
						res.CacheHits++
					case "wait":
						res.CacheWaits++
					case "miss":
						res.CacheMisses++
					}
				case http.StatusTooManyRequests:
					res.Shed++
					var sec float64
					if _, err := fmt.Sscanf(resp.Header.Get("Retry-After"), "%f", &sec); err == nil {
						retrySum += sec
						retryCount++
					}
				case http.StatusServiceUnavailable:
					res.Timeouts++
				default:
					res.Errors++
				}
				mu.Unlock()
				// Drain so the connection is reusable.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	res.DurationMs = float64(elapsed.Microseconds()) / 1000
	res.P50Ms = percentile(latencies, 0.50)
	res.P99Ms = percentile(latencies, 0.99)
	if len(latencies) > 0 {
		var s float64
		for _, l := range latencies {
			s += l
		}
		res.MeanMs = s / float64(len(latencies))
	}
	if res.Requests > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Requests)
	}
	if retryCount > 0 {
		res.RetryAfterMean = retrySum / float64(retryCount)
	}
	if res.OK > 0 {
		res.CacheHitRate = float64(res.CacheHits) / float64(res.OK)
	}
	res.Throughput = float64(res.OK) / elapsed.Seconds()
	return res
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
