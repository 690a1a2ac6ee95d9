package imaged

import (
	"time"

	"hetjpeg"
	"hetjpeg/internal/metrics"
	"hetjpeg/internal/transcode"
)

// buildMetrics registers the service's Prometheus catalog. Counters the
// service already keeps as atomics (gate, cache, executor calibration)
// are exposed through func-backed collectors read at scrape time, so
// /metrics adds no bookkeeping to the request path; the only metric the
// handlers feed directly is the per-scale decode latency histogram.
//
// The catalog — names, types and label sets — is pinned by the golden
// test in metrics_golden_test.go; extend it there when extending it
// here.
func (s *Server) buildMetrics() {
	reg := metrics.NewRegistry()
	s.reg = reg

	// Decode latency by the scale that actually ran (a degraded request
	// observes under "1/8"). Pre-created for every scale so the catalog
	// is complete before traffic arrives.
	s.mDecodeDur = reg.NewHistogramVec("hetjpeg_decode_duration_seconds",
		"Wall-clock decode latency by decode scale, successful decodes only.",
		metrics.DurationBuckets, "scale")
	for _, sc := range []hetjpeg.Scale{hetjpeg.Scale1, hetjpeg.Scale2, hetjpeg.Scale4, hetjpeg.Scale8} {
		s.mDecodeDur.With(sc.String())
	}

	// Transcode: re-encode latency by encode rate class, totals, and the
	// learned per-class ns/MCU rates behind the Retry-After encode term.
	s.mEncodeDur = reg.NewHistogramVec("hetjpeg_encode_duration_seconds",
		"Wall-clock re-encode latency of /transcode by encode rate class.",
		metrics.DurationBuckets, "class")
	encRate := reg.NewGaugeFuncVec("hetjpeg_encode_ns_per_mcu",
		"Learned re-encode cost per output MCU by encode rate class.", "class")
	for _, c := range transcode.Classes() {
		s.mEncodeDur.With(c.String())
		encRate.Bind(func() float64 { return s.encRates.Value(c) }, c.String())
	}
	reg.NewCounterFunc("hetjpeg_transcode_total",
		"Successful /transcode responses.",
		func() uint64 { return s.transcodes.Load() })
	reg.NewCounterFunc("hetjpeg_transcode_fastpath_total",
		"Transcodes whose decode ran the coefficient-domain DC-only path.",
		func() uint64 { return s.fastpathTranscodes.Load() })
	reg.NewGaugeFunc("hetjpeg_transcode_pending_bytes",
		"Admitted transcode bytes still owing their re-encode pass.",
		func() float64 { return float64(s.transBytes.Load()) })

	// Decoded-output cache. Outcome mirrors the X-Hetjpeg-Cache header.
	cacheReq := reg.NewCounterFuncVec("hetjpeg_cache_requests_total",
		"Requests by how they met the decoded-output cache.", "outcome")
	cacheReq.Bind(func() uint64 { return s.cache.Stats().Hits }, "hit")
	cacheReq.Bind(func() uint64 { return s.cache.Stats().Misses }, "miss")
	cacheReq.Bind(func() uint64 { return s.cache.Stats().Waits }, "wait")
	cacheReq.Bind(func() uint64 { return s.cache.Stats().Bypasses }, "bypass")
	reg.NewCounterFunc("hetjpeg_cache_evictions_total",
		"Entries evicted from the decoded-output cache.",
		func() uint64 { return s.cache.Stats().Evictions })
	reg.NewGaugeFunc("hetjpeg_cache_resident_bytes",
		"Bytes of decoded results currently resident in the cache.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	reg.NewGaugeFunc("hetjpeg_cache_capacity_bytes",
		"Decoded-output cache byte budget (0 when caching is disabled).",
		func() float64 { return float64(s.cache.Stats().Capacity) })
	reg.NewGaugeFunc("hetjpeg_cache_entries",
		"Decoded results currently resident in the cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })

	// Admission gate.
	reg.NewCounterFunc("hetjpeg_admission_admitted_total",
		"Requests admitted past the queue/byte budgets.",
		func() uint64 { return s.gate.snapshot().Admitted })
	reg.NewCounterFunc("hetjpeg_admission_shed_total",
		"Requests shed with 429 because a budget was full.",
		func() uint64 { return s.gate.snapshot().Shed })
	reg.NewCounterFunc("hetjpeg_admission_degraded_total",
		"Opted-in requests served at 1/8 scale past the overload watermark.",
		func() uint64 { return s.gate.snapshot().Degraded })
	reg.NewGaugeFunc("hetjpeg_admission_pending_requests",
		"Admitted requests currently holding a queue slot.",
		func() float64 { return float64(s.gate.snapshot().Pending) })
	reg.NewGaugeFunc("hetjpeg_admission_pending_bytes",
		"Body bytes currently held by admitted requests.",
		func() float64 { return float64(s.gate.snapshot().PendingBytes) })

	// Service counters.
	reg.NewCounterFunc("hetjpeg_decode_timeouts_total",
		"Requests that exceeded their decode deadline (503).",
		func() uint64 { return s.timeouts.Load() })
	reg.NewCounterFunc("hetjpeg_panics_total",
		"Panics contained by the recovery middleware or by a request part's decode.",
		func() uint64 { return s.panics.Load() })
	reg.NewGaugeFunc("hetjpeg_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })

	// Band-scheduler calibration and occupancy: the rates behind the
	// Retry-After arithmetic, zero until calibrated.
	reg.NewGaugeFunc("hetjpeg_calibrator_entropy_ns_per_mcu",
		"Calibrated entropy-stage cost per MCU.",
		func() float64 { return s.ex.QueueStats().EntropyNsPerMCU })
	reg.NewGaugeFunc("hetjpeg_calibrator_back_ns_per_mcu",
		"Calibrated back-phase cost per MCU.",
		func() float64 { return s.ex.QueueStats().BackNsPerMCU })
	reg.NewGaugeFunc("hetjpeg_calibrator_bytes_per_mcu",
		"Calibrated input bytes per MCU.",
		func() float64 { return s.ex.QueueStats().BytesPerMCU })
	reg.NewGaugeFunc("hetjpeg_queue_in_flight",
		"Images between scheduler admission and result delivery.",
		func() float64 { return float64(s.ex.QueueStats().InFlight) })
	reg.NewGaugeFunc("hetjpeg_queue_target",
		"Calibrated in-flight budget of the band scheduler.",
		func() float64 { return float64(s.ex.QueueStats().Target) })
	reg.NewGaugeFunc("hetjpeg_queue_queued",
		"Admitted images waiting for their entropy stage.",
		func() float64 { return float64(s.ex.QueueStats().Queued) })
}
