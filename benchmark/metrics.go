package main

// The metric catalogue: every name the benchmark may print, with its unit
// and, for the end-to-end ones, the direction and the bound a later change
// is judged against. BENCHMARK.json, the README tables, the result files
// and the tests are all checked against these two lists.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base's median by which an end-to-end
	// metric may worsen before -compare calls a change a regression; 0
	// for per-layer metrics.
	Bound float64
	// Gate is the bound BENCHMARK.json carries, which the driver holds
	// every single run of a later change against; a metric without one
	// is not in that file. See "The bounds and the host" in README.md for
	// why it is wider than Bound.
	Gate float64
}

// failShare is reported with the end-to-end metrics in result files and
// tables and judged by -compare, absolutely: it is 0 at this commit and
// may never rise. BENCHMARK.json has no place for it among its metrics,
// which must never read 0 and are bounded relatively; there it is the
// attempted and failed counts of the result line.
const failShare = "fail_share"

// Bound is what the issue that defined the benchmark fixed. Where the
// spread between runs on the measuring host is wider, -compare answers
// "unresolved", not "same". Gate is what ten single runs on ten seeds on
// the reference host stay within, with room for its slow hours: the driver
// refuses a benchmark whose own spread exceeds its bound, and rejects a
// later change on one comparison of medians. alloc_mb_per_mpix has none:
// where the slab pools work (batch_gallery, 0.1 MB/MP) what is left is a
// handful of pool misses of several MB per window, and ten runs spread by
// 0.2 to 0.3 of their median, more than any bound that file allows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.30, Gate: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "op_ms_p95", Unit: "ms", Better: "lower", Bound: 0.15, Gate: 0.25},
	{Name: "mpix_per_s", Unit: "MP/s", Better: "higher", Bound: 0.10, Gate: 0.25},
	{Name: "cpu_ms_per_mpix", Unit: "ms/MP", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "alloc_mb_per_mpix", Unit: "MB/MP", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Gate: 0.25},
}

var perLayer = []metricDef{
	{Name: "bitstream.read_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "bitstream.write_ns_per_call", Unit: "ns", Better: "lower"},

	{Name: "huffman.decode_ns_per_sym", Unit: "ns", Better: "lower"},
	{Name: "huffman.encode_ns_per_sym", Unit: "ns", Better: "lower"},
	{Name: "huffman.build_us", Unit: "us", Better: "lower"},

	{Name: "jfif.parse_us", Unit: "us", Better: "lower"},

	{Name: "jpegcodec.prepare_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "jpegcodec.entropy_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "jpegcodec.entropy_mbit_per_s", Unit: "Mbit/s", Better: "higher"},
	{Name: "jpegcodec.entropy_share", Unit: "ratio", Better: "lower"},
	{Name: "jpegcodec.output_alloc_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "jpegcodec.back_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "jpegcodec.idct_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "jpegcodec.color_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "jpegcodec.back_workers_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "jpegcodec.entropy_progressive_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "jpegcodec.entropy_restart_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "jpegcodec.encode_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "jpegcodec.encode_progressive_ms_per_mpix", Unit: "ms/MP", Better: "lower"},

	{Name: "dct.idct_dense_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "dct.idct_4x4_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "dct.idct_dc_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "dct.idct_scaled4_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "dct.idct_scaled2_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "dct.fdct_ns_per_block", Unit: "ns", Better: "lower"},

	{Name: "color.convert_ns_per_px", Unit: "ns", Better: "lower"},
	{Name: "color.upsample_h2v1_ns_per_px", Unit: "ns", Better: "lower"},
	{Name: "color.upsample_h2v2_ns_per_px", Unit: "ns", Better: "lower"},
	{Name: "color.downsample_h2v2_ns_per_px", Unit: "ns", Better: "lower"},

	{Name: "pool.getput_ns", Unit: "ns", Better: "lower"},

	{Name: "core.finish_virtual_us", Unit: "us", Better: "lower"},
	{Name: "core.virtual_ms_pps", Unit: "ms", Better: "lower"},
	{Name: "core.virtual_speedup_pps_vs_simd", Unit: "ratio", Better: "higher"},

	{Name: "batch.batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "batch.mpix_per_s_workers1", Unit: "MP/s", Better: "higher"},
	{Name: "batch.scaling_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "batch.idle_share", Unit: "ratio", Better: "lower"},
	{Name: "batch.submit_block_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "batch.inflight_mean", Unit: "count", Better: "higher"},
	{Name: "batch.entropy_ns_per_mcu", Unit: "ns", Better: "lower"},
	{Name: "batch.back_ns_per_mcu", Unit: "ns", Better: "lower"},

	{Name: "rescache.key_us_per_mb", Unit: "us/MB", Better: "lower"},
	{Name: "rescache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "rescache.do_miss_overhead_us", Unit: "us", Better: "lower"},
	{Name: "rescache.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "rescache.evictions_per_s", Unit: "1/s", Better: "lower"},

	{Name: "imaged.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "imaged.miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "imaged.thumb_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "imaged.half_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "imaged.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "imaged.decode_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "imaged.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "imaged.util", Unit: "ratio", Better: "lower"},
	{Name: "imaged.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "imaged.backlog_growth", Unit: "count", Better: "lower"},

	{Name: "transcode.decode_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "transcode.encode_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "transcode.fastpath_ms_per_mpix", Unit: "ms/MP", Better: "lower"},
	{Name: "transcode.out_bytes_per_px", Unit: "B/px", Better: "lower"},

	{Name: "trace.layer_sum_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.corpus_s", Unit: "s", Better: "lower"},
	{Name: "bench.late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "bench.op_ms_pmax", Unit: "ms", Better: "lower"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
	{Name: "go.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "go.gc_cycles_per_s", Unit: "1/s", Better: "lower"},
}

// gated returns the end-to-end metrics BENCHMARK.json lists.
func gated() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Gate > 0 {
			out = append(out, m)
		}
	}
	return out
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"decode_dense", "dense texture at 0.45 B/px: entropy decode is over half of an op, so Huffman and bit-reader work shows here"},
	{"decode_smooth", "smooth 4:2:0 at 0.05 B/px: IDCT, upsample, colour and buffer allocation dominate; a Huffman change must not move it"},
	{"batch_gallery", "48 mixed images through the band scheduler on all workers: the multi-core path, progressive, restart and scaled decodes"},
	{"transcode_mixed", "decode then re-encode at four scale and quality settings: the write side of the codec layers and the DC-only fast path"},
	{"service_mixed", "open-loop HTTP traffic over loopback to imaged, hits and misses, decodes and transcodes: the service path end to end"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func unitOf(name string) string {
	if name == failShare {
		return "ratio"
	}
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
