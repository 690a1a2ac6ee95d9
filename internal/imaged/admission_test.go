package imaged

// Table tests for the Retry-After pricing: the pure arithmetic behind
// every 429 — pending admitted bytes converted through the calibrator's
// bytes/MCU into MCUs, priced at the entropy + back-phase ns/MCU rates,
// spread across the workers, rounded up to whole seconds and clamped to
// [1s, 60s]. A cold (uncalibrated) server must answer 1s rather than
// divide by zero or promise the moon. TestRetryAfterSeconds prices a
// decode-only backlog; TestRetryAfterSecondsMixed adds the transcode
// backlog's encode term.

import (
	"testing"

	"hetjpeg"
)

func TestRetryAfterSeconds(t *testing.T) {
	calibrated := hetjpeg.BatchQueueStats{
		EntropyNsPerMCU: 300_000,
		BackNsPerMCU:    200_000,
		BytesPerMCU:     100,
	}
	cases := []struct {
		name    string
		pending int64
		st      hetjpeg.BatchQueueStats
		workers int
		want    int
	}{
		{
			// No calibration at all: the scheduler has not seen an image
			// yet, so there is no honest estimate — fall back to 1s.
			name:    "cold server answers 1s",
			pending: 10 << 20,
			st:      hetjpeg.BatchQueueStats{},
			workers: 4,
			want:    1,
		},
		{
			// Rates without a bytes→MCU conversion are unusable.
			name:    "missing bytes-per-mcu answers 1s",
			pending: 10 << 20,
			st:      hetjpeg.BatchQueueStats{EntropyNsPerMCU: 1e6, BackNsPerMCU: 1e6},
			workers: 4,
			want:    1,
		},
		{
			name:    "missing ns rates answers 1s",
			pending: 10 << 20,
			st:      hetjpeg.BatchQueueStats{BytesPerMCU: 100},
			workers: 4,
			want:    1,
		},
		{
			// 2 MB / 100 B/MCU = 20000 MCUs x 500us = 10s of work over 4
			// workers = 2.5s -> ceil 3s.
			name:    "bytes to MCUs to seconds",
			pending: 2_000_000,
			st:      calibrated,
			workers: 4,
			want:    3,
		},
		{
			// 1500 B -> 1500 MCUs x 1ms = 1.5s on one worker: rounds UP
			// to 2, never down — an optimistic Retry-After just bounces
			// the client off the gate again.
			name:    "rounds up",
			pending: 1500,
			st:      hetjpeg.BatchQueueStats{EntropyNsPerMCU: 500_000, BackNsPerMCU: 500_000, BytesPerMCU: 1},
			workers: 1,
			want:    2,
		},
		{
			// Sub-second drain estimates still answer the 1s floor.
			name:    "clamps at 1s",
			pending: 100,
			st:      calibrated,
			workers: 4,
			want:    1,
		},
		{
			name:    "zero pending clamps at 1s",
			pending: 0,
			st:      calibrated,
			workers: 4,
			want:    1,
		},
		{
			// A queue that prices out to hours still answers 60s: past
			// that the client should be re-resolving, not sleeping.
			name:    "clamps at 60s",
			pending: 1 << 30,
			st:      hetjpeg.BatchQueueStats{EntropyNsPerMCU: 500_000, BackNsPerMCU: 500_000, BytesPerMCU: 1},
			workers: 1,
			want:    60,
		},
		{
			// More workers drain the same queue proportionally faster.
			name:    "workers divide the estimate",
			pending: 2_000_000,
			st:      calibrated,
			workers: 1,
			want:    10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// No transcode backlog: the learned encode rate must not
			// move the price.
			if got := retryAfterSeconds(tc.pending, 0, tc.st, tc.workers, 700_000); got != tc.want {
				t.Errorf("retryAfterSeconds(%d, 0, %+v, %d, 7e5) = %d, want %d",
					tc.pending, tc.st, tc.workers, got, tc.want)
			}
		})
	}
}

// TestRetryAfterSecondsMixed pins the transcode-aware pricing: bytes
// admitted for /transcode owe an encode pass at the learned encode
// ns/MCU on top of the decode term. With no transcode backlog (or a
// cold encode rate) the estimate must equal the decode-only one.
func TestRetryAfterSecondsMixed(t *testing.T) {
	calibrated := hetjpeg.BatchQueueStats{
		EntropyNsPerMCU: 300_000,
		BackNsPerMCU:    200_000,
		BytesPerMCU:     100,
	}
	cases := []struct {
		name      string
		pending   int64
		transcode int64
		st        hetjpeg.BatchQueueStats
		workers   int
		encNs     float64
		want      int
	}{
		{
			// No bytes→MCU conversion means no honest estimate, even when
			// the encode rate alone is known.
			name:      "cold calibration answers 1s",
			pending:   10 << 20,
			transcode: 10 << 20,
			st:        hetjpeg.BatchQueueStats{},
			workers:   4,
			encNs:     500_000,
			want:      1,
		},
		{
			// Zero transcode backlog: identical to decode-only pricing
			// (TestRetryAfterSeconds' "bytes to MCUs to seconds" case
			// answers 3s).
			name:      "no transcode backlog matches decode-only pricing",
			pending:   2_000_000,
			transcode: 0,
			st:        calibrated,
			workers:   4,
			encNs:     500_000,
			want:      3,
		},
		{
			// Unlearned encode rate: the transcode bytes still owe their
			// decode (they are part of pending) but the encode term drops
			// out rather than pricing from garbage.
			name:      "cold encode rate degenerates to decode-only",
			pending:   2_000_000,
			transcode: 2_000_000,
			st:        calibrated,
			workers:   4,
			encNs:     0,
			want:      3,
		},
		{
			// Decode: 20000 MCUs x 500us / 4 = 2.5s. Encode: 20000 MCUs x
			// 500us / 4 = 2.5s. Total 5s.
			name:      "encode term adds to the decode term",
			pending:   2_000_000,
			transcode: 2_000_000,
			st:        calibrated,
			workers:   4,
			encNs:     500_000,
			want:      5,
		},
		{
			// Decode rates missing but encode rate learned: the transcode
			// backlog still prices (2e6 B / 100 B/MCU x 500us / 1 = 10s).
			name:      "encode-only backlog still priced",
			pending:   2_000_000,
			transcode: 2_000_000,
			st:        hetjpeg.BatchQueueStats{BytesPerMCU: 100},
			workers:   1,
			encNs:     500_000,
			want:      10,
		},
		{
			name:      "mixed estimate clamps at 60s",
			pending:   1 << 30,
			transcode: 1 << 30,
			st:        hetjpeg.BatchQueueStats{EntropyNsPerMCU: 500_000, BackNsPerMCU: 500_000, BytesPerMCU: 1},
			workers:   1,
			encNs:     1_000_000,
			want:      60,
		},
		{
			name:      "all-zero backlog clamps at 1s",
			pending:   0,
			transcode: 0,
			st:        calibrated,
			workers:   4,
			encNs:     500_000,
			want:      1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := retryAfterSeconds(tc.pending, tc.transcode, tc.st, tc.workers, tc.encNs)
			if got != tc.want {
				t.Errorf("retryAfterSeconds(%d, %d, %+v, %d, %g) = %d, want %d",
					tc.pending, tc.transcode, tc.st, tc.workers, tc.encNs, got, tc.want)
			}
		})
	}
}
