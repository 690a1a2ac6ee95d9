# Developer entry points. The repo is plain `go build ./...` /
# `go test ./...`; these targets wrap the recurring workflows.
#
# Static analysis (one command, cmd/hetlint):
#   make lint           runs the project analyzers (poolcheck,
#                       errwrapcheck, ctxloopcheck) over the whole
#                       module, then the codegen-regression audit (new
#                       bounds checks or heap escapes in the hot
#                       packages vs the committed baselines in
#                       internal/lint/testdata/).
#   make lint-baseline  runs the analyzers and re-blesses the audit
#                       baselines after an intentional codegen change;
#                       commit the diff.

.PHONY: all build test race bench-smoke fuzz-smoke conformance conformance-faults conformance-transcode cover fmt vet lint lint-baseline

all: build

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# bench-smoke compiles and runs every benchmark in the repo exactly once
# (CI uses it so benchmarks can never silently rot).
bench-smoke:
	go test ./... -run='^$$' -bench=. -benchtime=1x

# fuzz-smoke runs the native fuzzers briefly (CI budget).
fuzz-smoke:
	go test ./internal/bitstream/ -fuzz=FuzzReaderMatchesReference -fuzztime=10s
	go test ./internal/bitstream/ -fuzz=FuzzWriterReaderRoundTrip -fuzztime=10s
	go test ./internal/bitstream/ -fuzz=FuzzWriterMatchesReference -fuzztime=10s
	go test ./internal/color/ -run='^$$' -fuzz=FuzzColorKernels -fuzztime=10s
	go test ./internal/huffman/ -fuzz=FuzzDecodeArbitraryBits -fuzztime=10s
	go test ./internal/huffman/ -fuzz=FuzzEncodeDecodeRoundTrip -fuzztime=10s
	go test ./internal/jpegcodec/ -run='^$$' -fuzz=FuzzProgressiveDecode -fuzztime=10s
	go test ./internal/jpegcodec/ -run='^$$' -fuzz=FuzzScaledDecode -fuzztime=10s
	go test ./internal/jpegcodec/ -run='^$$' -fuzz=FuzzSalvageDecode -fuzztime=10s
	go test ./internal/jpegcodec/ -run='^$$' -fuzz=FuzzEncodeMatchesReference -fuzztime=10s
	go test ./internal/rescache/ -fuzz=FuzzCacheKeyIsolation -fuzztime=10s
	go test ./internal/transcode/ -run='^$$' -fuzz=FuzzTranscode -fuzztime=10s

# conformance runs the differential harness: the generated baseline +
# progressive corpus through all modes, the batch scheduler and worker
# counts 1-8 — at full size and at every decode scale (byte-identity
# against the scalar scaled reference) — and plane-level comparison
# against the stdlib decoder.
conformance:
	go test ./internal/conformance/ -v -run 'TestConformance'

# conformance-faults runs the fault-injection gate: systematically
# corrupted streams (truncation at every byte, entropy bit flips,
# dropped/duplicated/renumbered restart markers, corrupted marker
# lengths) must never panic, strict mode must keep failing exactly as
# before, and salvage mode must hold its committed recovery floors with
# byte-identical salvaged pixels across every mode and worker count.
conformance-faults:
	go test ./internal/conformance/ -v -run 'TestFault'

# conformance-transcode runs the round-trip gate on the transcode
# pipeline: encoder-alone and full-transcode distortion floors per
# quality (decoded with Go's image/jpeg on the encoder side), bit-exact
# equality of the DC-only 1/8 fast path with the pixel round trip, and
# byte identity of executor-decoded transcodes (imaged's /transcode
# composition) with the one-shot path across workers 1-8.
conformance-transcode:
	go test ./internal/conformance/ -v -run 'TestConformanceTranscode|TestConformanceEncoderRoundTrip'

# COVER_FLOOR is the combined statement-coverage floor for the decoder
# core packages (jpegcodec + jfif), measured across their own tests plus
# the conformance harness. SVC_COVER_FLOOR is the same floor for the
# service-tier packages (rescache + metrics), measured across their own
# tests plus the imaged suite that drives them over HTTP.
# XCODE_COVER_FLOOR covers the transcode pipeline from its own suite.
# Raise the floors as coverage grows; never lower them to make a PR
# pass.
COVER_FLOOR ?= 85.0
SVC_COVER_FLOOR ?= 85.0
XCODE_COVER_FLOOR ?= 85.0

cover:
	go test -coverpkg=hetjpeg/internal/jpegcodec,hetjpeg/internal/jfif \
		-coverprofile=cover.out \
		./internal/jpegcodec ./internal/jfif ./internal/conformance
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	echo "jpegcodec+jfif coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }
	go test -coverpkg=hetjpeg/internal/rescache,hetjpeg/internal/metrics \
		-coverprofile=cover_svc.out \
		./internal/rescache ./internal/metrics ./internal/imaged
	@total=$$(go tool cover -func=cover_svc.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	echo "rescache+metrics coverage: $$total% (floor $(SVC_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(SVC_COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% below floor $(SVC_COVER_FLOOR)%"; exit 1; }
	go test -coverpkg=hetjpeg/internal/transcode \
		-coverprofile=cover_xcode.out ./internal/transcode
	@total=$$(go tool cover -func=cover_xcode.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	echo "transcode coverage: $$total% (floor $(XCODE_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(XCODE_COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% below floor $(XCODE_COVER_FLOOR)%"; exit 1; }

fmt:
	gofmt -l -w .

vet:
	go vet ./...

# lint runs the project-specific analyzers and the codegen-regression
# audit in one pass; it exits non-zero on any finding, and `make lint`
# green is a merge requirement. Raw audit compiler output lands in
# hetaudit_*.txt (gitignored) for inspection.
lint:
	go run ./cmd/hetlint ./...

# lint-baseline re-blesses the codegen audit baselines from the current
# tree. Run it only after verifying an intentional change (a new
# kernel, a rewritten loop) and commit the baseline diff with it.
lint-baseline:
	go run ./cmd/hetlint -bless ./...
