// Package conformance is the decoder's differential conformance
// harness. Its tests decode a deterministic generated corpus — baseline
// and progressive, every subsampling, restart intervals, all scan
// scripts — through every execution mode and the batch scheduler at
// worker counts 1..8, asserting byte-identical RGB output across all of
// them, and compare the reconstructed YCbCr sample planes against Go's
// standard library image/jpeg decoder.
//
// Tolerances, and why they are what they are:
//
//   - Within hetjpeg (modes × worker counts): exact. Every
//     configuration consumes the same whole-image coefficient buffer and
//     the same kernels, so a single differing byte is a bug.
//   - Against image/jpeg, baseline and progressive: max ±1 per YCbCr
//     sample. Entropy decoding is exact in both decoders (quantized
//     coefficients are integers); the difference is the two codebases'
//     integer IDCT rounding, each conformant to the T.81 accuracy
//     requirements. Comparison happens on the sample planes, before
//     upsampling and color conversion, because image/jpeg returns
//     subsampled YCbCr and applies no chroma interpolation — RGB-level
//     comparison would measure upsampling-filter choice, not decoding.
//   - Progressive fixtures that combine chroma subsampling with restart
//     intervals are excluded from the stdlib comparison only: T.81
//     A.2.2 counts the restart interval in data units for
//     non-interleaved scans (one block each, as libjpeg implements),
//     while image/jpeg counts padded frame MCUs, so the two decoders
//     disagree about where RSTn markers fall whenever a scan component
//     has more than one block per frame MCU. For 4:4:4 the two units
//     coincide and the comparison runs.
package conformance
